"""Run configuration, report rendering, and the command-line entry point."""
import json
import math
import os

import pytest

from spintorus.cli import (ConfigError, EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR,
                           EXIT_OK, SCHEMA_VERSION, build_spec, load_config,
                           main, render_json, run)


def _load_report(path):
    with open(path) as handle:
        return json.load(handle)


def _write_config(tmp_path, mapping, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return str(path)


def test_load_config_defaults():
    cfg = load_config({})
    assert cfg.n == 3 and cfg.N == 2
    assert cfg.eta == 0.5 + 0j
    assert cfg.theta == (0.13 + 0.07j, 0.26 + 0.14j)
    assert cfg.rng_seed == 20240229
    assert cfg.tolerances == {} and cfg.output_path == ""
    spec = build_spec(cfg)
    assert spec.dim == 9


def test_load_config_complex_entries():
    cfg = load_config({"eta": [0.5, 0.1], "N": 1, "theta": [[0.2, -0.3]]})
    assert cfg.eta == 0.5 + 0.1j
    assert cfg.theta == (0.2 - 0.3j,)


@pytest.mark.parametrize("mapping, fragment", [
    ({"flavors": 3}, "unknown config fields"),
    ({"eta": "big"}, "eta must be"),
    ({"eta": [1, 2, 3]}, "eta must be"),
    ({"theta": 0.3}, "theta must be a list"),
    ({"rng_seed": 1.5}, "rng_seed must be an integer"),
    ({"rng_seed": True}, "rng_seed must be an integer"),
    ({"N": "two"}, "N must be an integer"),
    ({"tolerances": {"bogus": 1e-9}}, "unknown tolerance name"),
    ({"tolerances": {"QYBE": "tight"}}, "must be a number"),
    ({"tolerances": [1e-9]}, "tolerances must be a map"),
    ({"output_path": 7}, "output_path must be a string"),
])
def test_load_config_rejections(mapping, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(mapping)


def test_load_config_rejects_non_object():
    with pytest.raises(ConfigError, match="JSON object"):
        load_config([1, 2, 3])


def test_build_spec_reports_chain_errors_as_config_errors():
    with pytest.raises(ConfigError, match="resonance"):
        build_spec(load_config({"theta": [0.3, 0.3]}))
    with pytest.raises(ConfigError, match="N <= 6"):
        build_spec(load_config({"N": 7, "theta": [0.1 * j for j in range(1, 8)]}))


def test_render_json_floats_and_nulls():
    text = render_json({"pi": math.pi, "bad": float("nan"),
                        "row": [1.0, 2.5, None], "flag": True})
    parsed = json.loads(text)
    assert parsed["pi"] == math.pi
    assert parsed["bad"] is None
    assert parsed["row"] == [1.0, 2.5, None]
    assert parsed["flag"] is True
    assert "[1, 2.5, null]" in text


def test_render_json_preserves_key_order():
    text = render_json({"b": 1, "a": 2})
    assert text.index('"b"') < text.index('"a"')


def test_render_json_rejects_unsupported_types():
    with pytest.raises(TypeError):
        render_json({"z": 1 + 2j})


def test_verify_report_and_exit(tmp_path):
    cfg = load_config({})
    code = run("verify", cfg, out_dir=str(tmp_path))
    assert code == EXIT_OK
    report = _load_report(tmp_path / "verify_report.json")
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["command"] == "verify"
    assert report["all_passed"] is True
    assert len(report["checks"]) == 12
    assert report["failures"] == []
    assert report["config"]["N"] == 2


def test_verify_failure_sets_exit_code(tmp_path):
    cfg = load_config({"tolerances": {"unitarity": 1e-30}})
    code = run("verify", cfg, out_dir=str(tmp_path))
    assert code == EXIT_CHECK_FAILURE
    report = _load_report(tmp_path / "verify_report.json")
    assert report["all_passed"] is False
    assert any("unitarity" in line for line in report["failures"])


def test_spectrum_report_single_site(tmp_path):
    cfg = load_config({"N": 1, "theta": [0.2]})
    assert run("spectrum", cfg, out_dir=str(tmp_path)) == EXIT_OK
    report = _load_report(tmp_path / "spectrum_report.json")
    recs = report["records"]
    assert len(recs) == 3
    assert sorted(r["z_charge"] for r in recs) == [0, 1, 2]
    for r in recs:
        assert r["closed_form_deviation"] < 1e-8
        assert r["max_probe_residual"] < 1e-9
    assert report["failures"] == []


def test_reconstruct_report(tmp_path):
    cfg = load_config({})
    assert run("reconstruct", cfg, out_dir=str(tmp_path)) == EXIT_OK
    report = _load_report(tmp_path / "reconstruct_report.json")
    recs = report["records"]
    assert len(recs) == 9
    for r in recs:
        assert r["gauge"] in ("matched", "unit")
        assert r["one_minus_cos"] < 1e-8
        assert r["max_residual"] < 1e-8
        assert len(r["state"]) == 9
    assert report["failures"] == []


def test_homog_report(tmp_path):
    cfg = load_config({})
    assert run("homog", cfg, out_dir=str(tmp_path)) == EXIT_OK
    report = _load_report(tmp_path / "homog_report.json")
    assert report["n_monotone"] == 9
    assert len(report["families"]) == 9
    for fam in report["families"]:
        assert fam["monotone"] is True
        assert fam["angle_closed_form"] < 1e-4
        assert fam["angle_eigenvector"] < 1e-4
    assert report["eps"] == [0.1, 0.05, 0.025, 0.0125]


def test_bae_report_single_site(tmp_path):
    cfg = load_config({"N": 1, "theta": [0.2]})
    assert run("bae", cfg, out_dir=str(tmp_path)) == EXIT_OK
    report = _load_report(tmp_path / "bae_report.json")
    assert report["coverage"] == 1.0
    assert report["matched_z_sectors"] == [0, 1, 2]
    assert report["matched_records"] == [0, 1, 2]
    for sol in report["solutions"]:
        assert sol["max_residual"] < 1e-10
    assert report["failures"] == []


def test_bae_rejects_large_chains(tmp_path):
    cfg = load_config({"N": 3, "theta": [0.1, 0.33, 0.62]})
    with pytest.raises(ConfigError, match="N <= 2"):
        run("bae", cfg, out_dir=str(tmp_path))


def test_strict_flag_controls_diagnostic_exit(tmp_path):
    cfg = load_config({"tolerances": {"reconstruct-cos": 1e-30}})
    assert run("reconstruct", cfg, out_dir=str(tmp_path)) == EXIT_OK
    assert run("reconstruct", cfg, strict=True,
               out_dir=str(tmp_path)) == EXIT_CHECK_FAILURE
    report = _load_report(tmp_path / "reconstruct_report.json")
    assert report["failures"]


def test_csv_sidecar(tmp_path):
    cfg = load_config({})
    run("verify", cfg, csv=True, out_dir=str(tmp_path))
    lines = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert lines[0] == "name,residual,tolerance,passed"
    assert len(lines) == 13
    assert lines[1].startswith("QYBE,")


def test_output_path_override(tmp_path):
    cfg = load_config({"output_path": "custom.json"})
    run("verify", cfg, out_dir=str(tmp_path))
    assert (tmp_path / "custom.json").exists()


def test_reports_are_byte_deterministic(tmp_path):
    for command in ("verify", "spectrum"):
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            run(command, load_config({}), csv=True, out_dir=str(out))
            pair.append((out / f"{command}_report.json").read_bytes()
                        + (out / f"{command}_report.csv").read_bytes())
        assert pair[0] == pair[1]


def test_main_end_to_end(tmp_path):
    cfile = _write_config(tmp_path, {"tolerances": {"QYBE": 1e-10}})
    assert main(["verify", "--config", cfile, "--out", str(tmp_path)]) == EXIT_OK
    report = _load_report(tmp_path / "verify_report.json")
    assert report["config"]["tolerances"] == {"QYBE": 1e-10}


def test_main_creates_output_directory(tmp_path):
    cfile = _write_config(tmp_path, {})
    target = os.path.join(str(tmp_path), "nested", "reports")
    assert main(["verify", "--config", cfile, "--out", target]) == EXIT_OK
    assert os.path.exists(os.path.join(target, "verify_report.json"))


@pytest.mark.parametrize("mapping", [
    {"theta": [0.3, 0.3]},
    {"N": 7, "theta": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]},
    {"flavors": 3},
])
def test_main_config_errors_exit_2(tmp_path, mapping, capsys):
    cfile = _write_config(tmp_path, mapping)
    assert main(["verify", "--config", cfile,
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "spectrum", "bae",
                                     "reconstruct", "homog"])
@pytest.mark.parametrize("n", [2, 4])
def test_main_refuses_unsupported_rank(tmp_path, capsys, command, n):
    cfile = _write_config(tmp_path, {"n": n})
    assert main([command, "--config", cfile,
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and f"n = {n} is not supported" in err
    assert "n = 3" in err
    assert not (tmp_path / f"{command}_report.json").exists()


def test_main_missing_and_malformed_config(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--config", missing,
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad),
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and "not valid JSON" in err


def test_main_bae_size_guard_exit_2(tmp_path, capsys):
    cfile = _write_config(tmp_path, {"N": 3, "theta": [0.1, 0.33, 0.62]})
    assert main(["bae", "--config", cfile,
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert "N <= 2" in capsys.readouterr().err
