"""Run configuration, report rendering, and the command-line entry point."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spintorus.cli as cli
import spintorus.eigenstate as eigenstate
import spintorus.spectrum as spectrum
from spintorus.chain import DEFAULT_SEED, LOG_FLOAT_MAX
from spintorus.cli import (ConfigError, EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR,
                           EXIT_OK, SCHEMA_VERSION, build_spec, load_config,
                           main, render_json, run)
from spintorus.eigenstate import Reconstructor
from spintorus.errors import DegeneracyError


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
    assert cfg.rng_seed == DEFAULT_SEED == 20240229
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


def _reference_render(obj, indent=0):
    """The report format, walked one value at a time."""
    def scalar(v):
        if v is None or (isinstance(v, float) and not math.isfinite(v)):
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v) if isinstance(v, int) else format(v, ".17g")

    if not isinstance(obj, list):
        return scalar(obj)
    if all(not isinstance(v, list) for v in obj):
        return "[" + ", ".join(scalar(v) for v in obj) + "]"
    pad = "  " * indent
    return ("[\n" + ",\n".join("  " + pad + _reference_render(v, indent + 1)
                                for v in obj) + "\n" + pad + "]")


@pytest.mark.parametrize("items", [
    [[0.1, -2.5], [float("nan"), float("inf")], [-float("inf"), -0.0],
     [5e-324, 1e300], [1.0, 0.0]],
    [[1, 2.0]],
    [[True, 0.5], [0.5, 0.5]],
    [[0.1, 0.2, 0.3], [0.1, 0.2]],
    [[np.float64(0.1), np.float64(float("nan"))], [0.25, 0.5]],
    [[0.1, 0.2], [1.5]],
    [[5e-324, -1e300], [-0.0, 0.0], [0.1, -2.5], [1e16, 1e-5]],
])
def test_render_json_pair_lists_match_the_generic_walk(items):
    for indent in (0, 2):
        assert render_json(items, indent) == _reference_render(items, indent)
    nested = {"state": items}
    assert render_json(nested) == ('{\n  "state": '
                                   + _reference_render(items, 1) + "\n}")
    if not all(len(v) == 2 and all(isinstance(x, float) for x in v)
               for v in items):
        return
    # a complex number, builtin or numpy, renders as the pair [re, im] of
    # its parts, alone, in a list or tuple, and nested
    for kind in (complex, np.complex128):
        values = [kind(complex(re, im)) for re, im in items]
        for indent in (0, 2):
            for seq in (values, tuple(values)):
                assert render_json(seq, indent) == _reference_render(items, indent)
        assert render_json({"z": values[0], "zs": [values]}) == render_json(
            {"z": items[0], "zs": [items]})


def test_render_json_preserves_key_order():
    text = render_json({"b": 1, "a": 2})
    assert text.index('"b"') < text.index('"a"')


def test_render_json_rejects_unsupported_types():
    with pytest.raises(TypeError):
        render_json({"z": object()})


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


def test_homog_strict_single_site_is_monotone(tmp_path):
    # a one-site state does not depend on theta: every Cauchy distance is
    # exactly 0, the limit is reached, and each family counts as monotone
    cfg = _write_config(tmp_path, {"N": 1})
    assert main(["homog", "--strict", "--csv", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    report = _load_report(tmp_path / "homog_report.json")
    assert report["n_monotone"] == 3 and len(report["families"]) == 3
    for fam in report["families"]:
        assert fam["distances"] == [0.0, 0.0, 0.0]
        assert fam["monotone"] is True
    assert report["failures"] == []


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


def test_strict_flag_controls_diagnostic_exit(tmp_path, monkeypatch):
    # every reconstructed state is tilted off its eigenvector, so each record
    # is reported misaligned; only --strict turns that into a failing exit
    exact = Reconstructor.state
    tilt = np.random.default_rng(0).standard_normal(9)

    def tilted(self, lambda_at_theta, psi_bar0):
        state = exact(self, lambda_at_theta, psi_bar0)
        return state + 0.1 * np.linalg.norm(state) * tilt

    monkeypatch.setattr(Reconstructor, "state", tilted)
    cfg = load_config({})
    assert run("reconstruct", cfg, out_dir=str(tmp_path)) == EXIT_OK
    assert run("reconstruct", cfg, strict=True,
               out_dir=str(tmp_path)) == EXIT_CHECK_FAILURE
    report = _load_report(tmp_path / "reconstruct_report.json")
    assert report["failures"]
    assert all(r["one_minus_cos"] > 1e-8 for r in report["records"])


@pytest.mark.parametrize("kernel", ["g_m_function", "f_factor"])
def test_reconstruct_kills_a_one_point_kernel_defect(kernel, tmp_path,
                                                     monkeypatch):
    # a 1e-6 error in the kernel of the one-point sets only, which no gauge
    # absorbs (a uniform scale of every kernel is one): each rebuilt state
    # stays aligned with its eigenvector to 1e-12, but its transfer residual
    # (about 4e-7) exceeds the 1e-8 gate on all 9 records
    exact = getattr(eigenstate, kernel)

    def planted(points, *rest):
        value = exact(points, *rest)
        return value * (1 + 1e-6) if len(points) == 1 else value

    monkeypatch.setattr(eigenstate, kernel, planted)
    assert run("reconstruct", load_config({}), strict=True,
               out_dir=str(tmp_path)) == EXIT_CHECK_FAILURE
    report = _load_report(tmp_path / "reconstruct_report.json")
    assert len(report["failures"]) == 9
    assert all("transfer residual" in f for f in report["failures"])
    records = report["records"]
    assert max(r["max_residual"] for r in records) > 1e-7
    assert max(r["one_minus_cos"] for r in records) < 1e-12


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


@pytest.mark.parametrize("output_path, out", [
    ("{tmp}/missing/r.json", None),
    ("sub/r.json", "{tmp}/dir"),
], ids=["absolute", "under-out"])
def test_main_creates_report_parent_directory(tmp_path, output_path, out):
    output_path = output_path.format(tmp=tmp_path)
    cfile = _write_config(tmp_path, {"N": 1, "output_path": output_path})
    argv = ["verify", "--config", cfile]
    if out:
        out = out.format(tmp=tmp_path)
        argv += ["--out", out]
    assert main(argv) == EXIT_OK
    assert os.path.isfile(os.path.join(out or "", output_path))


@pytest.mark.parametrize("output_path, fragment", [
    ("file/r.json", "cannot create report directory"),
    ("dir", "is a directory"),
])
def test_main_unwritable_report_path_is_config_error(tmp_path, capsys,
                                                     output_path, fragment):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    cfile = _write_config(tmp_path, {
        "N": 1, "output_path": str(tmp_path / output_path)})
    assert main(["verify", "--config", cfile]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err


@pytest.mark.parametrize("command, mapping, terms", [
    ("verify", {"N": 1, "eta": 800}, "3 (800 + 0.26 + 1)"),
    ("verify", {"N": 1, "eta": 1e308}, "3 (1e+308 + 0.26 + 1)"),
    ("spectrum", {"N": 6, "eta": 150}, "72 (150 + 1.56 + 1)"),
    ("verify", {"N": 2, "theta": [[0.1, 0], [400, 0]]}, "8 (0.5 + 800 + 1)"),
    ("spectrum", {"N": 1, "theta": [1e5]}, "3 (0.5 + 2e+05 + 1)"),
])
def test_main_refuses_overflowing_weights(tmp_path, capsys, command, mapping,
                                          terms):
    # the message gives the factor and the eta and theta terms of the bound
    cfile = _write_config(tmp_path, mapping)
    assert main([command, "--config", cfile,
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and "eta and theta overflow" in err
    assert terms in err
    assert not (tmp_path / f"{command}_report.json").exists()


def test_main_finite_report_just_inside_overflow_bound(tmp_path):
    # N = 1: the crossing check's sinh(u + 3 eta) sets the bound
    eta = LOG_FLOAT_MAX / 3 - 2 * 0.13 - 1 - 1e-6
    cfile = _write_config(tmp_path, {"N": 1, "eta": eta})
    main(["verify", "--config", cfile, "--out", str(tmp_path)])
    report = _load_report(tmp_path / "verify_report.json")
    assert all(math.isfinite(c["residual"]) for c in report["checks"])


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


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("mapping, fragment", [
    ({"N": 1, "eta": True}, "eta must be a number, got True"),
    ({"N": 1, "eta": [0.5, False]}, "eta must be a number, got False"),
    ({"N": 1, "eta": math.nan}, "eta must be finite, got nan"),
    ({"N": 1, "eta": [0.5, -math.inf]}, "eta must be finite, got -inf"),
    ({"N": 1, "eta": 10 ** 400}, "eta must be finite"),
    ({"N": 1, "theta": [math.inf]}, "theta[0] must be finite, got inf"),
    ({"N": 1, "theta": [[0.2, math.nan]]}, "theta[0] must be finite, got nan"),
    ({"N": 1, "tolerances": {"QYBE": math.nan}},
     "tolerance 'QYBE' must be finite, got nan"),
    ({"N": 1, "tolerances": {"QYBE": True}},
     "tolerance 'QYBE' must be a number, got True"),
])
def test_main_refuses_booleans_and_non_finite_numbers(tmp_path, capsys, command,
                                                      mapping, fragment):
    # json.load reads true, NaN and Infinity; each is refused by field name
    cfile = _write_config(tmp_path, mapping)
    assert main([command, "--config", cfile,
                 "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err
    assert not (tmp_path / f"{command}_report.json").exists()


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


@pytest.mark.parametrize("command", ["spectrum", "reconstruct", "bae"])
def test_main_typed_failure_is_one_error_line(tmp_path, capsys, monkeypatch,
                                              command):
    # a DegeneracyError inside the command becomes one stderr line and
    # exit 1, with no report
    def degenerate(*args, **kwargs):
        raise DegeneracyError("no random combination produced a clean joint "
                              "eigenbasis in 5 attempts (planted)")

    monkeypatch.setattr(spectrum, "_joint_eigen", degenerate)
    cfile = _write_config(tmp_path, {"N": 2})
    assert main([command, "--config", cfile,
                 "--out", str(tmp_path)]) == EXIT_CHECK_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: no random combination produced a clean "
                          "joint eigenbasis")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / f"{command}_report.json").exists()


def test_nan_eigenvalue_at_the_theta_points_is_one_error_line(tmp_path, capsys,
                                                             monkeypatch):
    # a NaN in t(theta_j) makes lambda(theta_j) NaN; the charge readout
    # refuses it as a typed error, not as a bare ValueError traceback
    exact = spectrum.transfer

    def planted(u, spec):
        t = exact(u, spec)
        if u in spec.theta:
            t[0, 0] = np.nan
        return t

    monkeypatch.setattr(spectrum, "transfer", planted)
    cfile = _write_config(tmp_path, {"N": 2})
    with np.errstate(invalid="ignore"):
        code = main(["spectrum", "--config", cfile, "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["spectrum", "reconstruct"])
@pytest.mark.parametrize("N, shift", [(2, 22), (2, 30.26), (2, 40), (2, 43),
                                      (3, 8), (3, 12), (3, 18.5),
                                      (4, 6), (4, 8), (4, 10)])
def test_theta_walk_toward_overflow_bound_passes_strict(tmp_path, command, N,
                                                        shift):
    # Re theta_N of the default chain walked up to ChainSpec's overflow
    # bound (43.6 at N=2, 19.0 at N=3, 10.3 at N=4): the full-space mix,
    # dominated by its largest member, found no clean joint eigenbasis from a
    # shift of about 22 at N=2; the charge sectors keep every record inside
    # the unchanged gates
    theta = [[0.13 * j, 0.07 * j] for j in range(1, N + 1)]
    theta[-1][0] = shift
    cfile = _write_config(tmp_path, {"N": N, "theta": theta})
    assert main([command, "--strict", "--config", cfile,
                 "--out", str(tmp_path)]) == EXIT_OK
    report = _load_report(tmp_path / f"{command}_report.json")
    assert len(report["records"]) == 3 ** N
    assert report["failures"] == []


@pytest.mark.parametrize("command, N, key", [
    ("spectrum", 1, "max_probe_residual"),
    ("reconstruct", 2, "max_residual"),
])
def test_nan_probe_residual_is_a_failure(tmp_path, monkeypatch, command, N,
                                         key):
    # a NaN at the second probe transfer makes every record's residual NaN
    # there; the worst value and the gate keep it, so each record fails
    exact = cli.transfer
    calls = []

    def nan_second(u, spec):
        t = exact(u, spec)
        calls.append(u)
        if len(calls) == 2:
            t[0, 0] = np.nan
        return t

    monkeypatch.setattr(cli, "transfer", nan_second)
    assert run(command, load_config({"N": N}), out_dir=str(tmp_path)) == EXIT_OK
    report = _load_report(tmp_path / f"{command}_report.json")
    assert len(calls) > 2
    assert all(r[key] is None for r in report["records"])
    assert len(report["failures"]) == 3 ** N
    assert all("residual nan exceeds" in f for f in report["failures"])


@pytest.mark.parametrize("code, knob, warns", [
    ("import numpy, spintorus", "1", True),
    ("import spintorus, numpy", "1", False),
    ("import numpy, spintorus", None, False),
])
def test_thread_knob_warns_when_numpy_came_first(code, knob, warns):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPINTORUS_THREADS", "OMP_NUM_THREADS",
                        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src
    if knob is not None:
        env["SPINTORUS_THREADS"] = knob
    code += "; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run([sys.executable, "-W", "default", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(knob)
    assert ("RuntimeWarning: SPINTORUS_THREADS has no effect"
            in proc.stderr) == warns
    assert proc.stderr.count("RuntimeWarning") == int(warns)


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is the tests' assignment oracle
    code = ("import sys, spintorus, spintorus.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=src, SPINTORUS_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
