"""Batch entry point: load a chain configuration, run verification suites,
solvers, and reconstructions, and emit machine-readable reports.

Subcommands: ``verify``, ``spectrum``, ``bae``, ``reconstruct``, ``homog``.
Each reads a JSON config describing one chain, writes one JSON report (plus
an optional CSV sidecar for the main table), and exits 0 on success or a
diagnostic run, 1 on a check failure or a typed failure inside a command
(one ``error:`` line, no report), 2 on a config error.  Reports embed
the resolved config and a schema version, contain no timestamps, and print
floats at 17 significant digits, so identical configs and seeds produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .chain import DEFAULT_SEED, ChainSpec, default_theta
from .checks import CHECK_NAMES, _points, run_checks
from .eigenstate import (Reconstructor, _hermitian_angle,
                         homogeneous_limit_study, normalize_gauge)
from .errors import SpinTorusError
from .monodromy import conjugate_vacuum_bra, transfer
from .spectrum import OMEGA, bae_residuals, brute_force_spectrum, solve_bae
from .tensor_core import _operator_scale, relative_residual

SCHEMA_VERSION = "spintorus-report-1"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2

# Tolerance names a config may override, beyond the named verify checks.
SOLVER_TOLERANCES = {
    "spectrum-residual": 1e-9,
    "spectrum-closed-form": 1e-8,
    "bae-accept": 1e-10,
    "bae-match": 1e-7,
    "reconstruct-residual": 1e-8,
    "reconstruct-cos": 1e-8,
    "homog-angle": 1e-4,
}

class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters: chain data plus reporting knobs."""

    n: int = 3
    N: int = 2
    eta: complex = 0.5
    theta: tuple = ()
    rng_seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)
    output_path: str = ""


def _finite(value, name: str) -> float:
    """A JSON number as a float; booleans, NaN, infinities and integers past
    the float range are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # False for NaN
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _as_complex(value, name: str) -> complex:
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    return complex(*(_finite(v, name) for v in parts))


def load_config(mapping) -> RunConfig:
    """Build a RunConfig from a JSON mapping, rejecting unknown fields."""
    if not isinstance(mapping, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}; "
                          f"valid fields: {sorted(known)}")
    default = RunConfig()
    get = lambda name: mapping.get(name, getattr(default, name))
    n, N = get("n"), get("N")
    for label, value in (("n", n), ("N", N)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{label} must be an integer, got {value!r}")
    if n != 3:
        raise ConfigError(f"n = {n} is not supported: the reports cover the "
                          "three-flavor chain, n = 3")
    eta = _as_complex(get("eta"), "eta")
    if "theta" in mapping:
        raw = mapping["theta"]
        if not isinstance(raw, list):
            raise ConfigError("theta must be a list")
        theta = tuple(_as_complex(t, f"theta[{k}]") for k, t in enumerate(raw))
    else:
        theta = default_theta(N)
    rng_seed = get("rng_seed")
    if not isinstance(rng_seed, int) or isinstance(rng_seed, bool):
        raise ConfigError(f"rng_seed must be an integer, got {rng_seed!r}")
    tolerances = get("tolerances")
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a map of name to number")
    valid_tols = set(CHECK_NAMES) | set(SOLVER_TOLERANCES)
    for key, value in tolerances.items():
        if key not in valid_tols:
            raise ConfigError(f"unknown tolerance name {key!r}; "
                              f"valid names: {sorted(valid_tols)}")
        _finite(value, f"tolerance {key!r}")
    output_path = get("output_path")
    if not isinstance(output_path, str):
        raise ConfigError(f"output_path must be a string, got {output_path!r}")
    return RunConfig(n=n, N=N, eta=eta, theta=theta, rng_seed=rng_seed,
                     tolerances={k: float(v) for k, v in tolerances.items()},
                     output_path=output_path)


def build_spec(config: RunConfig) -> ChainSpec:
    try:
        return ChainSpec(n=config.n, N=config.N, eta=config.eta,
                         theta=config.theta)
    except SpinTorusError as exc:
        raise ConfigError(str(exc)) from exc


def _tol(config: RunConfig, name: str) -> float:
    return float(config.tolerances.get(name, SOLVER_TOLERANCES[name]))


# ---------------------------------------------------------------------------
# Deterministic JSON rendering
# ---------------------------------------------------------------------------

def _scalar(obj) -> str:
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, complex):
        return f"[{_scalar(obj.real)}, {_scalar(obj.imag)}]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def render_json(obj, indent: int = 0) -> str:
    """Render to JSON text with floats at 17 significant digits.

    The built-in encoder offers no hook for float formatting, so the report
    writer walks the structure itself; insertion order is preserved,
    non-finite floats become null, keeping the output valid strict JSON,
    and a complex number becomes the pair [re, im].  A list of plain
    numbers stays on one line; any other list puts one item per line.
    """
    if not isinstance(obj, (list, tuple, dict)):
        return _scalar(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    pad = "  " * indent
    inner_pad = pad + "  "
    if isinstance(obj, dict):
        body = ",\n".join(inner_pad + json.dumps(str(k)) + ": "
                          + render_json(v, indent + 1) for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    if all(isinstance(v, (int, float)) or v is None for v in obj):
        return "[" + ", ".join(map(_scalar, obj)) + "]"
    if all(isinstance(v, complex) and math.isfinite(v.real)
           and math.isfinite(v.imag) for v in obj):
        # "%.17g" writes what _scalar does, without its per-part dispatch
        body = (",\n" + inner_pad).join(["[%.17g, %.17g]" % (v.real, v.imag)
                                          for v in obj])
    else:
        body = (",\n" + inner_pad).join(render_json(v, indent + 1) for v in obj)
    return "[\n" + inner_pad + body + "\n" + pad + "]"


def config_block(config: RunConfig) -> dict:
    return {
        "n": config.n,
        "N": config.N,
        "eta": config.eta,
        "theta": config.theta,
        "rng_seed": config.rng_seed,
        "tolerances": {k: float(v) for k, v in sorted(config.tolerances.items())},
        "output_path": config.output_path or None,
    }


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _probe_transfers(config: RunConfig, spec: ChainSpec, stream: int,
                     count: int):
    """(t(u), scale) at ``count`` random points u drawn from the run's random
    stream number ``stream``, each built as the caller reaches it."""
    rng = np.random.default_rng((config.rng_seed, stream))
    ts = (transfer(u, spec) for u in _points(rng, count))
    return ((t, _operator_scale(t)) for t in ts)


def cmd_verify(config: RunConfig, spec: ChainSpec):
    results = run_checks(spec, tolerances=config.tolerances,
                         rng_seed=config.rng_seed)
    failures = [f"check {r.name}: residual {r.residual:.3e} exceeds "
                f"tolerance {r.tolerance:.3e}" for r in results if not r.passed]
    body = {
        "checks": [
            {"name": r.name, "residual": r.residual, "tolerance": r.tolerance,
             "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": not failures,
    }
    header = ["name", "residual", "tolerance", "passed"]
    rows = [[r.name, r.residual, r.tolerance, r.passed] for r in results]
    return body, failures, header, rows


def cmd_spectrum(config: RunConfig, spec: ChainSpec):
    records = brute_force_spectrum(spec, rng_seed=config.rng_seed)
    vecs = np.column_stack([rec.vector for rec in records])
    duals = np.array([rec.dual for rec in records])
    # each record's worst residual over the probes, one product per probe;
    # np.max keeps a NaN wherever it sits
    probe_resid = []
    for t, scale in _probe_transfers(config, spec, 101, 3):
        tv = t @ vecs
        probe_resid.append(relative_residual(
            tv, (duals * tv.T).sum(axis=1), vecs, scale))
    worst = np.max(probe_resid, axis=0)
    gated = np.maximum(worst, [rec.residual for rec in records])
    tol = _tol(config, "spectrum-residual")
    cf_tol = _tol(config, "spectrum-closed-form")
    failures = []
    out = []
    sh = complex(np.sinh(spec.eta))
    for i, rec in enumerate(records):
        row = {
            "index": i,
            "z_charge": rec.z_charge,
            "residual": rec.residual,
            "max_probe_residual": worst[i],
            "lambda_at_theta": rec.lambda_theta,
            "probe_eigenvalues": rec.mu,
        }
        if spec.N == 1 and spec.n == 3:
            dev = min(abs(rec.lambda_theta[0] / sh - OMEGA ** k)
                      for k in range(3))
            row["closed_form_deviation"] = dev
            if dev > cf_tol:
                failures.append(f"record {i}: single-site eigenvalue off the "
                                f"closed form by {dev:.3e}")
        out.append(row)
        if not gated[i] <= tol:
            failures.append(f"record {i}: transfer residual "
                            f"{gated[i]:.3e} exceeds {tol:.3e}")
    body = {"records": out}
    header = ["index", "z_charge", "residual", "max_probe_residual"]
    rows = [[r["index"], r["z_charge"], r["residual"], r["max_probe_residual"]]
            for r in out]
    return body, failures, header, rows


def cmd_bae(config: RunConfig, spec: ChainSpec):
    if spec.N > 2:
        raise ConfigError("the root search covers N <= 2 chains only")
    records = brute_force_spectrum(spec, rng_seed=config.rng_seed)
    n_seeds = 150 if spec.N == 1 else 400
    result = solve_bae(spec, n_seeds=n_seeds, rng_seed=config.rng_seed,
                       accept_tol=_tol(config, "bae-accept"),
                       match_tol=_tol(config, "bae-match"), records=records)
    match_by_sol = {s: (r, mis) for s, r, mis in result.matches}
    sols = []
    for k, sol in enumerate(result.solutions):
        matched, mismatch = match_by_sol.get(k, (None, None))
        resid = np.abs(bae_residuals(sol, spec)).max()
        sols.append({
            "index": k,
            "roots": sol.lambdas,
            "f1_plus": sol.f1_plus,
            "f1_minus": sol.f1_minus,
            "f2_minus": sol.f2_minus,
            "phi1": sol.phi1,
            "max_residual": resid,
            "matched_record": matched,
            "match_mismatch": mismatch,
            "z_charge": None if matched is None else records[matched].z_charge,
        })
    matched_z = sorted({records[r].z_charge for r in result.matched_records})
    body = {
        "n_seeds": result.n_seeds,
        "n_converged": result.n_converged,
        "n_collided": result.n_collided,
        "solutions": sols,
        "coverage": result.coverage,
        "matched_records": sorted(result.matched_records),
        "matched_z_sectors": matched_z,
        "record_z_charges": [rec.z_charge for rec in records],
    }
    failures = []
    if not sols:
        failures.append("no converged root set matched the reference spectrum")
    header = ["index", "max_residual", "matched_record", "z_charge"]
    rows = [[s["index"], s["max_residual"], s["matched_record"], s["z_charge"]]
            for s in sols]
    return body, failures, header, rows


def cmd_reconstruct(config: RunConfig, spec: ChainSpec):
    records = brute_force_spectrum(spec, rng_seed=config.rng_seed)
    rebuild = Reconstructor(spec)
    bar_bra = conjugate_vacuum_bra(spec)
    gauges = []
    states = np.empty((spec.dim, len(records)), dtype=complex)
    for i, rec in enumerate(records):
        psi_bar0 = complex(bar_bra @ rec.vector)
        gauge = "matched"
        if abs(psi_bar0) < 1e-12 * float(np.abs(rec.vector).max()):
            psi_bar0, gauge = 1.0, "unit"
        gauges.append(gauge)
        states[:, i] = normalize_gauge(rebuild.state(rec.lambda_theta, psi_bar0))
    # each rebuilt state's worst absolute residual over the probes, against
    # its record's eigenvalue: two products per probe, NaN kept by np.max
    vecs = np.column_stack([rec.vector for rec in records])
    duals = np.array([rec.dual for rec in records])
    probe_resid = []
    for t, scale in _probe_transfers(config, spec, 103, 5):
        lam = (duals * (t @ vecs).T).sum(axis=1)
        gap = t @ states
        gap -= lam * states
        probe_resid.append(np.abs(gap).max(axis=0) / scale)
    worst = np.max(probe_resid, axis=0)
    del vecs, duals, gap
    tol_resid = _tol(config, "reconstruct-residual")
    tol_cos = _tol(config, "reconstruct-cos")
    failures = []
    out = []
    for i, (rec, gauge, unit) in enumerate(zip(records, gauges, states.T)):
        one_minus_cos = 2.0 * math.sin(_hermitian_angle(rec.vector, unit) / 2) ** 2
        out.append({
            "index": i,
            "z_charge": rec.z_charge,
            "gauge": gauge,
            "one_minus_cos": one_minus_cos,
            "max_residual": worst[i],
            "lambda_at_theta": rec.lambda_theta,
            "state": unit.tolist(),
        })
        if one_minus_cos > tol_cos:
            failures.append(f"record {i}: reconstructed state misaligned by "
                            f"1 - cos = {one_minus_cos:.3e}")
        if not worst[i] <= tol_resid:
            failures.append(f"record {i}: reconstructed-state transfer "
                            f"residual {worst[i]:.3e} exceeds {tol_resid:.3e}")
    body = {"records": out}
    header = ["index", "z_charge", "one_minus_cos", "max_residual"]
    rows = [[r["index"], r["z_charge"], r["one_minus_cos"], r["max_residual"]]
            for r in out]
    return body, failures, header, rows


def cmd_homog(config: RunConfig, spec: ChainSpec):
    study = homogeneous_limit_study(spec.theta, spec.eta)
    angle_tol = _tol(config, "homog-angle")
    failures = []
    fams = []
    for fam in study.families:
        fams.append({
            "index": fam.hom_index,
            "z_charge": fam.z_charge,
            "lambda0": fam.lam0,
            "dlambda0": fam.dlam0,
            "distances": fam.distances,
            "monotone": fam.monotone,
            "angle_closed_form": fam.angle_closed_form,
            "angle_eigenvector": fam.angle_eigenvector,
            "degenerate": fam.degenerate,
        })
        if not fam.monotone:
            failures.append(f"family {fam.hom_index}: Cauchy distances are "
                            "not monotonically decreasing")
        elif fam.angle_closed_form > angle_tol:     # False for NaN, N != 2
            failures.append(f"family {fam.hom_index}: closed-form angle "
                            f"{fam.angle_closed_form:.3e} exceeds {angle_tol:.3e}")
    body = {
        "eps": study.eps,
        "direction": spec.theta,
        "families": fams,
        "n_monotone": study.n_converged,
    }
    header = ["index", "z_charge", "monotone", "last_distance",
              "angle_closed_form", "angle_eigenvector"]
    rows = [[f["index"], f["z_charge"], f["monotone"],
             f["distances"][-1] if f["distances"] else None,
             f["angle_closed_form"], f["angle_eigenvector"]] for f in fams]
    return body, failures, header, rows


COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "bae": cmd_bae,
    "reconstruct": cmd_reconstruct,
    "homog": cmd_homog,
}


# ---------------------------------------------------------------------------
# Report files and entry point
# ---------------------------------------------------------------------------

def _resolve_output(command: str, config: RunConfig, out_dir) -> str:
    """The report's path, under ``out_dir`` unless absolute; its directory
    is made before the command runs, and a failure is a config error."""
    name = config.output_path or f"{command}_report.json"
    if out_dir and not os.path.isabs(name):
        name = os.path.join(out_dir, name)
    try:
        os.makedirs(os.path.dirname(name) or os.curdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create report directory: {exc}") from exc
    if os.path.isdir(name):
        raise ConfigError(f"report path {name!r} is a directory")
    return name


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_scalar(v) if not isinstance(v, str) else v
                              for v in row))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def run(command: str, config: RunConfig, strict: bool = False,
        csv: bool = False, out_dir=None) -> int:
    """Execute one subcommand and write its report; returns the exit code."""
    spec = build_spec(config)
    path = _resolve_output(command, config, out_dir)
    body, failures, header, rows = COMMANDS[command](config, spec)
    report = {"schema_version": SCHEMA_VERSION, "command": command,
              "config": config_block(config)}
    report.update(body)
    report["failures"] = failures
    with open(path, "w", newline="") as handle:
        handle.write(render_json(report) + "\n")
    print(f"wrote {path}")
    if csv:
        csv_path = (path[:-5] if path.endswith(".json") else path) + ".csv"
        _write_csv(csv_path, header, rows)
        print(f"wrote {csv_path}")
    for line in failures:
        print(f"FAIL {line}")
    if command == "verify":
        return EXIT_CHECK_FAILURE if failures else EXIT_OK
    if strict and failures:
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spintorus",
        description="Verification and solver reports for the antiperiodic "
                    "trigonometric three-flavor chain.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("verify", "run the named algebraic check suite"),
            ("spectrum", "reference spectrum by simultaneous diagonalization"),
            ("bae", "multi-start root search for the eigenvalue parametrization"),
            ("reconstruct", "rebuild eigenvectors from eigenvalue data"),
            ("homog", "shrink inhomogeneities toward the uniform chain")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True,
                         help="path to a JSON run configuration")
        cmd.add_argument("--strict", action="store_true",
                         help="exit 1 when a diagnostic run reports failures")
        cmd.add_argument("--csv", action="store_true",
                         help="also write the main table as CSV")
        cmd.add_argument("--out", default=None,
                         help="directory for report files")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as handle:
            mapping = json.load(handle)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} is not valid JSON: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        config = load_config(mapping)
        return run(args.command, config, strict=args.strict, csv=args.csv,
                   out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SpinTorusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
