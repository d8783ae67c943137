"""Batch entry point: load a chain configuration, run verification suites,
solvers, and reconstructions, and emit machine-readable reports.

Subcommands: ``verify``, ``spectrum``, ``bae``, ``reconstruct``, ``homog``.
Each reads a JSON config describing one chain, writes one JSON report (plus
an optional CSV sidecar for the main table), and exits 0 on success or a
diagnostic run, 1 on a check failure, 2 on a config error.  Reports embed
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
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, default_theta
from .checks import CHECK_NAMES, run_checks
from .eigenstate import (homogeneous_limit_study, normalize_gauge,
                         reconstruct)
from .errors import SpinTorusError
from .monodromy import conjugate_vacuum_bra, transfer
from .spectrum import (OMEGA, bae_residuals, brute_force_spectrum,
                       eigen_residual_at, eigenvalue_at, solve_bae)

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

DEFAULT_EPS_SEQUENCE = (0.1, 0.05, 0.025, 0.0125)


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters: chain data plus reporting knobs."""

    n: int = 3
    N: int = 2
    eta: complex = 0.5
    theta: tuple = ()
    rng_seed: int = 20240229
    tolerances: dict = field(default_factory=dict)
    output_path: str = ""


def _as_complex(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return complex(value[0], value[1])
    raise ConfigError(f"{name} must be a number or a [re, im] pair, got {value!r}")


def load_config(mapping) -> RunConfig:
    """Build a RunConfig from a JSON mapping, rejecting unknown fields."""
    if not isinstance(mapping, dict):
        raise ConfigError("config must be a JSON object")
    known = {"n", "N", "eta", "theta", "rng_seed", "tolerances", "output_path"}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}; "
                          f"valid fields: {sorted(known)}")
    n = mapping.get("n", 3)
    N = mapping.get("N", 2)
    for label, value in (("n", n), ("N", N)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{label} must be an integer, got {value!r}")
    if n != 3:
        raise ConfigError(f"n = {n} is not supported: the reports cover the "
                          "three-flavor chain, n = 3")
    eta = _as_complex(mapping.get("eta", 0.5), "eta")
    if "theta" in mapping:
        raw = mapping["theta"]
        if not isinstance(raw, list):
            raise ConfigError("theta must be a list")
        theta = tuple(_as_complex(t, f"theta[{k}]") for k, t in enumerate(raw))
    else:
        theta = default_theta(N)
    rng_seed = mapping.get("rng_seed", 20240229)
    if not isinstance(rng_seed, int) or isinstance(rng_seed, bool):
        raise ConfigError(f"rng_seed must be an integer, got {rng_seed!r}")
    tolerances = mapping.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a map of name to number")
    valid_tols = set(CHECK_NAMES) | set(SOLVER_TOLERANCES)
    for key, value in tolerances.items():
        if key not in valid_tols:
            raise ConfigError(f"unknown tolerance name {key!r}; "
                              f"valid names: {sorted(valid_tols)}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}")
    output_path = mapping.get("output_path", "")
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

def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def render_json(obj, indent: int = 0) -> str:
    """Render to JSON text with floats at 17 significant digits.

    The built-in encoder offers no hook for float formatting, so the report
    writer walks the structure itself; insertion order is preserved and
    non-finite floats become null, keeping the output valid strict JSON.
    """
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(isinstance(v, (bool, int, float)) or v is None for v in items):
            return "[" + ", ".join(_scalar(v) for v in items) + "]"
        body = ",\n".join(inner_pad + render_json(v, indent + 1) for v in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(inner_pad + json.dumps(str(k)) + ": "
                          + render_json(v, indent + 1) for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    return _scalar(obj)


def config_block(config: RunConfig) -> dict:
    return {
        "n": config.n,
        "N": config.N,
        "eta": _c(config.eta),
        "theta": [_c(t) for t in config.theta],
        "rng_seed": config.rng_seed,
        "tolerances": {k: float(v) for k, v in sorted(config.tolerances.items())},
        "output_path": config.output_path or None,
    }


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

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
    rng = np.random.default_rng((config.rng_seed, 101))
    probes = [complex(a, b) for a, b in
              zip(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))]
    tol = _tol(config, "spectrum-residual")
    cf_tol = _tol(config, "spectrum-closed-form")
    failures = []
    out = []
    sh = complex(np.sinh(spec.eta))
    for i, rec in enumerate(records):
        worst = max(eigen_residual_at(rec, u, spec) for u in probes)
        row = {
            "index": i,
            "z_charge": rec.z_charge,
            "residual": float(rec.residual),
            "max_probe_residual": float(worst),
            "lambda_at_theta": [_c(l) for l in rec.lambda_theta],
            "probe_eigenvalues": [_c(m) for m in rec.mu],
        }
        if spec.N == 1 and spec.n == 3:
            dev = min(abs(rec.lambda_theta[0] / sh - OMEGA ** k)
                      for k in range(3))
            row["closed_form_deviation"] = float(dev)
            if dev > cf_tol:
                failures.append(f"record {i}: single-site eigenvalue off the "
                                f"closed form by {dev:.3e}")
        out.append(row)
        if max(rec.residual, worst) > tol:
            failures.append(f"record {i}: transfer residual "
                            f"{max(rec.residual, worst):.3e} exceeds {tol:.3e}")
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
        resid = float(np.abs(bae_residuals(sol, spec)).max())
        sols.append({
            "index": k,
            "roots": [[_c(x) for x in fam] for fam in sol.lambdas],
            "f1_plus": _c(sol.f1_plus),
            "f1_minus": _c(sol.f1_minus),
            "f2_minus": _c(sol.f2_minus),
            "phi1": _c(sol.phi1),
            "max_residual": resid,
            "matched_record": matched,
            "match_mismatch": None if mismatch is None else float(mismatch),
            "z_charge": None if matched is None else records[matched].z_charge,
        })
    matched_z = sorted({records[r].z_charge for r in result.matched_records})
    body = {
        "n_seeds": result.n_seeds,
        "n_converged": result.n_converged,
        "n_collided": result.n_collided,
        "solutions": sols,
        "coverage": float(result.coverage),
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
    rng = np.random.default_rng((config.rng_seed, 103))
    probes = [complex(a, b) for a, b in
              zip(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))]
    bar_bra = conjugate_vacuum_bra(spec)
    tol_resid = _tol(config, "reconstruct-residual")
    tol_cos = _tol(config, "reconstruct-cos")
    failures = []
    out = []
    for i, rec in enumerate(records):
        psi_bar0 = complex(bar_bra @ rec.vector)
        gauge = "matched"
        if abs(psi_bar0) < 1e-12 * float(np.abs(rec.vector).max()):
            psi_bar0, gauge = 1.0, "unit"
        lam_map = {j + 1: rec.lambda_theta[j] for j in range(spec.N)}
        state = reconstruct(lam_map, psi_bar0, spec)
        unit = normalize_gauge(state)
        overlap = abs(np.vdot(rec.vector, unit)) / np.linalg.norm(rec.vector)
        one_minus_cos = float(1.0 - min(1.0, overlap))
        worst = 0.0
        for u in probes:
            t = transfer(u, spec)
            lam = eigenvalue_at(rec, u, spec)
            scale = max(float(np.abs(t).max()), 1.0)
            worst = max(worst, float(np.abs(t @ unit - lam * unit).max()) / scale)
        out.append({
            "index": i,
            "z_charge": rec.z_charge,
            "gauge": gauge,
            "one_minus_cos": one_minus_cos,
            "max_residual": float(worst),
            "lambda_at_theta": [_c(l) for l in rec.lambda_theta],
            "state": [_c(z) for z in unit],
        })
        if one_minus_cos > tol_cos:
            failures.append(f"record {i}: reconstructed state misaligned by "
                            f"1 - cos = {one_minus_cos:.3e}")
        if worst > tol_resid:
            failures.append(f"record {i}: reconstructed-state transfer "
                            f"residual {worst:.3e} exceeds {tol_resid:.3e}")
    body = {"records": out}
    header = ["index", "z_charge", "one_minus_cos", "max_residual"]
    rows = [[r["index"], r["z_charge"], r["one_minus_cos"], r["max_residual"]]
            for r in out]
    return body, failures, header, rows


def cmd_homog(config: RunConfig, spec: ChainSpec):
    study = homogeneous_limit_study(spec.theta, DEFAULT_EPS_SEQUENCE,
                                    spec.eta, n=spec.n)
    angle_tol = _tol(config, "homog-angle")
    failures = []
    fams = []
    for fam in study.families:
        angle_cf = fam.angle_closed_form
        fams.append({
            "index": fam.hom_index,
            "z_charge": fam.z_charge,
            "lambda0": _c(fam.lam0),
            "dlambda0": _c(fam.dlam0),
            "distances": [float(d) for d in fam.distances],
            "monotone": fam.monotone,
            "angle_closed_form": None if math.isnan(angle_cf) else float(angle_cf),
            "angle_eigenvector": float(fam.angle_eigenvector),
            "degenerate": fam.degenerate,
        })
        if not fam.monotone:
            failures.append(f"family {fam.hom_index}: Cauchy distances are "
                            "not monotonically decreasing")
        elif not math.isnan(angle_cf) and angle_cf > angle_tol:
            failures.append(f"family {fam.hom_index}: closed-form angle "
                            f"{angle_cf:.3e} exceeds {angle_tol:.3e}")
    body = {
        "eps": [float(e) for e in study.eps],
        "direction": [_c(t) for t in spec.theta],
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
    name = config.output_path or f"{command}_report.json"
    if out_dir and not os.path.isabs(name):
        os.makedirs(out_dir, exist_ok=True)
        name = os.path.join(out_dir, name)
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
    body, failures, header, rows = COMMANDS[command](config, spec)
    report = {"schema_version": SCHEMA_VERSION, "command": command,
              "config": config_block(config)}
    report.update(body)
    report["failures"] = failures
    path = _resolve_output(command, config, out_dir)
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


if __name__ == "__main__":
    sys.exit(main())
