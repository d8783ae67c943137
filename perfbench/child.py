"""One workload process of the benchmark (started by ``run.py``).

Imports spintorus, builds the workload's chain (set-up), runs one repetition
of the workload through the CLI or library entry points, optionally under the
span tracer, then checks every output and hashes every report it produced.
The result is written as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

WORKLOADS = ("roots2", "sov5", "dense6")

# Newton starts per roots2 repetition: the first 180 of the 400 the CLI's
# ``bae`` draws at N = 2 from the same seed.
ROOTS_STARTS = 180
ROOTS_STARTS_SMALL = 4


def sizes(workload: str, small: bool) -> dict:
    """Chain sizes of one workload; ``small`` is the self-test variant."""
    if workload == "roots2":
        return {"N": 1 if small else 2,
                "starts": ROOTS_STARTS_SMALL if small else ROOTS_STARTS}
    if workload == "sov5":
        return {"N": 2 if small else 5, "homog_N": 2 if small else 4}
    return {"N": 2 if small else 6}


class Op:
    """Outcome of one CLI command or library call."""

    def __init__(self, name):
        self.name = name
        self.problems = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": not self.problems,
                "problems": self.problems[:5]}


def _digest_arrays(*arrays) -> str:
    import numpy as np
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads: the constructor is the set-up, run() is the timed part, and
# finish() checks outputs and hashes reports after the timer has stopped.
# ---------------------------------------------------------------------------

class Roots2:
    """Library root search: reference spectrum, then the Newton starts."""

    OPS = ("brute_force_spectrum", "solve_bae")

    def __init__(self, spintorus, seed, small, out_dir):
        self.st = spintorus
        self.size = sizes("roots2", small)
        self.config = spintorus.cli.load_config(
            {"N": self.size["N"], "rng_seed": seed})
        self.spec = spintorus.cli.build_spec(self.config)
        self.ops = [Op(name) for name in self.OPS]

    def run(self):
        tol = self.st.cli.SOLVER_TOLERANCES
        self.records = self.st.brute_force_spectrum(
            self.spec, rng_seed=self.config.rng_seed)
        self.result = self.st.solve_bae(
            self.spec, n_seeds=self.size["starts"], rng_seed=self.config.rng_seed,
            accept_tol=tol["bae-accept"], match_tol=tol["bae-match"],
            records=self.records)

    def finish(self):
        import numpy as np
        tol = self.st.cli.SOLVER_TOLERANCES
        spec, records, res = self.spec, self.records, self.result
        self.ops[0].check(len(records) == spec.dim,
                          f"{len(records)} records, expected {spec.dim}")
        lam_scale = max(max(abs(l) for r in records for l in r.lambda_theta), 1.0)
        op = self.ops[1]
        values = []
        for sol_index, rec_index, mismatch in res.matches:
            sol = res.solutions[sol_index]
            resid = float(np.abs(self.st.bae_residuals(sol, spec)).max())
            op.check(resid < tol["bae-accept"],
                     f"solution {sol_index}: residual {resid:.3e}")
            op.check(mismatch <= tol["bae-match"] * lam_scale,
                     f"solution {sol_index}: mismatch {mismatch:.3e}")
            values.extend([x for fam in sol.lambdas for x in fam]
                          + [sol.f1_plus, sol.f1_minus, sol.f2_minus, sol.phi1,
                             rec_index, mismatch])
        op.check(len(res.solutions) == len(res.matches),
                 "unmatched solutions were reported")
        self.digests = {
            "spectrum": _digest_arrays(*[np.array(r.lambda_theta) for r in records]),
            "bae": _digest_arrays(np.array(values, dtype=complex),
                                  np.array(res.seed_residuals),
                                  np.array([res.n_converged, res.n_collided])),
        }
        self.findings = {"starts": res.n_seeds, "converged": res.n_converged,
                         "collided": res.n_collided,
                         "matched_records": sorted(res.matched_records),
                         "records": len(records)}


class Sov5:
    """CLI certification: verify, spectrum, reconstruct at N=5, homog at N=4."""

    OPS = ("verify", "spectrum", "reconstruct", "homog")

    def __init__(self, spintorus, seed, small, out_dir):
        self.st = spintorus
        self.size = sizes("sov5", small)
        self.out_dir = out_dir
        self.paths = {}
        for label, N in (("main", self.size["N"]), ("homog", self.size["homog_N"])):
            mapping = {"N": N, "rng_seed": seed}
            path = os.path.join(out_dir, f"config_{label}.json")
            with open(path, "w") as handle:
                json.dump(mapping, handle)
            self.paths[label] = path
            spintorus.cli.build_spec(spintorus.cli.load_config(mapping))
        self.plan = [(cmd, "homog" if cmd == "homog" else "main")
                     for cmd in self.OPS]
        self.ops = [Op(name) for name in self.OPS]
        self.codes = {}

    def run(self):
        for op, (cmd, cfg) in zip(self.ops, self.plan):
            try:
                self.codes[cmd] = self.st.cli.main(
                    [cmd, "--config", self.paths[cfg], "--out", self.out_dir])
            except Exception:
                self.codes[cmd] = None
                op.check(False, traceback.format_exc(limit=3))

    def finish(self):
        self.digests = {}
        self.findings = {}
        for op, (cmd, cfg) in zip(self.ops, self.plan):
            code = self.codes.get(cmd)
            if code is None:
                continue
            op.check(code == 0, f"exit code {code}")
            path = os.path.join(self.out_dir, f"{cmd}_report.json")
            if not os.path.exists(path):
                op.check(False, "no report written")
                continue
            self.digests[cmd] = _file_digest(path)
            with open(path) as handle:
                report = json.load(handle)
            N = self.size["homog_N"] if cfg == "homog" else self.size["N"]
            if cmd == "verify":
                op.check(report.get("all_passed") is True, "all_passed is not true")
            elif cmd in ("spectrum", "reconstruct"):
                op.check(len(report.get("records", [])) == 3 ** N,
                         f"{len(report.get('records', []))} records, expected {3 ** N}")
                op.check(report.get("failures") == [],
                         f"{len(report.get('failures') or [])} failures reported")
            else:
                fams = report.get("families", [])
                op.check(len(fams) == 3 ** N,
                         f"{len(fams)} families, expected {3 ** N}")
                self.findings["homog_families"] = len(fams)
                self.findings["homog_monotone"] = sum(
                    1 for f in fams if f.get("monotone") is True)


class Dense6:
    """Library reference spectrum at N=6 (dim 729, above the block-cache limit)."""

    OPS = ("brute_force_spectrum",)

    def __init__(self, spintorus, seed, small, out_dir):
        self.st = spintorus
        self.seed = seed
        self.spec = spintorus.default_spec(N=sizes("dense6", small)["N"])
        self.ops = [Op(name) for name in self.OPS]

    def run(self):
        self.records = self.st.brute_force_spectrum(self.spec, rng_seed=self.seed)

    def finish(self):
        import numpy as np
        records, dim = self.records, self.spec.dim
        op = self.ops[0]
        op.check(len(records) == dim, f"{len(records)} records, expected {dim}")
        worst = max((r.residual for r in records), default=float("inf"))
        op.check(worst < 1e-9, f"worst residual {worst:.3e}")
        charges = [sum(1 for r in records if r.z_charge == z) for z in range(3)]
        op.check(charges == [dim // 3] * 3, f"Z3 charge split {charges}")
        self.digests = {"spectrum": _digest_arrays(
            np.array([r.vector for r in records]),
            np.array([r.dual for r in records]),
            np.array([r.mu + r.lambda_theta for r in records]),
            np.array([(r.z_charge, r.residual) for r in records]))}
        self.findings = {"records": len(records), "z_split": charges}


CLASSES = {"roots2": Roots2, "sov5": Sov5, "dense6": Dense6}


def environment(spintorus) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("SPINTORUS_THREADS", "OMP_NUM_THREADS",
                     "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "spintorus_file": spintorus.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import spintorus
    import spintorus.cli
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(spintorus.__file__).startswith(src + os.sep):
        raise SystemExit(f"spintorus imported from {spintorus.__file__}, not from {src}")
    os.makedirs(args.out, exist_ok=True)
    work = CLASSES[args.workload](spintorus, args.seed, args.small, args.out)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "env": environment(spintorus)}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(*Tracer.calibrate())
            tracer.install()
        start = time.perf_counter()
        try:
            work.run()
        finally:
            wall_s = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        work.finish()
        result.update(
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            ops=[op.as_dict() for op in work.ops],
            digests=work.digests,
            findings=work.findings)
        if tracer is not None:
            result.update(spans=tracer.totals(), block_points=len(tracer.block_points),
                          span_s=tracer.root_s, wrapper_s=tracer.wrapper_s(),
                          wrapper_cost_s=[tracer.caller_s, tracer.callee_s])
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
