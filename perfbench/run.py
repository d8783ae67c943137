"""Benchmark runner for spintorus.

    python3 perfbench/run.py --workload {roots2,sov5,dense6} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Each repetition of a workload is a fresh child process
(``child.py``) with ``SPINTORUS_THREADS=1``, so module caches start cold, as
they do for a CLI user. The loop is closed with one client: repetitions run
one after another until ``--seconds`` would be exceeded (at least the
workload's minimum count). Extra set-up-only children give ``setup_s``
several samples per run.

Every repetition of a run runs the same inputs, made from ``--seed``.
``--trace 0`` prints the end-to-end metrics: medians of ``wall_s``,
``setup_s`` and ``peak_rss_mb`` over the run's samples.
``--trace 1`` runs one repetition untraced, then the workload's minimum
number of repetitions traced, and prints the per-layer metrics of the traced
ones. Every output is checked and every report is hashed; a digest that
differs from the first run of the same code and seed (kept in
``perfbench/.state``) counts as a failed operation. The last
stdout line is the JSON result; the line before it records the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"

# Every run must end well inside 180 s; children get what is left of this.
RUN_CAP_S = 170.0
# Set-up-only children per run, for a steady setup_s median.
SETUP_PROBES = 6
# Repetitions per run: roots2 (~30 s) and sov5 (~40 s) fill a run with one.
MIN_REPS = {"roots2": 1, "sov5": 1, "dense6": 2}

sys.path.insert(0, str(HERE))
from child import CLASSES, WORKLOADS, sizes  # noqa: E402  (stdlib-only imports)
from layers import layer_metrics  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no sources, a child that cannot start)."""


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    env["SPINTORUS_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class DigestStore:
    """First-seen report digests per (code, workload, size, seed, report)."""

    def __init__(self, path: Path, code: str):
        self.path = path
        self.code = code
        try:
            self.seen = json.loads(path.read_text())
        except (OSError, ValueError):
            self.seen = {}

    def matches(self, key: str, digest: str) -> bool:
        key = f"{self.code}/{key}"
        first = self.seen.setdefault(key, digest)
        return first == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


class Runner:
    def __init__(self, args, work_dir: Path):
        self.args = args
        self.work_dir = work_dir
        self.env = child_env()
        self.started = time.monotonic()
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.store = DigestStore(STATE / "digests.json", code_hash())
        self.child_env_record = None

    def remaining(self) -> float:
        return RUN_CAP_S - (time.monotonic() - self.started)

    def spawn(self, trace: bool = False, setup_only: bool = False):
        """Run one child; returns its result dict, or None if it failed."""
        self.children += 1
        tag = f"c{self.children}"
        result_path = self.work_dir / f"{tag}.json"
        out_dir = self.work_dir / tag
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--out", str(out_dir),
               "--result", str(result_path)]
        cmd += ["--small"] * self.args.small + ["--trace"] * trace
        cmd += ["--setup-only"] * setup_only
        timeout = self.remaining()
        if timeout < 1:
            raise HarnessError("run cap reached before a child could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                                  cwd=ROOT, env=self.env, timeout=timeout,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = None, f"child killed at the run cap ({timeout:.0f} s)"
        shutil.rmtree(out_dir, ignore_errors=True)
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
            self.child_env_record = self.child_env_record or result["env"]
            return result
        tail = (err or "").strip().splitlines()[-3:]
        self.problems.append(f"child {tag} exit {code}: "
                             + " | ".join(tail))
        return None

    def repetition(self, trace: bool = False):
        """Run one repetition and count its operations, failures and report
        digests; returns the child's result, or None if it failed."""
        result = self.spawn(trace=trace)
        n_ops = len(CLASSES[self.args.workload].OPS)
        self.attempted += n_ops
        if result is None:
            self.failed += n_ops
            return None
        for op in result["ops"]:
            if not op["ok"]:
                self.failed += 1
                self.problems.append(f"{op['name']}: "
                                     + "; ".join(op["problems"]))
        size = "small" if self.args.small else "full"
        for report, digest in sorted(result["digests"].items()):
            key = f"{self.args.workload}/{size}/{self.args.seed}/{report}"
            if not self.store.matches(key, digest):
                self.failed += 1
                self.problems.append(f"{report}: report digest differs "
                                     f"from the first run ({'traced' if trace else 'untraced'})")
        return result


def run(args) -> dict:
    if not (SRC / "spintorus" / "__init__.py").is_file():
        raise HarnessError(f"no package sources under {SRC}")
    STATE.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    min_reps = MIN_REPS[args.workload]
    try:
        runner = Runner(args, work_dir)
        setups, plain, traced = [], [], []
        for _ in range(SETUP_PROBES):
            probe = runner.spawn(setup_only=True)
            if probe is None:
                raise HarnessError("set-up probe failed: " + runner.problems[-1])
            setups.append(probe["setup_s"])
        if args.trace:
            for trace in [False] + [True] * min_reps:
                res = runner.repetition(trace)
                if res is None:
                    break
                (traced if trace else plain).append(res)
        else:
            loop_start = time.monotonic()
            while True:
                res = runner.repetition()
                if res is None:
                    break
                plain.append(res)
                setups.append(res["setup_s"])
                elapsed = time.monotonic() - loop_start
                per_rep = elapsed / len(plain)
                if len(plain) >= min_reps and (
                        elapsed + per_rep > args.seconds
                        or per_rep > runner.remaining() - 5):
                    break
        runner.store.save()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not plain or (args.trace and len(traced) < min_reps):
        raise HarnessError("a repetition failed: " + "; ".join(runner.problems[-3:]))
    if args.trace:
        metrics = layer_metrics(traced, plain[0], sizes(args.workload, args.small))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    env = dict(runner.child_env_record or {})
    env.update(git_commit=git_commit(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), cpu_model=cpu_model(),
               src_lines=src_lines(), code_hash=runner.store.code,
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=bool(args.trace), small=args.small,
               wall_s_per_rep=[r["wall_s"] for r in plain],
               traced_wall_s_per_rep=[r["wall_s"] for r in traced],
               setup_s_samples=setups,
               findings=[r["findings"] for r in (traced or plain)],
               problems=runner.problems[:20])
    print(json.dumps({"environment": env}))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=20240229)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="N=1/N=2 variants of each workload (self-test)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
