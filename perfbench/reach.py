"""One-shot reach table: every CLI subcommand on the default config at N = 1..6.

    python3 perfbench/reach.py

Each command runs as ``python -m spintorus.cli <cmd>`` in its own process
with ``SPINTORUS_THREADS=1`` and the same wall-clock cap, ``CAP_S``. A cell
reads as the seconds taken (process start to exit), ``refused`` (exit 2,
e.g. ``bae`` at N >= 3), ``over_budget`` (killed at the cap) or
``exit <code>``. Only the child processes this script started are stopped.
The table is printed and written to ``perfbench/.state/reach.json``. Not a
benchmark workload and not gated.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import ROOT, SRC, STATE, child_env

COMMANDS = ("verify", "spectrum", "bae", "reconstruct", "homog")
SIZES = range(1, 7)
CAP_S = 90.0


def main() -> int:
    if not (SRC / "spintorus" / "__init__.py").is_file():
        print(f"reach: no package sources under {SRC}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    table = {}
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        for cmd in COMMANDS:
            for N in SIZES:
                cell = table.setdefault(cmd, {})
                cfg = Path(tmp) / f"config_{N}.json"
                cfg.write_text(json.dumps({"N": N}))
                start = time.monotonic()
                try:
                    proc = subprocess.run(
                        [sys.executable, "-m", "spintorus.cli", cmd, "--config",
                         str(cfg), "--out", tmp], cwd=ROOT, env=child_env(),
                        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL, timeout=CAP_S)
                    seconds = time.monotonic() - start
                    if proc.returncode == 0:
                        cell[str(N)] = {"status": "ok", "s": seconds}
                    elif proc.returncode == 2:
                        cell[str(N)] = {"status": "refused"}
                    else:
                        cell[str(N)] = {"status": f"exit {proc.returncode}",
                                        "s": seconds}
                except subprocess.TimeoutExpired:
                    cell[str(N)] = {"status": "over_budget", "cap_s": CAP_S}
                print(cmd, N, cell[str(N)], flush=True)
    (STATE / "reach.json").write_text(
        json.dumps({"cap_s": CAP_S, "table": table}, indent=1))
    print("| command | " + " | ".join(f"N={N}" for N in SIZES) + " |")
    print("| --- |" + " --- |" * len(SIZES))
    for cmd, row in table.items():
        cells = [f"{c['s']:.1f} s" if c["status"] == "ok" else c["status"]
                 for c in (row[str(N)] for N in SIZES)]
        print(f"| {cmd} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
