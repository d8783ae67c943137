"""Golden reports: the CLI reports for the default configuration stay
numerically unchanged.

The files under ``tests/golden/`` were written by ``run(command,
load_config({"N": N}))`` for ``verify``, ``spectrum`` and ``reconstruct`` at
N = 1..3, for ``homog`` at N = 2 and for ``bae`` at N = 1, 2. A fresh report
must have the same structure (keys in the same order, lists of the same
length, equal strings, booleans and nulls) and every number within
1e-12 * max(1, |golden|).
"""
import json
from pathlib import Path

import pytest

from spintorus.cli import load_config, run

GOLDEN = Path(__file__).parent / "golden"
CASES = [(cmd, N) for cmd in ("verify", "spectrum", "reconstruct")
         for N in (1, 2, 3)] + [("homog", 2), ("bae", 1), ("bae", 2)]
REL_TOL = 1e-12


def _compare(golden, fresh, path="report"):
    if isinstance(golden, dict):
        assert isinstance(fresh, dict), path
        assert list(fresh) == list(golden), f"{path}: keys differ"
        for key in golden:
            _compare(golden[key], fresh[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(fresh, list) and len(fresh) == len(golden), \
            f"{path}: list length differs"
        for k, (g, f) in enumerate(zip(golden, fresh)):
            _compare(g, f, f"{path}[{k}]")
    elif golden is None or isinstance(golden, (str, bool)):
        assert type(fresh) is type(golden) and fresh == golden, \
            f"{path}: {fresh!r} != {golden!r}"
    else:
        assert isinstance(fresh, (int, float)) and not isinstance(fresh, bool), path
        assert abs(fresh - golden) <= REL_TOL * max(1.0, abs(golden)), \
            f"{path}: {fresh!r} drifted from {golden!r}"


@pytest.mark.parametrize("command, N", CASES)
def test_report_matches_golden(tmp_path, command, N):
    assert run(command, load_config({"N": N}), out_dir=str(tmp_path)) == 0
    fresh = json.loads((tmp_path / f"{command}_report.json").read_text())
    golden = json.loads((GOLDEN / f"{command}_N{N}.json").read_text())
    _compare(golden, fresh)
