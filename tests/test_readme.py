"""The README's library example runs as printed."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs_and_aligns():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    gaps = [float(v) for v in
            re.findall(r"1 - cos = (\S+)", proc.stdout)]
    assert len(gaps) == 9
    assert all(0.0 <= g <= 1e-8 for g in gaps), gaps
