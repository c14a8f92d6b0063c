"""Every fenced ``python`` block of README.md runs as written, in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


def test_python_blocks_run():
    assert BLOCKS
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in BLOCKS:
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == 0, f"{code}\n{result.stderr}"
