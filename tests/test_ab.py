"""tools/ab.py: the answers of this tree, against themselves, on the small
design; one subprocess per side, so the records are also reproducible
across interpreters."""

import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_small_design_of_this_tree_matches_itself():
    src = str(_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "ab.py"), src, src, "--design", "small"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "; changed: 0 (0 newly typed errors, 0 other)" in proc.stdout.splitlines()[-1]
