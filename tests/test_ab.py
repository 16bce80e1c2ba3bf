"""tools/ab.py: the answers of this tree, against themselves, on the small
design; one subprocess per side, so the records are also reproducible
across interpreters; that it writes each id once. And the format of its
timing report."""

import json
import os
import pathlib
import re
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


def test_small_design_writes_each_id_once():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "ab.py"), "--emit", "small"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    ids = [json.loads(line)["id"] for line in proc.stdout.splitlines()[1:]]
    assert len(ids) == len(set(ids)) == 1191


def test_timing_of_this_tree_against_itself_prints_every_figure():
    # one short round checks the format only; a speed claim needs ten or more
    src = str(_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "ab.py"), src, src, "--time", "--rounds", "1",
         "--seconds", "0.01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("timing: 1 rounds of one subprocess per tree")
    number = r"\d+(\.\d+)?"
    cell = rf"{number} \[{number}, {number}\]"
    figures = [f"{name} {figure} \\({unit}, median \\[quartiles\\]\\): parent {cell}; change {cell};"
               rf" change faster in [01] of 1 rounds"
               for name in ("fit", "query_hot")
               for figure, unit in (("throughput_ops_s", "1/s"), ("latency_p50_us", "us"))]
    assert len(lines) == 1 + len(figures)
    for line, pattern in zip(lines[1:], figures):
        assert re.fullmatch(pattern, line), line
