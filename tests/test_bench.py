"""One input cycle of each bench workload, run through the workload's own
``run`` (in-process, or for ``cli`` one subprocess per command) and checked
by its own oracles: a change the benchmark's correctness gate would reject
fails here first."""

import importlib.util
import pathlib
import sys

import pytest

import wright_poisson
import wright_poisson.cli  # the cli workload compares against cli.main in-process

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_BENCH = _ROOT / "bench"
_SEED = 1


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its siblings by bare name, so each module is
    # registered under that name before the next one is loaded
    for name in ("inputs", "oracles", "workloads"):
        spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


@pytest.mark.parametrize("name", ["fit", "query_hot", "cli"])
def test_one_cycle_passes_the_oracles(workloads, name, tmp_path):
    # the cli workload runs its subprocesses from the repository root and
    # writes its counts file and stderr under a work directory
    paths = (_ROOT, tmp_path) if name == "cli" else ()
    workload = workloads.WORKLOADS[name](wright_poisson, _SEED, *paths)
    workload.setup()
    failures = {}
    for i in range(workload.cycle):
        inp = workload.make_input(i)
        rec = {}
        workload.run(inp, rec)
        kinds = workload.check(inp, rec)
        if kinds:
            failures[i] = kinds
    assert failures == {}
