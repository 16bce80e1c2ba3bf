"""One input cycle of the bench's fit and query_hot workloads, run in-process
and checked by the workloads' own oracles: a change the benchmark's
correctness gate would reject fails here first."""

import importlib.util
import pathlib
import sys

import pytest

import wright_poisson

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
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


@pytest.mark.parametrize("name", ["fit", "query_hot"])
def test_one_cycle_passes_the_oracles(workloads, name):
    workload = workloads.WORKLOADS[name](wright_poisson, _SEED)
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
