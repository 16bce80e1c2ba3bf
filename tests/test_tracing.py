"""The bench tracer wraps library names by attribute; installing and
uninstalling it must find every name it patches and put each one back."""

import importlib.util
import pathlib

import wright_poisson
from wright_poisson import distribution, estimation

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_patched_name():
    owners = (distribution, estimation, distribution.WrightPoisson)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_tracing().Tracer(wright_poisson)
    tracer.install()
    try:
        assert tracer._saved
        for owner, attr, original in tracer._saved:
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys()
        assert all(after[attr] is saved[attr] for attr in saved)
