"""The benchmark's per-layer tracer (bench/layertrace.py) names tautring
functions by string; a rename in the package must not silently break it."""

import importlib
import importlib.util
import pathlib

from tautring import integrate

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def test_layertrace_names_resolve():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for mod, names in layertrace.LAYERS.items():
        module = importlib.import_module("tautring." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (mod, name)
    assert callable(integrate.wk_cache_status)
