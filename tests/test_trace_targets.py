"""The benchmark tracer wraps dunklkit functions by name; every name must resolve.

perfbench/tracer.py is loaded read-only from its path.  A function renamed or
deleted in dunklkit fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("_dunklkit_trace_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod: str, attr: str):
    module = importlib.import_module(f"dunklkit.{mod}")
    if "." not in attr:
        return getattr(module, attr)
    cls_name, meth = attr.split(".")
    descriptor = vars(getattr(module, cls_name))[meth]
    return descriptor.__func__ if isinstance(descriptor, staticmethod) else descriptor


def test_every_target_resolves_to_its_own_function(tracer):
    entries = {(mod, attr) for mod, attr, _, _ in tracer.TARGETS}
    missing = []
    functions = {}
    for mod, attr in sorted(entries):
        try:
            fn = _resolve(mod, attr)
        except (AttributeError, KeyError):
            missing.append(f"{mod}.{attr}")
            continue
        assert callable(fn), f"{mod}.{attr}"
        functions.setdefault(id(fn), []).append(f"{mod}.{attr}")
    assert not missing, f"traced names missing from dunklkit: {missing}"
    shared = [names for names in functions.values() if len(names) > 1]
    assert not shared, f"traced names bound to one function, which would be wrapped twice: {shared}"


def test_every_cache_has_cache_info(tracer):
    for mod, name in tracer.CACHES:
        assert hasattr(getattr(importlib.import_module(f"dunklkit.{mod}"), name), "cache_info"), f"{mod}.{name}"
