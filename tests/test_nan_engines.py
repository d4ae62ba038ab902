"""A NaN from any numeric engine must fail a check or raise a dunklkit error.

Each engine a suite calls is patched, in every dunklkit module that bound
it, to compute its real value and hand back NaN in its place.  One plain
sweep with a call counter on every engine finds the suite x preset cases
that reach each engine; a patched run is the plain run up to the engine's
first call, so it reaches the same cases.  Each of them must then fail a
check or raise a DunklKitError, and no check may pass with a NaN residual.
"""

import math
import sys
from functools import lru_cache

import numpy as np
import pytest

from dunklkit import intertwine1d
from dunklkit.cli import parse_preset
from dunklkit.errors import DunklKitError
from dunklkit.functions import PolyGauss
from dunklkit.polyexact import OperatorConstants
from dunklkit.suites import SuiteConfig, run_suite, suite_names

PRESETS = ["z2:1/2", "z2:1", "z2:2", "z2:7/3", "z2:0", "z2xz2:1,2"]

ENGINES = {
    "kernel_1d": "kernel",
    "bessel_j_normalized": "kernel",
    "_contract": "transform",
    "_kernel_halves": "transform",
    "mu_quadrature": "intertwine1d",
    "fourier_bessel": "transform",
    "kernel_series": "kernel",
    "tV_k_num": "intertwine1d",
    "tV_k_exact": "intertwine1d",
    "_half_line_rule": "rootsys",
    "_tensor_rule": "rootsys",
}

# suite x preset cases an engine must reach: the bump of the approximate
# identity and of translation is transformed by fourier_bessel on every line
LINE_PRESETS = [p for p in PRESETS if "x" not in p]
MUST_REACH = {
    "fourier_bessel": {f"{suite}@{p}" for suite in ("approx-identity", "translation") for p in LINE_PRESETS},
}

# caches whose values hold engine output: each case gets empty ones, so a case
# sees its own patched engine and leaves no NaN behind for later tests
ENGINE_CACHES = ["default_line_plan", "_inverse_of_gauss", "_kept_dual_rule"]


def _nan_like(value):
    if isinstance(value, OperatorConstants):
        return value
    if isinstance(value, PolyGauss):
        return PolyGauss((math.nan,))  # NaN at every point
    if isinstance(value, tuple):
        return tuple(_nan_like(v) for v in value)
    if isinstance(value, np.ndarray):
        return np.full_like(value, np.nan)
    return type(value)(math.nan)


def _rebind(monkeypatch, original, replacement):
    for name, module in list(sys.modules.items()):
        if not name.startswith("dunklkit"):
            continue
        for attr, bound in list(vars(module).items()):
            if bound is original:
                monkeypatch.setattr(module, attr, replacement)


def _fresh_caches(monkeypatch):
    for name in ENGINE_CACHES:
        cached = getattr(intertwine1d, name)
        _rebind(monkeypatch, cached, lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__))


CASES = [(suite, preset) for preset in PRESETS for suite in suite_names()]


def _run(monkeypatch, suite, preset):
    """The report of one case, with empty engine caches; None if it raised a DunklKitError."""
    _fresh_caches(monkeypatch)
    try:
        with np.errstate(all="ignore"):
            return run_suite(SuiteConfig(suite, parse_preset(preset)))
    except DunklKitError:
        return None


@lru_cache(maxsize=None)
def _reached():
    """Every engine's cases, in CASES order, from one plain sweep that counts the calls of them all."""
    calls = dict.fromkeys(ENGINES, 0)
    reached = {engine: [] for engine in ENGINES}
    with pytest.MonkeyPatch.context() as patched:
        for engine, module in ENGINES.items():
            original = getattr(sys.modules[f"dunklkit.{module}"], engine)

            def counted(*args, _engine=engine, _original=original, **kwargs):
                calls[_engine] += 1
                return _original(*args, **kwargs)

            _rebind(patched, original, counted)
        for suite, preset in CASES:
            calls.update(dict.fromkeys(ENGINES, 0))
            _run(patched, suite, preset)
            for engine, count in calls.items():
                if count:
                    reached[engine].append((suite, preset))
    return reached


@pytest.mark.parametrize("engine", ENGINES)
def test_a_nan_engine_fails_every_case_that_reaches_it(engine, monkeypatch):
    reached = _reached()[engine]
    original = getattr(sys.modules[f"dunklkit.{ENGINES[engine]}"], engine)
    calls = []

    def nan_engine(*args, **kwargs):
        calls.append(1)
        return _nan_like(original(*args, **kwargs))

    _rebind(monkeypatch, original, nan_engine)
    for suite, preset in reached:
        calls.clear()
        case = f"{suite}@{preset}"
        report = _run(monkeypatch, suite, preset)
        assert calls, f"{case} reached {engine} in the plain sweep only"
        if report is None:
            continue
        nan_passes = [c.id for c in report.checks if math.isnan(c.residual) and c.passed]
        assert not nan_passes, f"{case}: {nan_passes} pass on NaN"
        assert not report.all_passed, f"{case} passes with a NaN {engine}"
    assert reached, f"no suite reaches {engine}"
    assert MUST_REACH.get(engine, set()) <= {f"{suite}@{preset}" for suite, preset in reached}, engine


def test_a_nan_engine_leaves_no_poisoned_plan(monkeypatch):
    # explicit-grid line plans live in default_line_plan's cache with their
    # kernel halves; a NaN case must build its plans in a cache of its own
    config = SuiteConfig("translation", parse_preset("z2:1"), grid_n=48)
    reached = []
    for engine, module in ENGINES.items():
        original = getattr(sys.modules[f"dunklkit.{module}"], engine)

        def nan_engine(*args, **kwargs):
            reached.append(engine)
            return _nan_like(original(*args, **kwargs))

        with monkeypatch.context() as patched:
            _rebind(patched, original, nan_engine)
            _fresh_caches(patched)
            try:
                with np.errstate(all="ignore"):
                    report = run_suite(config)
            except DunklKitError:
                continue
            assert engine not in reached or not report.all_passed, engine
    assert {"_kernel_halves", "kernel_1d", "_contract", "_half_line_rule"} <= set(reached)
    report = run_suite(config)
    assert report.all_passed
    assert all(math.isfinite(c.residual) for c in report.checks)
    plan = intertwine1d.default_line_plan(config.rs, 48)
    assert plan.kernels and all(np.isfinite(part).all() for halves in plan.kernels.values() for part in halves)
