"""End-to-end acceptance checks, one test per criterion.

Each test drives the public suite runner exactly the way the command line
does, pins the advertised tolerance, and prints a single pass/fail line so
a verbose run reads as a checklist.  Tolerances here are contractual: do
not loosen them to make a failing build green.
"""

import json

import numpy as np
import pytest

from dunklkit.intertwine1d import V_k_num, mu_quadrature
from dunklkit.polyexact import RationalPoly, intertwine
from dunklkit.report import report_body_bytes
from dunklkit.rootsys import axis_product, rank_one
from dunklkit.suites import SuiteConfig, run_suite
from fractions import Fraction

LINE_GAMMAS = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)]
LINE_PRESETS = [(rank_one(g), f"z2:{g}") for g in LINE_GAMMAS]
PRODUCT = (axis_product(1, 2), "z2xz2:1,2")
INTEGER_PRESETS = [(rank_one(1), "z2:1"), (rank_one(2), "z2:2")]


def _run(suite, rs, label, **kw):
    return run_suite(SuiteConfig(suite=suite, rs=rs, label=label, **kw))


def _check(report, cid):
    for c in report.checks:
        if c.id == cid:
            return c
    raise AssertionError(f"suite {report.suite!r} produced no check {cid!r}")


def _emit(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label} ({detail})")
    assert ok, f"criterion {num:02d} failed: {label} ({detail})"


def test_criterion_01_exact_transmutation():
    worst = 0.0
    for rs, label in LINE_PRESETS + [PRODUCT]:
        rec = _check(_run("transmutation", rs, label), "transmutation-identity")
        worst = max(worst, rec.residual)
    _emit(1, "transmutation identity exact on monomials through degree 8",
          worst == 0.0, f"residual {worst!r} over {len(LINE_PRESETS) + 1} presets")


def test_criterion_02_normalization():
    exact_ok = all(
        intertwine(rs, RationalPoly.monomial(rs.dimension, (0,) * rs.dimension))
        == RationalPoly.monomial(rs.dimension, (0,) * rs.dimension)
        for rs, _ in LINE_PRESETS + [PRODUCT]
    )
    worst = 0.0
    for g in LINE_GAMMAS:
        _, w = mu_quadrature(float(g), 80)
        worst = max(worst, abs(float(np.sum(w)) - 1.0))
    for rs, label in LINE_PRESETS + [PRODUCT]:
        worst = max(worst, _check(_run("normalization", rs, label), "unit-normalization").residual)
    ok = exact_ok and worst <= 1e-10
    _emit(2, "unit normalization exact and measure mass within 1e-10",
          ok, f"mass residual {worst:.3e}")


def test_criterion_03_cross_engine():
    worst = 0.0
    for rs, label in LINE_PRESETS:
        worst = max(worst, _check(_run("cross-engine", rs, label),
                                  "monomials-numeric-vs-exact").residual)
    xs = np.array([-2.0, -0.7, 0.5, 1.0, 3.0])
    anchor = np.max(np.abs(V_k_num(rank_one(1), lambda t: np.asarray(t) ** 2, xs) - xs ** 2 / 3.0)
                    / np.maximum(1.0, xs ** 2 / 3.0))
    worst = max(worst, float(anchor))
    _emit(3, "quadrature engine matches exact polynomial engine within 1e-10",
          worst <= 1e-10, f"max rel residual {worst:.3e}")


def test_criterion_04_kernel():
    exact_worst = 0.0
    bound_worst = 0.0
    series_worst = 0.0
    laplace_worst = 0.0
    for rs, label in LINE_PRESETS + [PRODUCT]:
        rep = _run("kernel", rs, label, seed=0)
        exact_worst = max(exact_worst, _check(rep, "value-at-zero").residual)
        bound_worst = max(bound_worst, _check(rep, "unit-bound-imaginary").residual)
        series_worst = max(series_worst, _check(rep, "closed-vs-series").residual)
        if rs.dimension == 1:
            laplace_worst = max(laplace_worst, _check(rep, "averaged-exponential").residual)
    ok = (exact_worst == 0.0 and bound_worst <= 1e-12
          and series_worst <= 1e-10 and laplace_worst <= 1e-10)
    _emit(4, "kernel anchors: value at zero, unit bound, series, averaged exponential",
          ok, f"bound {bound_worst:.3e}, series {series_worst:.3e}, laplace {laplace_worst:.3e}")


def test_criterion_05_transform():
    eig_worst = 0.0
    rt_worst = 0.0
    fact_worst = 0.0
    for rs, label in LINE_PRESETS + [PRODUCT]:
        rep = _run("transform", rs, label)
        eig_worst = max(eig_worst, _check(rep, "gaussian-eigenfunction").residual)
        rt_worst = max(rt_worst, _check(rep, "roundtrip").residual)
        if rs.dimension == 1:
            fact_worst = max(fact_worst, _check(rep, "factorization").residual)
    ok = eig_worst <= 1e-8 and rt_worst <= 1e-6 and fact_worst <= 1e-6
    _emit(5, "Gaussian eigenfunction 1e-8, roundtrip and dual factorization 1e-6",
          ok, f"eig {eig_worst:.3e}, roundtrip {rt_worst:.3e}, factor {fact_worst:.3e}")


def test_criterion_06_inversion_paths():
    worst = 0.0
    for rs, label in INTEGER_PRESETS:
        rep = _run("inversion", rs, label)
        for cid in ("inverse-paths-agree", "forward-roundtrip",
                    "dual-inverse-paths-agree", "dual-roundtrip"):
            worst = max(worst, _check(rep, cid).residual)
    _emit(6, "all inverse routes agree and roundtrip within 1e-5",
          worst <= 1e-5, f"max rel residual {worst:.3e}")


def test_criterion_07_representing_distributions():
    worst = 0.0
    for rs, label in INTEGER_PRESETS:
        rep = _run("distributions", rs, label)
        worst = max(worst, _check(rep, "inverse-pairing").residual)
        worst = max(worst, _check(rep, "dual-inverse-pairing").residual)
    _emit(7, "distribution pairings reproduce both inverse operators within 1e-5",
          worst <= 1e-5, f"max rel residual {worst:.3e}")


def test_criterion_08_support():
    local_worst = 0.0
    dual_worst = 0.0
    for rs, label in INTEGER_PRESETS:
        rep = _run("support", rs, label)
        local_worst = max(local_worst, _check(rep, "multiplier-support").residual)
        local_worst = max(local_worst, _check(rep, "difference-multiplier-support").residual)
        dual_worst = max(dual_worst, _check(rep, "dual-image-support").residual)
    ok = local_worst == 0.0 and dual_worst <= 1e-8
    _emit(8, "local operators preserve support exactly, dual image decays outside",
          ok, f"local {local_worst!r}, dual tail {dual_worst:.3e}")


def test_criterion_09_translation_convolution():
    id_worst = 0.0
    path_worst = 0.0
    conv_worst = 0.0
    dist_worst = 0.0
    for rs, label in INTEGER_PRESETS:
        rep = _run("translation", rs, label)
        id_worst = max(id_worst, _check(rep, "translate-at-zero").residual)
        path_worst = max(path_worst, _check(rep, "translation-paths-product").residual)
        path_worst = max(path_worst, _check(rep, "translation-paths-integer").residual)
        conv_worst = max(conv_worst, _check(rep, "convolution-transform-law").residual)
        dist_worst = max(dist_worst, _check(rep, "distribution-convolution-transform").residual)
        dist_worst = max(dist_worst, _check(rep, "density-point-mass-product-law").residual)
    ok = (id_worst <= 1e-8 and path_worst <= 1e-5
          and conv_worst <= 1e-5 and dist_worst <= 1e-5)
    _emit(9, "translation paths, convolution theorem, distributional law",
          ok, f"identity {id_worst:.3e}, paths {path_worst:.3e}, "
              f"conv {conv_worst:.3e}, dist {dist_worst:.3e}")


def test_criterion_10_approximate_identity():
    rep = _run("approx-identity", rs=rank_one(1), label="z2:1")
    decay = _check(rep, "residual-decay")
    smallest = _check(rep, "smallest-eps-residual")
    quad = _check(rep, "quadratic-frequency-bound")
    fitted = float(rep.env["fitted_M"])
    curve = rep.curves["residual-vs-eps"]["rows"]
    ok = (decay.residual <= 0.2 and smallest.residual <= 1e-4
          and quad.passed and np.isfinite(fitted) and len(curve) == 4)
    _emit(10, "mollified residuals shrink at least 5x with a finite quadratic bound",
          ok, f"decay ratio {decay.residual:.3e}, smallest {smallest.residual:.3e}, "
              f"M {fitted:.3g}")


def test_criterion_11_deterministic_reports():
    a = _run("kernel", rank_one(1), "z2:1", seed=7)
    b = _run("kernel", rank_one(1), "z2:1", seed=7)
    same = a.body_bytes() == b.body_bytes()
    parsed_same = (report_body_bytes(json.loads(a.to_json()))
                   == report_body_bytes(json.loads(b.to_json())))
    _emit(11, "repeated runs with one seed give byte-identical report bodies",
          same and parsed_same, f"{len(a.body_bytes())} canonical bytes")
