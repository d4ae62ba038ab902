"""The benchmark's workloads: named lists of ``run_suite`` cases.

Every workload isolates one way of using ``kernel.bessel_j_normalized``:

* ``product-transform``: a few huge one-shot kernel matrices on a product
  grid, so Bessel throughput per point and the transform contraction dominate;
* ``line-spectral``: mid-size kernel matrices rebuilt again and again on the
  same line plan through convolution, intertwine1d and transform;
* ``pointwise``: thousands of scalar kernel calls with one or two Bessel
  points each, plus the exact ``Fraction`` algebra of polyexact.

The cases are stock presets of ``scripts/run_all_suites.py``.  Grid sizes are
below the suites' defaults, and ``pointwise`` has one kernel case, so that a
pass of ``line-spectral`` or ``pointwise`` takes 2 to 3.5 seconds and a
55-second run holds 7 to 12 warm and as many cold passes.  Every case passes
at these sizes; translation fails below grid 48.

``product-transform`` can be run by name but is not in ``BENCHMARK.json``.
Its one case fails its roundtrip check below grid 40, where a pass takes 3.5
to 4.5 seconds, so a run of the length the benchmark can afford holds only 4
to 6 warm and as many cold passes.  Its medians then spread over 25% between
runs on a shared two-core machine.

``EXPECTED_IDS`` is the set of check ids each case reported when the
benchmark was defined; a report that drops or adds one fails the output check.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Case(NamedTuple):
    suite: str
    preset: str
    grid_n: Optional[int] = None

    @property
    def id(self) -> str:
        grid = "" if self.grid_n is None else f"#{self.grid_n}"
        return f"{self.suite}@{self.preset}{grid}"


WORKLOADS = {
    "product-transform": [
        Case("transform", "z2xz2:1,2", 40),
    ],
    "line-spectral": [
        Case("translation", "z2:1", 48),
        Case("translation", "z2:7/3", 48),
        Case("inversion", "z2:1", 96),
        Case("approx-identity", "z2:7/3", 96),
    ],
    "pointwise": [
        Case("kernel", "z2:2"),
        Case("transmutation", "z2xz2:1,2"),
        Case("cross-engine", "z2:1"),
        Case("normalization", "z2xz2:1,2"),
        Case("distributions", "z2:1"),
        Case("support", "z2:1"),
    ],
}

EXPECTED_IDS = {
    "transform@z2xz2:1,2#40": [
        "gaussian-eigenfunction",
        "roundtrip",
    ],
    "translation@z2:1#48": [
        "convolution-commutes",
        "convolution-transform-law",
        "density-point-mass-product-law",
        "distribution-convolution-transform",
        "translate-at-zero",
        "translation-commutes-with-operator",
        "translation-paths-integer",
        "translation-paths-product",
    ],
    "translation@z2:7/3#48": [
        "convolution-commutes",
        "convolution-transform-law",
        "density-point-mass-product-law",
        "distribution-convolution-transform",
        "translate-at-zero",
        "translation-commutes-with-operator",
        "translation-paths-product",
    ],
    "inversion@z2:1#96": [
        "dual-inverse-paths-agree",
        "dual-roundtrip",
        "forward-roundtrip",
        "inverse-paths-agree",
    ],
    "approx-identity@z2:7/3#96": [
        "bump-normalization",
        "bump-support",
        "monotone-trend",
        "quadratic-frequency-bound",
        "residual-decay",
        "smallest-eps-residual",
    ],
    "kernel@z2:2": [
        "averaged-exponential",
        "closed-vs-series",
        "exponential-bound-real",
        "group-invariance",
        "sharp-exponential-bound",
        "unit-bound-imaginary",
        "value-at-zero",
    ],
    "transmutation@z2xz2:1,2": [
        "conjugated-multiplier",
        "inverse-roundtrip",
        "transmutation-identity",
        "unit-normalization",
    ],
    "cross-engine@z2:1": [
        "monomials-numeric-vs-exact",
        "parity",
        "second-moment-anchor",
    ],
    "normalization@z2xz2:1,2": [
        "measure-mass",
        "normalization-constant",
        "product-measure-mass",
        "unit-normalization",
    ],
    "distributions@z2:1": [
        "dual-inverse-pairing",
        "inverse-pairing",
        "pairing-linearity",
        "pairing-support",
    ],
    "support@z2:1": [
        "difference-multiplier-support",
        "dual-image-nonzero-inside",
        "dual-image-support",
        "multiplier-support",
    ],
}
