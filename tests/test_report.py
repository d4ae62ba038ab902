import json

import pytest

from dunklkit.report import CheckRecord, VerificationReport, report_body_bytes
from dunklkit.rootsys import rank_one
from dunklkit.suites import SUITES, SuiteConfig, run_suite


def test_check_record_to_dict_uses_pass_key():
    rec = CheckRecord("anchor-check", "K(x, 0) = 1", 0.0, 1e-10, True)
    d = rec.to_dict()
    assert d["pass"] is True
    assert "passed" not in d
    assert d["id"] == "anchor-check"


def test_add_sets_passed_from_tolerance():
    report = VerificationReport("demo")
    ok = report.add("a", "small residual", 1e-12, 1e-10)
    bad = report.add("b", "large residual", 1e-3, 1e-10)
    assert ok.passed and not bad.passed
    assert report.status == "fail"
    assert not report.all_passed


def test_status_all_pass():
    report = VerificationReport("demo")
    report.add("a", "x", 0.0, 1e-10)
    report.add("b", "y", 1e-11, 1e-10)
    assert report.status == "pass"
    assert report.all_passed


def test_empty_report_passes():
    # vacuous truth: no checks means nothing failed
    assert VerificationReport("demo").status == "pass"


def test_exact_tolerance_boundary_passes():
    report = VerificationReport("demo")
    rec = report.add("edge", "residual equals tol", 1e-10, 1e-10)
    assert rec.passed


@pytest.mark.parametrize("residual", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_residual_fails(residual):
    report = VerificationReport("demo")
    rec = report.add("a", "non-finite residual", residual, 1e-3)
    assert not rec.passed
    assert report.status == "fail"


def test_body_bytes_exclude_timing():
    report = VerificationReport("demo", env={"seed": 0})
    report.add("a", "x", 0.0, 1e-10)
    report.elapsed_ms = 123.4
    other = VerificationReport("demo", env={"seed": 0})
    other.add("a", "x", 0.0, 1e-10)
    other.elapsed_ms = 999.9
    assert report.body_bytes() == other.body_bytes()
    assert report.to_dict()["elapsed_ms"] != other.to_dict()["elapsed_ms"]


def test_body_bytes_canonical_ordering():
    a = VerificationReport("demo", env={"x": 1, "y": 2})
    b = VerificationReport("demo", env={"y": 2, "x": 1})
    assert a.body_bytes() == b.body_bytes()


def test_curves_serialized_when_present():
    report = VerificationReport("demo")
    report.add_curve("profile", ["x", "y"], [(0, 1), (1, 2.5)])
    doc = report.to_dict()
    assert doc["curves"]["profile"]["header"] == ["x", "y"]
    assert doc["curves"]["profile"]["rows"] == [[0.0, 1.0], [1.0, 2.5]]
    bare = VerificationReport("demo")
    assert "curves" not in bare.to_dict()


def test_to_json_roundtrip():
    report = VerificationReport("demo", env={"gamma": "1"})
    report.add("a", "x", 5e-11, 1e-10)
    doc = json.loads(report.to_json())
    assert doc["suite"] == "demo"
    assert doc["status"] == "pass"
    assert doc["checks"][0]["pass"] is True
    assert "elapsed_ms" in doc


def test_report_body_bytes_on_parsed_document():
    report = VerificationReport("demo", env={"seed": 3})
    report.add("a", "x", 0.0, 1e-10)
    report.elapsed_ms = 77.0
    doc = json.loads(report.to_json())
    assert report_body_bytes(doc) == report.body_bytes()


@pytest.mark.parametrize("residual", [float("nan"), float("inf"), float("-inf")])
def test_tolerance_override_keeps_the_finiteness_rule(residual, monkeypatch):
    def suite(rs, grid_n=None, seed=0):
        report = VerificationReport("demo")
        report.add("finite", "finite residual", 1e-3, 1e-6)
        report.add("non-finite", "non-finite residual", residual, 1e-6)
        return report

    monkeypatch.setitem(SUITES, "kernel", suite)
    report = run_suite(SuiteConfig("kernel", rank_one(1), tol=1e-2))
    assert [c.passed for c in report.checks] == [True, False]
    assert report.status == "fail"
