import math
import time

import numpy as np
import pytest

import grouse.checks
from grouse.checks import (
    PropertyResult,
    SUITES,
    alpha_one_fixed_point,
    greedy_optimality,
    metric_rotation_invariance,
    monotonic_eps_identity,
    monotonic_zeta_identity,
    rank_one_structure,
    reorth_agreement,
    step_equivariance,
    step_orthonormality,
    verify,
    zeta_determinant_agreement,
    zeta_eps_inequalities,
)
from grouse.core import StepOutcome


def test_quick_suite_passes_within_time_budget():
    started = time.perf_counter()
    report = verify(suite="all", seed=0, intensity="quick")
    elapsed = time.perf_counter() - started
    failed = [r.line() for r in report.results if not r.passed]
    assert report.passed, f"failing properties: {failed}"
    assert elapsed < 60.0
    assert len(report.results) == 24


def test_quick_suite_other_seed():
    report = verify(suite="step", seed=20260809, intensity="quick")
    assert report.passed


def test_suite_selection():
    report = verify(suite="metrics", seed=1, intensity="quick")
    assert {r.suite for r in report.results} == {"metrics"}
    with pytest.raises(ValueError):
        verify(suite="nonsense")
    with pytest.raises(ValueError):
        verify(intensity="medium")
    assert SUITES == ("metrics", "step", "data", "rates")


def test_corrupted_step_angle_fails_greedy_optimality():
    """Negative control: mis-scaling the applied angle must trip the property."""
    rng = np.random.default_rng(0)
    honest = greedy_optimality(rng, 100, theta_scale=1.0)
    assert honest.passed
    rng = np.random.default_rng(0)
    corrupted = greedy_optimality(rng, 100, theta_scale=1.5)
    assert not corrupted.passed
    assert corrupted.measured > 0


def test_property_result_line_format():
    result = PropertyResult(name="x", suite="s", measured=1.0, tolerated=2.0,
                            passed=True, detail="note")
    assert result.line().startswith("PASS s/x: measured=")
    assert "note" in result.line()
    bad = PropertyResult(name="x", suite="s", measured=3.0, tolerated=2.0, passed=False)
    assert bad.line().startswith("FAIL ")


def test_report_failure_accounting():
    report = verify(suite="metrics", seed=2, intensity="quick")
    assert report.failed_names == []
    assert report.runtime_s > 0


def test_property_without_evaluated_case_fails(monkeypatch):
    """Negative control: a step property whose every step is skipped checked nothing."""
    def skipped_step(U, x, cfg, oracle=None, nonskipped_steps=0):
        zero = np.zeros(U.shape[1])
        return StepOutcome(w=zero, p=x * 0, r=x * 0, alpha=0.0, theta=0.0, updated=U, skipped=True)

    monkeypatch.setattr(grouse.checks, "grouse_step", skipped_step)
    monkeypatch.setattr(grouse.checks, "project", lambda U, x: (np.zeros(U.shape[1]), x * 0, x * 0))
    for prop in (step_orthonormality, rank_one_structure, monotonic_zeta_identity,
                 monotonic_eps_identity, greedy_optimality, step_equivariance, alpha_one_fixed_point):
        result = prop(np.random.default_rng(0), 20)
        assert not result.passed, result.line()
        assert result.measured == math.inf
        assert "no case evaluated" in result.detail


def test_metric_property_without_pairs_fails():
    for prop in (zeta_determinant_agreement, metric_rotation_invariance, zeta_eps_inequalities):
        result = prop(np.random.default_rng(0), 0)
        assert not result.passed, result.line()
        assert result.measured == math.inf


def test_reorth_agreement_fails_on_a_non_orthonormal_result_and_without_cases(monkeypatch):
    assert reorth_agreement(np.random.default_rng(0), 12).passed
    empty = reorth_agreement(np.random.default_rng(0), 0)
    assert not empty.passed and empty.measured == math.inf and "no case evaluated" in empty.detail
    # negative control: the right span, orthonormal only to 2e-13
    monkeypatch.setattr(grouse.checks, "reorthonormalize", lambda u: np.linalg.qr(u)[0] * (1.0 + 1e-13))
    assert not reorth_agreement(np.random.default_rng(0), 12).passed
