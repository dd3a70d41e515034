import dataclasses
import math
import re
import time

import numpy as np
import pytest

import grouse.checks
import grouse.core
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
    rotation_forms_agree,
    similarity_forms_agree,
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
    assert len(report.results) == 26


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


def test_corrupted_step_angle_fails_greedy_optimality(monkeypatch):
    """Negative control: a step that reports 1.5 times the angle it applied must trip the property."""
    rng = np.random.default_rng(0)
    honest = greedy_optimality(rng, 100)
    assert honest.passed
    step = grouse.checks.grouse_step

    def mis_reported(U, x, cfg, oracle=None):
        out = step(U, x, cfg, oracle=oracle)
        return dataclasses.replace(out, theta=1.5 * out.theta)

    monkeypatch.setattr(grouse.checks, "grouse_step", mis_reported)
    rng = np.random.default_rng(0)
    corrupted = greedy_optimality(rng, 100)
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
    def skipped_step(U, x, cfg, oracle=None):
        zero = np.zeros(U.shape[1])
        return StepOutcome(w=zero, p=x * 0, r=x * 0, alpha=0.0, theta=0.0, updated=U, skipped=True)

    monkeypatch.setattr(grouse.checks, "grouse_step", skipped_step)
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


@pytest.mark.parametrize("nan_call", [1, 3])
def test_a_nan_deviation_fails_the_property_in_any_case(monkeypatch, nan_call):
    """Negative control: a NaN measured in the first or a later case is not dropped by the worst-case loop."""
    calls = []
    similarity = grouse.checks.determinant_similarity

    def nan_once(u, ubar):
        calls.append(None)
        return math.nan if len(calls) == nan_call else similarity(u, ubar)

    monkeypatch.setattr(grouse.checks, "determinant_similarity", nan_once)
    result = zeta_determinant_agreement(np.random.default_rng(0), 5)
    assert not result.passed and math.isnan(result.measured), result.line()


def test_reorth_agreement_fails_on_a_non_orthonormal_result_and_without_cases(monkeypatch):
    assert reorth_agreement(np.random.default_rng(0), 12).passed
    empty = reorth_agreement(np.random.default_rng(0), 0)
    assert not empty.passed and empty.measured == math.inf and "no case evaluated" in empty.detail
    # negative control: the right span, orthonormal only to 2e-13
    monkeypatch.setattr(grouse.checks, "reorthonormalize", lambda u: np.linalg.qr(u)[0] * (1.0 + 1e-13))
    assert not reorth_agreement(np.random.default_rng(0), 12).passed


def test_rotation_forms_agree_fails_on_a_wrong_angle_and_without_cases(monkeypatch):
    result = rotation_forms_agree(np.random.default_rng(0), 20)
    assert result.passed, result.line()
    empty = rotation_forms_agree(np.random.default_rng(0), 0)
    assert not empty.passed and empty.measured == math.inf and "no case evaluated" in empty.detail
    # negative control: an update that rotates by 1.01 theta stays orthonormal but is not the step's rotation
    rotate = grouse.core._rotate
    monkeypatch.setattr(grouse.core, "_rotate", lambda U, w, p, r, theta: rotate(U, w, p, r, 1.01 * theta))
    assert not rotation_forms_agree(np.random.default_rng(0), 20).passed


def test_similarity_forms_agree_fails_on_a_perturbed_similarity_and_without_cases(monkeypatch):
    result = similarity_forms_agree(np.random.default_rng(0), 12)
    assert result.passed and result.measured < 1e-13, result.line()
    empty = similarity_forms_agree(np.random.default_rng(0), 0)
    assert not empty.passed and empty.measured == math.inf and "no case evaluated" in empty.detail
    # negative control: a similarity off by 1e-11 relative
    similarity = grouse.checks.determinant_similarity
    monkeypatch.setattr(grouse.checks, "determinant_similarity", lambda u, ubar: similarity(u, ubar) * (1.0 + 1e-11))
    assert not similarity_forms_agree(np.random.default_rng(0), 12).passed


def test_greedy_optimality_fails_without_cases():
    """The property evaluates the cases it is asked for: none evaluated is a failure, not 100 silent draws."""
    empty = greedy_optimality(np.random.default_rng(0), 0)
    assert not empty.passed and empty.measured == math.inf and "no case evaluated" in empty.detail


@pytest.mark.parametrize("seed", [0, 7])
def test_each_property_draws_from_its_own_stream(monkeypatch, seed):
    """A row of ``_PROPERTIES`` whose function is replaced by a stub that draws nothing moves no other line.

    The stub stands for a property taken out; one added at the end moves nothing either.  The sample sizes are cut to
    3, which keeps the 27 runs of ``verify`` fast: the streams are under test, not the sizes.
    """
    monkeypatch.setitem(grouse.checks._COUNTS, "quick", dict.fromkeys(grouse.checks._COUNTS["quick"], 3))
    results = verify(suite="all", seed=seed, intensity="quick").results
    assert [r.suite for r in results] == [suite for suite, _, _ in grouse.checks._PROPERTIES]
    lines = [r.line() for r in results]
    for k, (suite, _, name) in enumerate(grouse.checks._PROPERTIES):
        stub = PropertyResult(name, suite, 0.0, 0.0, True, "stub")
        with monkeypatch.context() as patched:
            patched.setattr(grouse.checks, name, lambda rng, *sizes: stub)
            stubbed = [r.line() for r in verify(suite="all", seed=seed, intensity="quick").results]
        assert stubbed[k] == stub.line()
        assert stubbed[:k] + stubbed[k + 1:] == lines[:k] + lines[k + 1:], name


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    (None, "seed must be an integer, got None"),
])
def test_verify_rejects_a_bad_seed(seed, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify(suite="rates", seed=seed)
