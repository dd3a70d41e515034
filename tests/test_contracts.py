"""The argument contract of the public functions: a bad argument raises a ``ValueError`` that names it.

One row per bad input: the function, the arguments and the name the message must hold.  Each row is a value the
function once took without a word, or rejected with another exception (``TypeError``, ``AttributeError``,
``ZeroDivisionError``, ``LinAlgError``), a numpy ``ValueError`` that named no argument, or a ``RuntimeWarning`` or
``ComplexWarning``.
"""

import math
import re

import numpy as np
import pytest

from grouse.bounds import BoundParams, expected_eps_rate_bound, expected_zeta_rate_bound, mc_eps_rate_check
from grouse.core import (OracleInfo, StepConfig, StepMode, Tracker, compute_alpha, compute_theta, grouse_step,
                         rotate_update)
from grouse.data import draw_batch, make_planted
from grouse.harness import ExperimentConfig, run_trajectory
from grouse.subspaces import (basis_with_angles, basis_with_similarity, check_orthonormal, determinant_similarity,
                              expected_initial_similarity, expected_initial_similarity_exact, frobenius_discrepancy,
                              metric_sample, principal_angles, random_orthonormal, reorthonormalize)

GREEDY = StepConfig()
PRACTICAL = StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=0.1)
ORACLE = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=0.1)
INFO = OracleInfo(v_perp_norm_sq=0.5)
PARAMS = BoundParams(n=20, d=2)


def _bases():
    """A (20, 2) basis with a NaN entry, and a finite basis of the same shape."""
    rng = np.random.default_rng(23)
    u, ubar = random_orthonormal(20, 2, rng), random_orthonormal(20, 2, rng)
    u[3, 1] = np.nan
    return u, ubar


def _model():
    return make_planted(20, 2, 0.0, False, np.random.default_rng(24))


def _basis():
    return random_orthonormal(20, 2, np.random.default_rng(25))


def _observation():
    """A (20, 2) basis and an observation whose step is not skipped."""
    return _basis(), np.random.default_rng(26).standard_normal(20)


def _rotation(**bad):
    """``rotate_update`` of a step that is not skipped, with the arguments in ``bad`` in place of the step's own."""
    u, x = _observation()
    out = grouse_step(u, x, GREEDY)
    return rotate_update(**{"U": u, "w": out.w, "p": out.p, "r": out.r, "theta": out.theta, **bad})


def _inf_basis():
    u = _basis()
    u[3, 1] = np.inf
    return u


def _inf_step(cfg, rows=0):
    """The step of a basis with an inf entry: ``Tracker.update``'s, or with ``rows`` the first row's of a stack.

    ``Tracker.update`` raises and leaves the basis object and both counts as they were.
    """
    u, x = _observation()
    tracker = Tracker(np.stack([u] * rows) if rows else u, cfg)
    tracker.basis[..., 3, 1] = np.inf
    if rows:
        raise tracker._update_rows(np.stack([x] * rows))[-1][(0,)]
    basis = tracker.basis
    with pytest.raises(ValueError) as failed:
        tracker.update(x)
    assert (tracker.steps, tracker.skipped_steps) == (0, 0) and tracker.basis is basis
    raise failed.value


def _unit(*shape):
    """An array of ``shape`` whose entries are all ``1 / sqrt(size)``: finite, nonzero and of unit norm."""
    return np.full(shape, 1.0 / math.sqrt(math.prod(shape)))


# (id, call, the argument the message names)
ROWS = [
    ("frobenius_discrepancy-nan-U", lambda: frobenius_discrepancy(*_bases()), "U"),
    ("frobenius_discrepancy-nan-Ubar", lambda: frobenius_discrepancy(*_bases()[::-1]), "Ubar"),
    ("principal_angles-nan-U", lambda: principal_angles(*_bases()), "U"),
    ("determinant_similarity-nan-U", lambda: determinant_similarity(*_bases()), "U"),
    ("metric_sample-nan-U", lambda: metric_sample(0, *_bases()), "U"),
    ("make_planted-float-n", lambda: make_planted(20.5, 2, 0.0, False, np.random.default_rng(0)), "n"),
    ("draw_batch-float-size", lambda: draw_batch(_model(), 2.5, np.random.default_rng(0)), "size"),
    ("expected_initial_similarity_exact-float-n", lambda: expected_initial_similarity_exact(20.5, 2), "n"),
    ("compute_alpha-d-above-n", lambda: compute_alpha(GREEDY, 1.0, 1.0, 3, 5), "d"),
    ("compute_alpha-nan-x_norm_sq", lambda: compute_alpha(PRACTICAL, math.nan, 1.0, 20, 2), "x_norm_sq"),
    ("compute_alpha-nan-r_norm_sq", lambda: compute_alpha(PRACTICAL, 1.0, math.nan, 20, 2), "r_norm_sq"),
    ("compute_alpha-practical-zero-r_norm_sq", lambda: compute_alpha(PRACTICAL, 1.0, 0.0, 20, 2), "r_norm_sq"),
    ("compute_alpha-oracle-zero-r_norm_sq",
     lambda: compute_alpha(ORACLE, 1.0, 0.0, 20, 2, OracleInfo(v_perp_norm_sq=0.5)), "r_norm_sq"),
    ("compute_theta-nan-p_norm", lambda: compute_theta(0.0, 1.0, math.nan), "p_norm"),
    ("compute_theta-negative-r_norm", lambda: compute_theta(0.0, -1.0, 1.0), "r_norm"),
    ("compute_theta-alpha-above-1", lambda: compute_theta(2.0, 1.0, 1.0), "alpha"),
    ("expected_initial_similarity-bool-c0", lambda: expected_initial_similarity(10, 2, True), "c0"),
    ("expected_zeta_rate_bound-str-zeta", lambda: expected_zeta_rate_bound("x", PARAMS), "zeta"),
    ("expected_eps_rate_bound-bool-cos_sq_phi_d", lambda: expected_eps_rate_bound(0.5, True, PARAMS), "cos_sq_phi_d"),
    ("mc_eps_rate_check-planted-basis",
     lambda: mc_eps_rate_check(_model(), _model().ubar, 10, np.random.default_rng(0)), "iterate's eps"),
    ("basis_with_similarity-bool-zeta",
     lambda: basis_with_similarity(_basis(), True, np.random.default_rng(0)), "zeta"),
    ("basis_with_angles-complex-cosines",
     lambda: basis_with_angles(_basis(), [0.5 + 1j, 0.5], np.random.default_rng(0)), "cosines"),
    ("compute_alpha-none-cfg", lambda: compute_alpha(None, 1.0, 1.0, 20, 2), "cfg"),
    ("compute_alpha-float-oracle", lambda: compute_alpha(ORACLE, 1.0, 1.0, 20, 2, 0.5), "oracle"),
    ("grouse_step-greedy-oracle", lambda: grouse_step(*_observation(), GREEDY, INFO), "oracle"),
    ("grouse_step-practical-oracle", lambda: grouse_step(*_observation(), PRACTICAL, INFO), "oracle"),
    ("Tracker.update-greedy-oracle", lambda: Tracker(_basis(), GREEDY).update(_observation()[1], INFO), "oracle"),
    ("Tracker.update-practical-oracle", lambda: Tracker(_basis(), PRACTICAL).update(_observation()[1], INFO), "oracle"),
    ("compute_alpha-greedy-oracle", lambda: compute_alpha(GREEDY, 1.0, 1.0, 20, 2, INFO), "oracle"),
    ("compute_alpha-practical-oracle", lambda: compute_alpha(PRACTICAL, 1.0, 1.0, 20, 2, INFO), "oracle"),
    ("grouse_step-d-above-n", lambda: grouse_step(_unit(3, 5), _unit(3), GREEDY), "d"),
    ("grouse_step-d-equal-n", lambda: grouse_step(np.eye(4), _unit(4), GREEDY), "d"),
    ("grouse_step-d-zero", lambda: grouse_step(np.zeros((5, 0)), _unit(5), GREEDY), "d"),
    ("rotate_update-short-w", lambda: _rotation(w=_unit(1)), "w"),
    ("rotate_update-short-p", lambda: _rotation(p=_unit(19)), "p"),
    ("rotate_update-stacked-p-r", lambda: _rotation(p=_unit(1, 20), r=_unit(1, 20)), "p"),
    ("OracleInfo.from_signal-complex-U", lambda: OracleInfo.from_signal(_basis() + 1j, _unit(20)), "U"),
    ("OracleInfo.from_signal-d-above-n", lambda: OracleInfo.from_signal(_unit(3, 5), _unit(3)), "d"),
    ("OracleInfo.from_signal-short-v", lambda: OracleInfo.from_signal(_basis(), _unit(19)), "v"),
    ("frobenius_discrepancy-wider-Ubar",
     lambda: frobenius_discrepancy(_basis(), random_orthonormal(20, 3, np.random.default_rng(27))), "Ubar"),
    ("basis_with_angles-n-below-2d",
     lambda: basis_with_angles(random_orthonormal(5, 3, np.random.default_rng(28)), _unit(3), np.random.default_rng(0)),
     "ubar"),
    ("basis_with_similarity-n-below-2d",
     lambda: basis_with_similarity(random_orthonormal(3, 2, np.random.default_rng(29)), 0.5, np.random.default_rng(0)),
     "ubar"),
]


@pytest.mark.parametrize("call, name", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_bad_argument_raises_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=rf"(?<![\w.]){re.escape(name)}(?!\w)"):
        call()


# (id, call, the whole message): every shape rule says it in one form, ``subspaces._shaped``'s
SHAPES = [
    ("check_orthonormal-1d", lambda: check_orthonormal(_unit(20)), "basis must have shape (n, d), got (20,)"),
    ("grouse_step-stacked-x", lambda: grouse_step(_basis(), _unit(1, 20), GREEDY),
     "x must have shape (20,), got (1, 20)"),
    ("grouse_step-3d-U", lambda: grouse_step(_basis()[None], _unit(20), GREEDY),
     "U must have shape (n, d), got (1, 20, 2)"),
    ("basis_with_angles-three-cosines", lambda: basis_with_angles(_basis(), _unit(3), np.random.default_rng(0)),
     "cosines must have shape (2,), got (3,)"),
    ("basis_with_similarity-1d-ubar", lambda: basis_with_similarity(_unit(5), 0.5, np.random.default_rng(0)),
     "basis must have shape (n, d), got (5,)"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in SHAPES], ids=[row[0] for row in SHAPES])
def test_shape_rules_share_one_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# (id, call): a basis with an inf entry fails its step with the step's one error, and raises no warning on the way
NON_FINITE_STEPS = [
    ("grouse_step", lambda cfg: grouse_step(_inf_basis(), _observation()[1], cfg)),
    ("Tracker.update", _inf_step),
    ("Tracker-stacked", lambda cfg: _inf_step(cfg, rows=2)),
]


@pytest.mark.parametrize("cfg", [GREEDY, PRACTICAL], ids=["greedy", "practical"])
@pytest.mark.parametrize("call", [row[1] for row in NON_FINITE_STEPS], ids=[row[0] for row in NON_FINITE_STEPS])
def test_non_finite_basis_fails_the_update(call, cfg):
    with pytest.raises(ValueError, match="^update produced non-finite entries$"):
        call(cfg)


@pytest.mark.parametrize("n, d", [(2, 1), (5, 1), (5, 4)])
def test_edge_dimensions_give_finite_results_that_meet_their_invariants(n, d):
    """At d = 1 and d = n - 1 every basis is orthonormal to 1e-12, and every ζ lies in [0, 1] and ε in [0, d]."""
    rng = np.random.default_rng(30)
    u, ubar, x = random_orthonormal(n, d, rng), random_orthonormal(n, d, rng), rng.standard_normal(n)
    bases = [grouse_step(u, x, GREEDY).updated, Tracker(u, PRACTICAL).update(x).updated,
             reorthonormalize(u + 1e-3 * ubar),
             *(make_planted(n, d, 0.1, sparse, rng).ubar for sparse in (False, True))]
    for basis in bases:
        assert np.all(np.isfinite(basis)) and np.abs(basis.T @ basis - np.eye(d)).max() <= 1e-12
    cosines = principal_angles(u, ubar)
    assert cosines.shape == (d,) and np.all((cosines >= 0) & (cosines <= 1))
    result, rows = run_trajectory(ExperimentConfig(n=n, d=d, sigma_sq=0.01, mode="practical", max_iters=50))
    pairs = [(determinant_similarity(u, ubar), frobenius_discrepancy(u, ubar)), (result.final_zeta, result.final_eps),
             *((row.zeta, row.epsilon) for row in rows)]
    assert len(rows) == result.iters_run + 1 and all(0 <= zeta <= 1 and 0 <= eps <= d for zeta, eps in pairs), pairs
