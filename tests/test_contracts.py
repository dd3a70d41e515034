"""The argument contract of the public functions: a bad argument raises a ``ValueError`` that names it.

One row per bad input: the function, the arguments and the name the message must hold.  Each row is a value the
function once took without a word, or rejected with another exception (``TypeError``, ``ZeroDivisionError``,
``LinAlgError``) or a ``RuntimeWarning``.
"""

import math
import re

import numpy as np
import pytest

from grouse.core import OracleInfo, StepConfig, StepMode, compute_alpha, compute_theta
from grouse.data import draw_batch, make_planted
from grouse.subspaces import (determinant_similarity, expected_initial_similarity_exact, frobenius_discrepancy,
                              metric_sample, principal_angles, random_orthonormal)

GREEDY = StepConfig()
PRACTICAL = StepConfig(mode=StepMode.PRACTICAL_NOISY, sigma_sq=0.1)
ORACLE = StepConfig(mode=StepMode.ORACLE_NOISY, sigma_sq=0.1)


def _bases():
    """A (20, 2) basis with a NaN entry, and a finite basis of the same shape."""
    rng = np.random.default_rng(23)
    u, ubar = random_orthonormal(20, 2, rng), random_orthonormal(20, 2, rng)
    u[3, 1] = np.nan
    return u, ubar


def _model():
    return make_planted(20, 2, 0.0, False, np.random.default_rng(24))


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
]


@pytest.mark.parametrize("call, name", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_bad_argument_raises_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=rf"(?<![\w.]){re.escape(name)}(?!\w)"):
        call()
