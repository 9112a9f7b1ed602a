"""The input checks of the library, each pinned by its whole message."""

import numpy as np
import pytest

from uniequiv import (
    InputError,
    MatrixPolynomial,
    SamplerConfig,
    density_operator,
    factor_algebra,
    matrix_algebra,
    nullspace_basis,
    pure_state,
    random_yes_instance,
    sample_invertible,
    unilocal_mixed_equivalence,
)
from uniequiv.linalg import as_complex_matrix
from uniequiv.oracle import algebra_from_kind
from uniequiv.solver import SolutionSpace

_RHO = np.diag([0.7, 0.3])

# (call, the whole message of the InputError it raises)
CHECKS = {
    "empty-basis": (lambda: matrix_algebra([]), "algebra basis must be non-empty"),
    "non-square-basis": (lambda: matrix_algebra([np.eye(2, 3)]),
                         "algebra basis elements must all be square of one size"),
    "mixed-size-basis": (lambda: matrix_algebra([np.eye(2), np.eye(3)]),
                         "algebra basis elements must all be square of one size"),
    "factor-zero": (lambda: factor_algebra(0, 2), "factor dimensions must be positive"),
    "matrix-1d": (lambda: as_complex_matrix(np.ones(3)),
                  "matrix must be a 2-D array with positive shape, got shape (3,)"),
    "nullspace-1d": (lambda: nullspace_basis(np.ones(3)),
                     "expected a 2-D matrix with at least one column, got shape (3,)"),
    "no-coefficient": (lambda: MatrixPolynomial(()),
                       "a matrix polynomial needs at least one coefficient"),
    "kind-tiling": (lambda: algebra_from_kind(("factor", 2, 3), 4),
                    "factor shape 2x3 does not tile dimension 4"),
    "kind-unknown": (lambda: algebra_from_kind("diagonal", 2),
                     "unsupported algebra kind 'diagonal'"),
    "generator-size": (lambda: random_yes_instance(0, 2, 1), "need d1, d2 >= 1 and m >= 0"),
    "sample-max-int64": (lambda: SamplerConfig(sample_max=2**63),
                         "sample_max must be at most 9223372036854775807"),
    "empty-space": (lambda: sample_invertible(SolutionSpace(np.zeros((0, 2, 2)),
                                                            np.zeros((0, 2, 2))), SamplerConfig()),
                    "sample_invertible needs a non-trivial solution space"),
    "amplitude-count": (lambda: pure_state(2, 2, np.ones(3)), "expected 4 amplitudes, got 3"),
    "amplitude-nan": (lambda: pure_state(1, 2, [np.nan, 1.0]),
                      "amplitudes contain non-finite entries"),
    "density-shape": (lambda: density_operator(1, 2, np.eye(3) / 3),
                      "density matrix must be 2 x 2, got (3, 3)"),
    "unilocal-lengths": (lambda: unilocal_mixed_equivalence([density_operator(1, 2, _RHO)] * 2,
                                                            [density_operator(1, 2, _RHO)]),
                         "density operator lists must be non-empty and of equal length"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_message(name):
    call, message = CHECKS[name]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
