"""Randomized solver for simultaneous unitary equivalence of matrix sets,
with reductions for local-unitary equivalence of bipartite quantum states."""

from .algebra import (
    MatrixAlgebra,
    factor_algebra,
    full_algebra,
    matrix_algebra,
    verify_algebra,
)
from .errors import (
    DegenerateCandidateError,
    InputError,
    InvalidAlgebraError,
    MalformedInstanceError,
    NotGenericError,
    UniequivError,
)
from .linalg import (
    MatrixPolynomial,
    Tolerances,
    hermitian_eigendecomposition,
    nullspace_basis,
    singular_values,
)
from .oracle import (
    haar_unitary_in_algebra,
    random_no_instance,
    random_yes_instance,
)
from .solver import (
    SamplerConfig,
    SolutionSpace,
    UepInstance,
    UepVerdict,
    build_linear_system,
    decide_invertible_equivalence,
    decide_uep,
    extract_unitaries,
    per_trial_failure_bound,
    sample_invertible,
    singular_value_prefilter,
    solve_solution_space,
    uep_instance_full,
)
from .states import (
    DensityOperator,
    PureState,
    density_operator,
    generic_mixed_lu,
    pure_state,
    simultaneous_lu_pure,
    state_to_matrix,
    unilocal_mixed_equivalence,
)

__version__ = "0.1.0"
