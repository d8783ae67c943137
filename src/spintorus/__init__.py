"""Exact verification and construction engine for the antiperiodic
trigonometric three-flavor spin chain at desk scale.

The package builds the two-site scattering matrix and the chain monodromy
as dense complex arrays, certifies their algebraic identities numerically,
enumerates the separated basis, solves the eigenvalue parametrization by
root search, and reconstructs transfer eigenvectors from eigenvalue data,
cross-checking every construction against brute-force diagonalization.
"""
import os as _os

# Translate the package thread knob to the standard BLAS variables before
# numpy is first imported; already-set variables win.
_threads = _os.environ.get("SPINTORUS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .chain import ChainSpec, default_spec
from .checks import CHECK_NAMES, CheckResult, run_checks
from .eigenstate import (HomogFamily, HomogStudy, closed_form_two_site,
                         g_m_function, homogeneous_limit_study,
                         normalize_gauge, reconstruct, scalar_F,
                         scalar_product_table)
from .errors import (DegenerateNormalizationError, DegeneracyError,
                     DenseBudgetError, InconsistencyError,
                     NonGenericSpecError, PoleProximityError, SpinTorusError)
from .monodromy import (exchange_relation_residuals, global_hamiltonian,
                        homogeneous_transfer, monodromy_blocks,
                        monodromy_entry, op_A, op_B, op_C, op_D,
                        product_identity_residual, scalar_a, scalar_d,
                        scalar_d_l, transfer, twist_operator)
from .rmatrix import (crossing_residual, fusion_rank, local_hamiltonian,
                      permutation_matrix, qybe_residual, r_matrix,
                      twist_invariance_residual, twist_matrix,
                      unitarity_residual)
from .sov_basis import (BasisIndex, act_on_bra, decomposition_residual,
                        enumerate_basis, f_factor, g_factor, gram_matrix,
                        identity_resolution_residual, left_state,
                        right_state, verify_orthogonality)
from .spectrum import (BaeSolveResult, SpectralRecord, TQSolution,
                       bae_residuals, brute_force_spectrum, eigen_residual_at,
                       eigenvalue_at, solve_bae, tq_lambda, z_charge)
from .tensor_core import (basis_vector, bilinear_pair, embed_site_operator,
                          kron_chain, simultaneous_eigen, site_matrix_unit)

__version__ = "1.0.0"

__all__ = [
    "BaeSolveResult", "BasisIndex", "ChainSpec", "CheckResult",
    "CHECK_NAMES", "DegenerateNormalizationError", "DegeneracyError",
    "DenseBudgetError", "HomogFamily", "HomogStudy", "InconsistencyError",
    "NonGenericSpecError", "PoleProximityError", "SpectralRecord",
    "SpinTorusError", "TQSolution", "act_on_bra", "bae_residuals",
    "basis_vector", "bilinear_pair", "brute_force_spectrum",
    "closed_form_two_site", "crossing_residual", "decomposition_residual",
    "default_spec", "eigen_residual_at", "eigenvalue_at",
    "embed_site_operator", "enumerate_basis", "exchange_relation_residuals",
    "f_factor", "fusion_rank", "g_factor", "g_m_function",
    "global_hamiltonian", "gram_matrix", "homogeneous_limit_study",
    "homogeneous_transfer", "identity_resolution_residual", "kron_chain",
    "left_state", "local_hamiltonian", "monodromy_blocks", "monodromy_entry",
    "normalize_gauge", "op_A", "op_B", "op_C", "op_D", "permutation_matrix",
    "product_identity_residual", "qybe_residual", "r_matrix", "reconstruct",
    "right_state", "run_checks", "scalar_F", "scalar_a", "scalar_d",
    "scalar_d_l", "scalar_product_table", "simultaneous_eigen",
    "site_matrix_unit", "solve_bae", "tq_lambda", "transfer",
    "twist_invariance_residual", "twist_matrix", "twist_operator",
    "unitarity_residual", "verify_orthogonality", "z_charge",
]
