"""Exact verification and construction engine for the antiperiodic
trigonometric three-flavor spin chain at desk scale.

The package builds the two-site scattering matrix, the chain monodromy as
the sparse entries of its blocks and the transfer matrix as a dense complex
array, certifies their algebraic identities numerically, enumerates the
separated basis, solves the eigenvalue parametrization by root search, and
reconstructs transfer eigenvectors from eigenvalue data, cross-checking
every construction against brute-force diagonalization.
"""
import os as _os
import sys as _sys
import warnings as _warnings

# Translate the package thread knob to the standard BLAS variables before
# numpy is first imported; already-set variables win.  BLAS reads them once,
# when numpy loads, so a numpy imported earlier keeps its thread count.
_threads = _os.environ.get("SPINTORUS_THREADS")
if _threads:
    if "numpy" in _sys.modules:
        _warnings.warn(
            "SPINTORUS_THREADS has no effect: numpy was imported before "
            "spintorus, so its BLAS thread count is already fixed; import "
            "spintorus first or set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS "
            "and MKL_NUM_THREADS", RuntimeWarning, stacklevel=2)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _sys, _warnings, _threads

from .chain import ChainSpec, default_spec
from .checks import CHECK_NAMES, CheckResult, run_checks
from .eigenstate import (HomogFamily, HomogStudy, Reconstructor,
                         closed_form_two_site, g_m_function,
                         homogeneous_limit_study, normalize_gauge, scalar_F)
from .errors import (DegenerateNormalizationError, DegeneracyError,
                     DenseBudgetError, InconsistencyError,
                     NonGenericSpecError, PoleProximityError, SpinTorusError,
                     UnsupportedRankError)
from .monodromy import (apply_entry, apply_entry_bra,
                        exchange_relation_residuals, homogeneous_transfer,
                        product_identity_residual, scalar_a, scalar_d,
                        transfer, twist_operator)
from .rmatrix import (crossing_residual, fusion_rank, permutation_matrix,
                      qybe_residual, r_matrix, twist_invariance_residual,
                      twist_matrix, unitarity_residual)
from .sov_basis import (BasisIndex, act_on_bra, basis_states,
                        decomposition_residual, enumerate_basis, f_factor,
                        identity_resolution_residual, verify_orthogonality)
from .spectrum import (BaeSolveResult, SpectralRecord, TQSolution,
                       bae_residuals, brute_force_spectrum, solve_bae,
                       tq_lambda)
from .tensor_core import kron_chain, simultaneous_eigen, site_matrix_unit

__version__ = "1.0.0"

__all__ = [
    "BaeSolveResult", "BasisIndex", "ChainSpec", "CheckResult",
    "CHECK_NAMES", "DegenerateNormalizationError", "DegeneracyError",
    "DenseBudgetError", "HomogFamily", "HomogStudy", "InconsistencyError",
    "NonGenericSpecError", "PoleProximityError", "Reconstructor",
    "SpectralRecord", "SpinTorusError", "TQSolution", "UnsupportedRankError",
    "act_on_bra", "apply_entry", "apply_entry_bra", "bae_residuals",
    "basis_states", "brute_force_spectrum", "closed_form_two_site",
    "crossing_residual", "decomposition_residual", "default_spec",
    "enumerate_basis", "exchange_relation_residuals", "f_factor",
    "fusion_rank", "g_m_function", "homogeneous_limit_study",
    "homogeneous_transfer", "identity_resolution_residual", "kron_chain",
    "normalize_gauge", "permutation_matrix", "product_identity_residual",
    "qybe_residual", "r_matrix", "run_checks", "scalar_F",
    "scalar_a", "scalar_d",
    "simultaneous_eigen", "site_matrix_unit", "solve_bae", "tq_lambda",
    "transfer", "twist_invariance_residual", "twist_matrix", "twist_operator",
    "unitarity_residual", "verify_orthogonality",
]
