"""Named verification checks with a stable reporting vocabulary.

Each check measures the worst residual of one family of identities at the
configured chain parameters and compares it against a tolerance.  The check
names here are the public vocabulary of the ``verify`` subcommand; scripts
key on them, so they never change.  Every check draws its random spectral
points from a child generator seeded by (rng_seed, position in the check
order), which makes each check reproducible on its own and the full report
byte-stable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .chain import DEFAULT_SEED, ChainSpec
from .errors import require_three_flavors
from .monodromy import (_sparse_blocks, _tiled_transfer, conjugate_vacuum_ket,
                        exchange_relation_residuals, product_identity_residual,
                        scalar_a, scalar_d, vacuum_ket)
from .rmatrix import (crossing_residual, fusion_rank,
                      initial_condition_residual, qybe_residual,
                      twist_invariance_residual, unitarity_residual)
from .sov_basis import (basis_states, decomposition_residual,
                        identity_resolution_residual, verify_orthogonality)
from .tensor_core import _rel_resid, _worst


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: worst residual against its tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str


def _points(rng: np.random.Generator, count: int):
    """Random complex spectral points in the box |Re|, |Im| <= 1."""
    re = rng.uniform(-1.0, 1.0, size=count)
    im = rng.uniform(-1.0, 1.0, size=count)
    return [complex(a, b) for a, b in zip(re, im)]


def _check_qybe(spec: ChainSpec, rng: np.random.Generator, basis):
    pts = _points(rng, 15)
    worst = _worst([initial_condition_residual(spec.n, spec.eta)]
                   + [qybe_residual(spec.n, spec.eta, u1, u2, u3)
                      for u1, u2, u3 in zip(pts[0::3], pts[1::3], pts[2::3])])
    return worst, "three-space relation at 5 random point triples plus the u = 0 permutation limit"


def _check_unitarity(spec: ChainSpec, rng: np.random.Generator, basis):
    worst = _worst(unitarity_residual(u, spec.n, spec.eta) for u in _points(rng, 6))
    return worst, "R(u) R_swapped(-u) proportional to the identity at 6 random points"


def _check_crossing(spec: ChainSpec, rng: np.random.Generator, basis):
    worst = _worst(crossing_residual(u, spec.n, spec.eta) for u in _points(rng, 6))
    return worst, "partial-transpose inversion identity at 6 random points"


def _check_fusion_rank(spec: ChainSpec, rng: np.random.Generator, basis):
    expected = spec.n * (spec.n - 1) // 2
    rank = fusion_rank(spec.n, spec.eta)
    return float(abs(rank - expected)), (
        f"rank of R(-eta) is {rank}, antisymmetriser dimension is {expected}")


def _check_twist_invariance(spec: ChainSpec, rng: np.random.Generator, basis):
    worst = _worst(twist_invariance_residual(u, spec.n, spec.eta)
                   for u in _points(rng, 6))
    return worst, "conjugation by the cyclic twist on both factors at 6 random points"


def _check_commuting_transfer(spec: ChainSpec, rng: np.random.Generator, basis):
    resids = []
    pts = _points(rng, 6)
    for u, v in zip(pts[0::2], pts[1::2]):
        tu, tv = _tiled_transfer(u, spec), _tiled_transfer(v, spec)
        resids.append(_rel_resid(tu @ tv, tv @ tu))
    return _worst(resids), "commutator of transfer matrices at 3 random spectral pairs"


def _check_exchange_relations(spec: ChainSpec, rng: np.random.Generator, basis):
    resids = []
    families: set = set()
    pts = _points(rng, 4)
    for u, v in zip(pts[0::2], pts[1::2]):
        table = exchange_relation_residuals(u, v, spec)
        families.update(table)
        resids.extend(table.values())
    return _worst(resids), (f"{len(families)} quadratic relation families as "
                            "dense operator identities at 2 random spectral pairs")


def _check_vacuum_actions(spec: ChainSpec, rng: np.random.Generator, basis):
    dim = spec.dim
    k0, kc = vacuum_ket(spec), conjugate_vacuum_ket(spec)
    (v0,), (vc,) = np.flatnonzero(k0), np.flatnonzero(kc)

    def act(block, at, ket):    # T|v> (column at) or <v|T (row at), v = e_at
        rows, cols = np.divmod(block[0], dim)
        hit, to = (cols == at, rows) if ket else (rows == at, cols)
        out = np.zeros(dim, dtype=complex)
        out[to[hit]] = block[1][hit]
        return out

    resids = []
    for u in _points(rng, 4):
        blocks = _sparse_blocks(complex(u), spec.n, spec.eta, spec.theta)
        a, d = scalar_a(u, spec), scalar_d(u, spec)
        scale = max(_worst(np.abs(vals).max(initial=0.0)
                           for row in blocks for _, vals in row), 1.0)
        t00 = blocks[0][0]
        gaps = [act(t00, v0, True) - a * k0, act(t00, v0, False) - a * k0,
                act(t00, vc, True) - d * kc, act(t00, vc, False) - d * kc]
        for i in range(1, spec.n):
            gaps.append(act(blocks[i][0], v0, True))   # annihilation on the reference ket
            gaps.append(act(blocks[0][i], v0, False))  # and on the reference bra
            for j in range(1, spec.n):
                delta = d if i == j else 0.0
                gaps.append(act(blocks[i][j], v0, True) - delta * k0)
                gaps.append(act(blocks[i][j], v0, False) - delta * k0)
        tll = blocks[-1][-1]
        gaps += [act(tll, vc, True) - a * kc, act(tll, vc, False) - a * kc,
                 act(blocks[0][-1], vc, True),    # annihilation on the conjugate ket
                 act(blocks[-1][0], vc, False)]   # and on the conjugate bra
        resids.extend(float(np.abs(g).max()) / scale for g in gaps)
    return _worst(resids), ("triangular monodromy action on the reference and "
                            "conjugate product states at 4 random points")


def _check_orthogonality(spec: ChainSpec, rng: np.random.Generator, basis):
    report = verify_orthogonality(spec, basis())
    worst = _worst((report["diag_rel_err"], report["offdiag_resid"]))
    return worst, ("Gram matrix of the separated basis: diagonal against the "
                   "closed-form norms, off-diagonal leakage against zero")


def _check_identity_resolution(spec: ChainSpec, rng: np.random.Generator, basis):
    worst = identity_resolution_residual(spec, basis())
    return worst, "Frobenius distance of the weighted outer-product sum from the identity"


def _check_decompositions(spec: ChainSpec, rng: np.random.Generator, basis):
    labels, rows, _ = basis()
    bras = dict(zip(labels, rows))
    if spec.N > 3:
        picks = sorted(rng.choice(len(labels), size=12, replace=False))
        labels = [labels[int(i)] for i in picks]
    pts = _points(rng, 2)
    worst = _worst(decomposition_residual(op, u, idx, bras, spec)
                   for op in ("D33", "D23", "D32", "B3", "C3")
                   for idx in labels for u in pts)
    return worst, (f"coefficient expansions of 5 monodromy entries on "
                   f"{len(labels)} basis bras at 2 random points")


def _check_product_identity(spec: ChainSpec, rng: np.random.Generator, basis):
    worst = product_identity_residual(spec)
    return worst, ("product of transfer matrices over the inhomogeneity "
                   "points against the scalar-weighted twist operator")


# Registry: name -> (function, default tolerance).  Order is the report order.
# A check is called as function(spec, rng, basis): ``basis()`` returns the
# ``basis_states`` of the chain, built once per ``run_checks`` call.
CHECKS = (
    ("QYBE", _check_qybe, 1e-11),
    ("unitarity", _check_unitarity, 1e-11),
    ("crossing", _check_crossing, 1e-11),
    ("fusion-rank", _check_fusion_rank, 0.5),
    ("twist-invariance", _check_twist_invariance, 1e-11),
    ("commuting-transfer", _check_commuting_transfer, 1e-11),
    ("exchange-relations", _check_exchange_relations, 1e-11),
    ("vacuum-actions", _check_vacuum_actions, 1e-11),
    ("orthogonality", _check_orthogonality, 1e-9),
    ("identity-resolution", _check_identity_resolution, 1e-9),
    ("decompositions", _check_decompositions, 1e-9),
    ("product-identity", _check_product_identity, 1e-10),
)

CHECK_NAMES = tuple(name for name, _, _ in CHECKS)


def run_checks(spec: ChainSpec, tolerances=None, rng_seed: int = DEFAULT_SEED):
    """Run every check in registry order and return its CheckResult records.

    ``tolerances`` maps check names to overrides of the default thresholds.
    The checks certify the three-flavor chain; any other rank is refused
    with ``UnsupportedRankError`` before a check runs.
    """
    require_three_flavors("run_checks", spec.n)
    tolerances = dict(tolerances or {})
    basis = cache(lambda: basis_states(spec))      # lives for this call
    results = []
    for position, (name, func, default_tol) in enumerate(CHECKS):
        rng = np.random.default_rng((rng_seed, position))
        residual, detail = func(spec, rng, basis)
        tol = float(tolerances.get(name, default_tol))
        results.append(CheckResult(name=name, residual=float(residual),
                                   tolerance=tol, passed=residual < tol,
                                   detail=detail))
    return results
