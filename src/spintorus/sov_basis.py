"""Nested separation-of-variables basis built on the inhomogeneity points.

A basis label holds one disjoint sorted site block per flavor 2..n: the
flavor-f block lists the sites whose theta feeds a C^f factor in the left
state.  Left states are bra vectors grown from the vacuum, right states are
kets grown from the mirrored product, and the two families are
bi-orthogonal; for three flavors the normalization is an explicit product of
one-flavor norms.

The action of the relevant monodromy entries on a left state is a finite
combination of neighbouring labels whose coefficients are products of sinh
ratios; `act_on_bra` reproduces those combinations without touching any
dense operator.  All removable u = theta coincidences are evaluated by exact
cancellation against the d(u) prefactor, so coefficients at the
inhomogeneity points themselves come out exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .chain import ChainSpec
from .errors import PoleProximityError
from .monodromy import (apply_entry, apply_entry_bra, scalar_a, scalar_d,
                        scalar_d_l, vacuum_bra, vacuum_ket)

POLE_TOL = 1e-12


@dataclass(frozen=True, init=False)
class BasisIndex:
    """Sorted disjoint site blocks (1-indexed), one per flavor 2..n.

    Built from the blocks in flavor order, ``BasisIndex(b2, b3, ...)``; a
    three-flavor label may name them, ``BasisIndex(block2=..., block3=...)``.
    """

    blocks: tuple

    def __init__(self, *blocks, block2=(), block3=()):
        if not blocks:
            blocks = (block2, block3)
        elif block2 or block3:
            raise TypeError("give the blocks either in flavor order or by name")
        blocks = tuple(tuple(map(int, b)) for b in blocks)
        if any(list(b) != sorted(b) for b in blocks):
            raise ValueError("blocks must be sorted ascending")
        sites = sum(blocks, ())
        if len(set(sites)) != len(sites):
            raise ValueError("blocks must be disjoint with distinct entries")
        object.__setattr__(self, "blocks", blocks)

    @property
    def block2(self) -> tuple:
        return self.blocks[0]

    @property
    def block3(self) -> tuple:
        return self.blocks[1]

    @property
    def m2(self) -> int:
        return len(self.blocks[0])

    @property
    def m(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def sites(self) -> tuple:
        """Canonical P tuple: the flavor blocks in flavor order."""
        return sum(self.blocks, ())

    def complement(self, N: int) -> tuple:
        used = set(self.sites)
        return tuple(q for q in range(1, N + 1) if q not in used)

    def sort_key(self):
        return (self.m, tuple(len(b) for b in self.blocks), self.sites)


def enumerate_basis(spec: ChainSpec):
    """All n^N labels, ordered by size m, then the block sizes, then P.

    Each loop below runs in that order already (lexicographic block sizes,
    lexicographic combinations block by block), so nothing is sorted.
    """

    def fill(sizes, free):
        if not sizes:
            return [()]
        return [(chosen,) + tail for chosen in combinations(free, sizes[0])
                for tail in fill(sizes[1:], [q for q in free if q not in chosen])]

    return [BasisIndex(*blocks)
            for m in range(spec.N + 1)
            for sizes in product(range(m + 1), repeat=spec.n - 1)
            if sum(sizes) == m
            for blocks in fill(sizes, range(1, spec.N + 1))]


def _steps(idx: BasisIndex) -> tuple:
    """(flavor, site) of each monodromy entry a basis state applies, in order."""
    return tuple((f, p) for f, block in enumerate(idx.blocks, start=2)
                 for p in block)


def left_state(idx: BasisIndex, spec: ChainSpec) -> np.ndarray:
    """Bra <0| C^2(theta_p) ... (flavor-2 block) C^3(...) ... C^n(...) as a row."""
    bra = vacuum_bra(spec)
    for f, p in _steps(idx):
        bra = apply_entry_bra(spec.theta[p - 1], f, 1, bra, spec)
    return bra


def right_state(idx: BasisIndex, spec: ChainSpec) -> np.ndarray:
    """Ket B_n(...) ... B_3(...) B_2(theta_p) ... |0>, the mirrored product."""
    ket = vacuum_ket(spec)
    for f, p in _steps(idx):
        ket = apply_entry(spec.theta[p - 1], 1, f, ket, spec)
    return ket


def _grown_rows(labels, spec: ChainSpec, bra: bool) -> np.ndarray:
    """Left (``bra``) or right states of ``enumerate_basis`` labels stacked
    as rows: each extends the row of its label minus the last step by one
    entry."""
    rows = np.empty((len(labels), spec.dim), dtype=complex)
    rows[0] = vacuum_bra(spec) if bra else vacuum_ket(spec)
    row = {_steps(idx): r for r, idx in enumerate(labels)}
    for steps, r in list(row.items())[1:]:
        (f, p), parent = steps[-1], row[steps[:-1]]
        u = spec.theta[p - 1]
        rows[r] = (apply_entry_bra(u, f, 1, rows[parent], spec) if bra
                   else apply_entry(u, 1, f, rows[parent], spec))
    return rows


def basis_states(spec: ChainSpec):
    """The labels of ``enumerate_basis`` with their left and right states
    stacked as rows, equal to ``left_state``/``right_state``."""
    labels = enumerate_basis(spec)
    return (labels, _grown_rows(labels, spec, bra=True),
            _grown_rows(labels, spec, bra=False))


def _site_tuple(pset, N: int) -> tuple:
    sites = tuple(sorted(int(p) for p in pset))
    if len(set(sites)) != len(sites):
        raise ValueError("site indices must be distinct")
    if sites and not (1 <= sites[0] and sites[-1] <= N):
        raise ValueError(f"site indices outside 1..{N}")
    return sites


def f_factor(pset, spec: ChainSpec) -> complex:
    """Norm of a one-flavor chain of basis states over the given sites.

    Product over the set of sinh(eta) d_p(theta_p) a(theta_p) dressed by the
    pairwise ratio sinh(delta+eta)/sinh(delta); the empty set gives 1.
    """
    return _one_flavor_norm(_site_tuple(pset, spec.N), spec)


def _one_flavor_norm(sites: tuple, spec: ChainSpec) -> complex:
    """f_factor on sites already checked: sorted, distinct, within 1..N."""
    eta = spec.eta
    th = lambda p: spec.theta[p - 1]
    val = 1.0 + 0.0j
    for l in sites:
        val *= np.sinh(eta) * scalar_d_l(th(l), l, spec) * scalar_a(th(l), spec)
        for k in sites:
            if k != l:
                val *= np.sinh(th(l) - th(k) + eta) / np.sinh(th(l) - th(k))
    return complex(val)


def g_factor(idx: BasisIndex, spec: ChainSpec) -> complex:
    """Closed-form bi-orthogonal normalization <idx|idx> of a three-flavor
    label: the one-flavor norms of both blocks times the cross term
    sinh(theta_k - theta_l - eta) / sinh(theta_k - theta_l), k in block3,
    l in block2."""
    if len(idx.blocks) != 2:
        raise ValueError("the closed-form norm covers three-flavor labels only")
    th = lambda p: spec.theta[p - 1]
    cross = 1.0 + 0.0j
    for k in idx.block3:
        for l in idx.block2:
            cross *= np.sinh(th(k) - th(l) - spec.eta) / np.sinh(th(k) - th(l))
    return complex(_one_flavor_norm(idx.block2, spec)
                   * _one_flavor_norm(idx.block3, spec) * cross)


def gram_matrix(spec: ChainSpec) -> np.ndarray:
    _, bras, kets = basis_states(spec)
    return bras @ kets.T


def verify_orthogonality(spec: ChainSpec) -> dict:
    """Gram diagnostics: diagonal vs closed form, off-diagonal leakage."""
    labels, bras, kets = basis_states(spec)
    gram = bras @ kets.T
    expected = np.array([g_factor(ix, spec) for ix in labels])
    diag = np.diagonal(gram)
    diag_rel_err = float(np.max(np.abs(diag - expected) / np.abs(expected)))
    off = gram - np.diag(diag)
    scale = max(float(np.abs(diag).max()), 1.0)
    offdiag_resid = float(np.abs(off).max()) / scale
    return {
        "gram": gram,
        "expected_diagonal": expected,
        "diag_rel_err": diag_rel_err,
        "offdiag_resid": offdiag_resid,
    }


def identity_resolution_residual(spec: ChainSpec) -> float:
    """Frobenius residual of sum_idx |idx><idx| / G_idx against the identity."""
    labels, bras, kets = basis_states(spec)
    norms = np.array([g_factor(ix, spec) for ix in labels])
    return float(np.linalg.norm((kets / norms[:, None]).T @ bras - np.eye(spec.dim)))


# ---------------------------------------------------------------------------
# Analytic action of operators on left states
# ---------------------------------------------------------------------------

def _d_cancelled(u: complex, spec: ChainSpec, cancel) -> complex:
    """scalar_d(u) / prod_{q in cancel} sinh(u - theta_q), cancelled exactly.

    Each cancelled site uses the identity d(u)/sinh(u - theta_q) =
    prod_{j != q} sinh(u - theta_j), which is entire, so u exactly at a
    theta point yields the analytic limit.  A near-coincidence that is not
    exact is refused: the caller sits close to a pole of the printed
    formula without being on its removable point.
    """
    out = 1.0 + 0.0j
    cancel = set(cancel)
    for j, t in enumerate(spec.theta, start=1):
        s = np.sinh(u - t)
        if j in cancel:
            if s != 0 and abs(s) < POLE_TOL:
                raise PoleProximityError(
                    f"u = {u} within {POLE_TOL} of pole at theta_{j} = {t}")
            continue
        out *= s
    return complex(out)


def act_on_bra(op: str, u: complex, idx: BasisIndex, spec: ChainSpec):
    """Decomposition of <idx| Op(u) over basis labels.

    Supported ops: D33, D23, D32, B3, C3 (monodromy entries (3,3), (2,3),
    (3,2), (1,3), (3,1)).  Returns a list of (BasisIndex, coefficient) with
    pairwise distinct target labels; exact zeros are dropped, so a vanishing
    action returns the empty list.
    """
    eta = spec.eta
    th = lambda p: spec.theta[p - 1]
    sh = np.sinh
    b2, b3 = idx.block2, idx.block3
    u = complex(u)
    terms: dict = {}

    def add(target: BasisIndex, coeff: complex):
        if coeff != 0:
            terms[target] = terms.get(target, 0.0 + 0.0j) + coeff

    if op == "D33":
        coeff = _d_cancelled(u, spec, b3)
        for k in b3:
            coeff *= sh(u - th(k) + eta)
        add(idx, coeff)

    elif op == "D23":
        for l in b3:
            coeff = sh(eta) * np.exp((u - th(l)) / 3) * _d_cancelled(u, spec, b3)
            for k in b3:
                if k != l:
                    coeff *= (sh(u - th(k) + eta)
                              * sh(th(l) - th(k) - eta) / sh(th(l) - th(k)))
            target = BasisIndex(tuple(sorted(b2 + (l,))),
                                tuple(q for q in b3 if q != l))
            add(target, coeff)

    elif op == "D32":
        for l in b2:
            coeff = (sh(eta) * np.exp(-(u - th(l)) / 3)
                     * _d_cancelled(u, spec, b3 + (l,)))
            for k in b2:
                if k != l:
                    coeff *= sh(th(l) - th(k) + eta) / sh(th(l) - th(k))
            for k in b3:
                coeff *= sh(u - th(k) + eta)
            target = BasisIndex(tuple(q for q in b2 if q != l),
                                tuple(sorted(b3 + (l,))))
            add(target, coeff)

    elif op == "B3":
        for l in b3:
            base = sh(eta) * np.exp(-(u - th(l)) / 3) * _d_cancelled(u, spec, b3)
            for k in b3:
                if k != l:
                    base *= (sh(u - th(k) + eta)
                             * sh(th(l) - th(k) - eta) / sh(th(l) - th(k)))
            # first family: theta_{p_l} leaves the flavor-3 block entirely
            coeff = base * scalar_a(th(l), spec)
            for al in b2:
                coeff *= sh(th(l) - th(al) - eta) / sh(th(l) - th(al))
            add(BasisIndex(b2, tuple(q for q in b3 if q != l)), coeff)
            # second family: it replaces a flavor-2 member instead
            for al in b2:
                coeff = (base * sh(eta) * np.exp(-(th(al) - th(l)) / 3)
                         / sh(th(l) - th(al)) * scalar_a(th(al), spec))
                for k in b2:
                    if k != al:
                        coeff *= sh(th(al) - th(k) - eta) / sh(th(al) - th(k))
                target = BasisIndex(
                    tuple(sorted(tuple(q for q in b2 if q != al) + (l,))),
                    tuple(q for q in b3 if q != l))
                add(target, coeff)

    elif op == "C3":
        for l in idx.complement(spec.N):
            shared = 1.0 + 0.0j
            for k in b3:
                shared *= (sh(u - th(k) + eta)
                           * sh(th(l) - th(k)) / sh(th(l) - th(k) + eta))
            # first family: complement point joins the flavor-3 block
            coeff = (np.exp((u - th(l)) / 3) / scalar_d_l(th(l), l, spec)
                     * _d_cancelled(u, spec, b3 + (l,)) * shared)
            add(BasisIndex(b2, tuple(sorted(b3 + (l,)))), coeff)
            # second family: it replaces a flavor-2 member, which joins flavor 3
            for al in b2:
                coeff = (np.exp((u - th(al)) / 3)
                         * _d_cancelled(u, spec, b3 + (al,)) * shared
                         * sh(eta) * np.exp((th(l) - th(al)) / 3)
                         / (scalar_d_l(th(l), l, spec) * sh(th(al) - th(l) - eta)))
                for k in b2:
                    if k != al:
                        coeff *= (sh(th(l) - th(k)) / sh(th(l) - th(k) + eta)
                                  * sh(th(al) - th(k) + eta) / sh(th(al) - th(k)))
                target = BasisIndex(
                    tuple(sorted(tuple(q for q in b2 if q != al) + (l,))),
                    tuple(sorted(b3 + (al,))))
                add(target, coeff)

    else:
        raise ValueError(f"unsupported operator {op!r}; "
                         "expected one of D33, D23, D32, B3, C3")

    return sorted(terms.items(), key=lambda kv: kv[0].sort_key())


OP_ENTRY = {"D33": (3, 3), "D23": (2, 3), "D32": (3, 2), "B3": (1, 3), "C3": (3, 1)}


def act_on_bra_dense(op: str, u: complex, idx: BasisIndex, spec: ChainSpec) -> np.ndarray:
    """Oracle route: <idx| Op(u) by direct action of the monodromy entry."""
    i, j = OP_ENTRY[op]
    return apply_entry_bra(u, i, j, left_state(idx, spec), spec)


def decomposition_residual(op: str, u: complex, idx: BasisIndex, spec: ChainSpec) -> float:
    """Worst relative deviation between act_on_bra and the dense action."""
    dense = act_on_bra_dense(op, u, idx, spec)
    rebuilt = np.zeros(spec.dim, dtype=complex)
    for target, coeff in act_on_bra(op, u, idx, spec):
        rebuilt += coeff * left_state(target, spec)
    scale = max(float(np.abs(dense).max()), 1.0)
    return float(np.abs(dense - rebuilt).max()) / scale


def sun_dnn_residual(u: complex, idx: BasisIndex, spec: ChainSpec) -> float:
    """Eigen-relation of the corner entry D^n_n on a rank-n left state."""
    bra = left_state(idx, spec)
    coeff = scalar_d(u, spec)
    for k in idx.blocks[-1]:
        coeff *= np.sinh(u - spec.theta[k - 1] + spec.eta) / np.sinh(u - spec.theta[k - 1])
    acted = apply_entry_bra(u, spec.n, spec.n, bra, spec)
    scale = max(float(np.abs(acted).max()), 1.0)
    return float(np.abs(acted - coeff * bra).max()) / scale
