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
from math import prod

import numpy as np

from .chain import ChainSpec
from .errors import PoleProximityError, require_three_flavors
from .monodromy import (_q, _site_matrices, _sweep, apply_entry_bra,
                        scalar_a, vacuum_bra, vacuum_ket)
from .tensor_core import _rel_resid

POLE_TOL = 1e-12


@dataclass(frozen=True, init=False)
class BasisIndex:
    """Sorted disjoint site blocks (1-indexed), one per flavor 2..n.

    Built from the blocks in flavor order, ``BasisIndex(b2, b3, ...)``; a
    three-flavor label reads its two blocks as ``block2`` and ``block3``.
    """

    blocks: tuple

    def __init__(self, *blocks):
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


def _grown_rows(labels, spec: ChainSpec, bra: bool) -> np.ndarray:
    """Left (``bra``) or right states of ``enumerate_basis`` labels stacked
    as rows: each extends the row of its label minus the last step by one
    entry, in one sweep per last step (flavor, site); in sorted order, a
    parent's last step comes before its children's."""
    rows = np.empty((len(labels), spec.dim), dtype=complex)
    rows[0] = vacuum_bra(spec) if bra else vacuum_ket(spec)
    row = {_steps(idx): r for r, idx in enumerate(labels)}
    groups: dict = {}
    for steps, r in list(row.items())[1:]:
        groups.setdefault(steps[-1], []).append((r, row[steps[:-1]]))
    rs = [_site_matrices(u, spec, bra) for u in spec.theta]
    for (f, p), pairs in sorted(groups.items()):
        grown, parents = np.array(pairs).T
        rows[grown] = _sweep(rs[p - 1], *((f, 1) if bra else (1, f)), rows[parents], spec)
    return rows


def basis_states(spec: ChainSpec):
    """The labels of ``enumerate_basis`` with their left and right states
    stacked as rows."""
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


def _d_cancelled(u: complex, spec: ChainSpec, cancel) -> complex:
    """scalar_d(u) / prod_{q in cancel} sinh(u - theta_q), cancelled exactly.

    Each cancelled site uses the identity d(u)/sinh(u - theta_q) =
    prod_{j != q} sinh(u - theta_j), which is entire, so u exactly at a
    theta point yields the analytic limit.  A near-coincidence that is not
    exact is refused: the caller sits close to a pole of the printed
    formula without being on its removable point.
    """
    for j in sorted(cancel):
        t = spec.theta[j - 1]
        s = np.sinh(u - t)
        if s != 0 and abs(s) < POLE_TOL:
            raise PoleProximityError(
                f"u = {u} within {POLE_TOL} of pole at theta_{j} = {t}")
    kept = [t for j, t in enumerate(spec.theta, start=1) if j not in cancel]
    return complex(_q(np.array([u]), np.array(kept))[0])


def _one_flavor_norm(sites: tuple, spec: ChainSpec) -> complex:
    """f_factor on sites already checked: sorted, distinct, within 1..N."""
    eta = spec.eta
    th = lambda p: spec.theta[p - 1]
    val = 1.0 + 0.0j
    for l in sites:
        val *= (np.sinh(eta) * _d_cancelled(th(l), spec, (l,))
                * scalar_a(th(l), spec))
        for k in sites:
            if k != l:
                val *= np.sinh(th(l) - th(k) + eta) / np.sinh(th(l) - th(k))
    return complex(val)


def _norms(labels, spec: ChainSpec) -> np.ndarray:
    """Closed-form norm <idx|idx> of each three-flavor label: the one-flavor
    norms of both blocks times the cross term sinh(theta_k - theta_l - eta)
    / sinh(theta_k - theta_l), k in block3, l in block2, each distinct
    block's norm taken once, from a table that lives for this call."""
    th, one, out = (lambda p: spec.theta[p - 1]), {}, []
    for idx in labels:
        require_three_flavors("the closed-form norm", spec.n, idx.blocks)
        for b in idx.blocks:
            if b not in one:
                one[b] = _one_flavor_norm(b, spec)
        cross = prod((np.sinh(th(k) - th(l) - spec.eta) / np.sinh(th(k) - th(l))
                      for k in idx.block3 for l in idx.block2), start=1.0 + 0.0j)
        out.append(complex(one[idx.block2] * one[idx.block3] * cross))
    return np.array(out)


def verify_orthogonality(spec: ChainSpec, states=None) -> dict:
    """Gram diagnostics: diagonal vs closed form, off-diagonal leakage, of
    ``states``, the ``basis_states`` of the chain (built when not given)."""
    labels, bras, kets = states or basis_states(spec)
    gram = bras @ kets.T
    expected = _norms(labels, spec)
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


def identity_resolution_residual(spec: ChainSpec, states=None) -> float:
    """Frobenius residual of sum_idx |idx><idx| / G_idx against the identity,
    over ``states`` as in ``verify_orthogonality``."""
    labels, bras, kets = states or basis_states(spec)
    norms = _norms(labels, spec)
    return float(np.linalg.norm((kets / norms[:, None]).T @ bras - np.eye(spec.dim)))


# ---------------------------------------------------------------------------
# Analytic action of operators on left states
# ---------------------------------------------------------------------------

def _move(idx: BasisIndex, site: int, flavor=None) -> BasisIndex:
    """``idx`` with ``site`` taken out of its block and, given a flavor, put
    into that flavor's block."""
    blocks = [tuple(q for q in b if q != site) for b in idx.blocks]
    if flavor is not None:
        blocks[flavor - 2] = tuple(sorted(blocks[flavor - 2] + (site,)))
    return BasisIndex(*blocks)


def act_on_bra(op: str, u: complex, idx: BasisIndex, spec: ChainSpec):
    """Decomposition of <idx| Op(u) over basis labels.

    Supported ops: D33, D23, D32, B3, C3 (monodromy entries (3,3), (2,3),
    (3,2), (1,3), (3,1)).  Returns a list of (BasisIndex, coefficient) with
    pairwise distinct target labels; exact zeros are dropped, so a vanishing
    action returns the empty list.  Ranks other than three are refused.
    """
    require_three_flavors("act_on_bra", spec.n, idx.blocks)
    eta, sh = spec.eta, np.sinh
    th = lambda p: spec.theta[p - 1]
    b2, b3 = idx.block2, idx.block3
    u = complex(u)

    def a_on(sites, skip=None):
        """prod_{k in sites, k != skip} sinh(u - theta_k + eta)"""
        return prod(sh(u - th(k) + eta) for k in sites if k != skip)

    def ratio(l, sites, s):
        """prod_{k in sites, k != l} sinh(theta_l - theta_k + s) / sinh(theta_l - theta_k)"""
        return prod(sh(th(l) - th(k) + s) / sh(th(l) - th(k))
                    for k in sites if k != l)

    terms = []
    if op == "D33":
        terms.append((idx, _d_cancelled(u, spec, b3) * a_on(b3)))
    elif op in ("D23", "B3"):
        sign = 1 if op == "D23" else -1
        for l in b3:
            coeff = (sh(eta) * np.exp(sign * (u - th(l)) / 3)
                     * _d_cancelled(u, spec, b3) * a_on(b3, skip=l)
                     * ratio(l, b3, -eta))
            if op == "D23":
                terms.append((_move(idx, l, 2), coeff))
                continue
            # first family: theta_l leaves the flavor-3 block entirely
            terms.append((_move(idx, l),
                          coeff * scalar_a(th(l), spec) * ratio(l, b2, -eta)))
            # second family: it replaces a flavor-2 member instead
            for al in b2:
                terms.append((_move(_move(idx, al), l, 2),
                              coeff * sh(eta) * np.exp(-(th(al) - th(l)) / 3)
                              / sh(th(l) - th(al)) * scalar_a(th(al), spec)
                              * ratio(al, b2, -eta)))
    elif op == "D32":
        for l in b2:
            terms.append((_move(idx, l, 3), sh(eta) * np.exp(-(u - th(l)) / 3)
                          * _d_cancelled(u, spec, b3 + (l,))
                          * ratio(l, b2, eta) * a_on(b3)))
    elif op == "C3":
        for l in idx.complement(spec.N):
            shared = a_on(b3) / _d_cancelled(th(l), spec, (l,))
            # first family: complement point joins the flavor-3 block
            terms.append((_move(idx, l, 3), np.exp((u - th(l)) / 3) * shared
                          * _d_cancelled(u, spec, b3 + (l,)) / ratio(l, b3, eta)))
            # second family: it replaces a flavor-2 member, which joins flavor 3
            for al in b2:
                terms.append((_move(_move(idx, l, 2), al, 3),
                              shared * np.exp((u - th(al)) / 3)
                              * _d_cancelled(u, spec, b3 + (al,))
                              * sh(eta) * np.exp((th(l) - th(al)) / 3)
                              / sh(th(al) - th(l) - eta) * ratio(al, b2, eta)
                              / ratio(l, _move(idx, al).sites, eta)))
    else:
        raise ValueError(f"unsupported operator {op!r}; "
                         "expected one of D33, D23, D32, B3, C3")
    return sorted(((t, c) for t, c in terms if c != 0),
                  key=lambda kv: kv[0].sort_key())


OP_ENTRY = {"D33": (3, 3), "D23": (2, 3), "D32": (3, 2), "B3": (1, 3), "C3": (3, 1)}


def decomposition_residual(op: str, u: complex, idx: BasisIndex, bras: dict,
                           spec: ChainSpec) -> float:
    """Worst relative deviation between act_on_bra and the direct action of
    the monodromy entry; ``bras`` maps every basis label to its left state."""
    require_three_flavors("decomposition_residual", spec.n, idx.blocks)
    dense = apply_entry_bra(u, *OP_ENTRY[op], bras[idx], spec)
    rebuilt = np.zeros(spec.dim, dtype=complex)
    for target, coeff in act_on_bra(op, u, idx, spec):
        rebuilt += coeff * bras[target]
    return _rel_resid(dense, rebuilt)
