"""Monodromy matrix, antiperiodic transfer matrix, and derived operators.

The monodromy matrix is the ordered product of R-matrices over sites N..1
acting on auxiliary x quantum space; it is held as the n x n array of its
auxiliary blocks, each as the flat keys and values of its nonzero entries.
The blocks are built by appending one site per step: the site being
appended is a fresh (fastest) tensor factor, and each new entry is an old
entry times one of the R-matrix's nonzero weights, so no Kronecker product
and no n^(N+1)-dimensional object is ever materialized.  The transfer
matrix and the dense blocks are scatters of that one build.  The R-matrix
conserves flavor, so a block sends each weight (flavor-content) sector of
the chain to one other sector: the monodromy-algebra checks group each
block's entries once into dense tiles keyed by (row weight, column weight)
(``_Tiles``), where a product is one small GEMM per pair of tiles that meet
on the middle weight.  ``apply_entry`` acts with one entry on a vector site
by site, as a matrix product operator, unbuilt.

Entry naming: A = block (1,1), B_i = block (1,i), C^i = block (i,1),
D^i_j = block (i,j) for i, j >= 2.  The antiperiodic transfer matrix is the
twisted auxiliary trace; for rank 3 it reads B_2(u) + D^2_3(u) + C^3(u).
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import matmul

import numpy as np

from .chain import ChainSpec
from .rmatrix import local_hamiltonian, r_matrix, twist_matrix
from .tensor_core import _rel_resid, _worst, embed_two_site, kron_chain

__all__ = [
    "scalar_a", "scalar_d", "monodromy_blocks", "apply_entry", "apply_entry_bra",
    "transfer", "twist_operator",
    "vacuum_ket", "vacuum_bra", "conjugate_vacuum_ket", "conjugate_vacuum_bra",
    "product_identity_residual", "global_hamiltonian", "fd4_derivative",
    "transfer_log_derivative_residual", "exchange_relation_residuals",
]


def _q(x: np.ndarray, fam: np.ndarray) -> np.ndarray:
    """prod_k sinh(x - fam_k) at every point of x: (..., M) by (..., K) -> (..., M)."""
    return np.sinh(x[..., :, None] - fam[..., None, :]).prod(axis=-1)


def _a(x: np.ndarray, theta: np.ndarray, eta: complex) -> np.ndarray:
    """Vacuum eigenvalue a(x) = prod_l sinh(x - theta_l + eta) at every point of x."""
    return np.sinh(x[..., :, None] - theta + eta).prod(axis=-1)


def _a_product(spec: ChainSpec) -> complex:
    """prod_j a(theta_j) over the inhomogeneity points."""
    theta = np.array(spec.theta)
    return np.prod(_a(theta, theta, spec.eta))


def scalar_a(u: complex, spec: ChainSpec) -> complex:
    """Vacuum eigenvalue of the (1,1) entry: prod_l sinh(u - theta_l + eta)."""
    return complex(_a(np.array([u]), np.array(spec.theta), spec.eta)[0])


def scalar_d(u: complex, spec: ChainSpec) -> complex:
    """Vacuum weight of the lower-diagonal entries: prod_l sinh(u - theta_l)."""
    return complex(_q(np.array([u]), np.array(spec.theta))[0])


def _pairs(keys: np.ndarray, ptr: np.ndarray):
    """Index pairs (p, q) of a sparse join: q runs over ptr[keys[p]] up to
    ptr[keys[p] + 1], p ascending, q ascending within each p."""
    lo = ptr[keys]
    counts = ptr[keys + 1] - lo
    p = np.repeat(np.arange(len(keys)), counts)
    q = np.arange(len(p)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return p, q


def _sparse_blocks(u: complex, n: int, eta: complex, thetas) -> list:
    """Auxiliary blocks of R_{0N}(u - theta_N) ... R_{01}(u - theta_1), each
    as the flat keys row * dim + col of its nonzero entries, in increasing
    order, and their values.

    The build starts from the identity on no sites.  Appending a site gives
    block T_ij the entries T_kj[r, s] * <i c|R|k d> at row r n + c and
    column s n + d, over the R-matrix's nonzero weights.  The R-matrix obeys
    the ice rule, so (i, c, d) fixes k and no entry is ever a sum.
    """
    a = b = np.arange(n)        # auxiliary row and column of each entry
    keys, vals, dim = np.zeros(n, dtype=np.int64), np.ones(n, dtype=complex), 1
    for theta in thetas:        # site 1 first; each new site is the fastest
        w = r_matrix(u - theta, n, eta).reshape(n, n, n, n).transpose(2, 0, 1, 3)
        k, i, c, d = np.nonzero(w)          # w[k, i, c, d] = <i c|R|k d>, by k
        p, q = _pairs(a, np.searchsorted(k, np.arange(n + 1)))
        rows, cols = np.divmod(keys[p], dim)
        keys = (rows * n + c[q]) * (dim * n) + cols * n + d[q]
        a, b, vals = i[q], b[p], vals[p] * w[k[q], i[q], c[q], d[q]]
        dim *= n
    block = a * n + b
    order = np.argsort(block * dim * dim + keys)
    bounds = np.searchsorted(block[order], np.arange(n * n + 1))
    blocks = [(keys[order[lo:hi]], vals[order[lo:hi]])
              for lo, hi in zip(bounds, bounds[1:])]
    return [blocks[row * n:(row + 1) * n] for row in range(n)]


def _dense(keys: np.ndarray, vals: np.ndarray, dim: int) -> np.ndarray:
    """The dim x dim array holding vals at the flat keys, 0 elsewhere."""
    out = np.zeros(dim * dim, dtype=complex)
    out[keys] += vals
    return out.reshape(dim, dim)


def monodromy_blocks(u: complex, spec: ChainSpec) -> list:
    """All n^2 auxiliary blocks at u: the dense oracle for ``apply_entry``."""
    return [[_dense(keys, vals, spec.dim) for keys, vals in row]
            for row in _sparse_blocks(complex(u), spec.n, spec.eta, spec.theta)]


def _weights(n: int, N: int):
    """The weight (flavor content) of each of the n^N basis states as an
    index, each state's place among the states of its weight, and the states
    of each weight in increasing order."""
    digits = np.indices((n,) * N).reshape(N, -1)
    code = sum((digits == f).sum(axis=0) * (N + 1) ** f for f in range(n))
    _, weight, sizes = np.unique(code, return_inverse=True, return_counts=True)
    order = np.argsort(weight, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return weight, place, np.split(order, np.cumsum(sizes)[:-1])


class _Tiles:
    """A dim x dim operator held as dense tiles keyed by (weight of row,
    weight of column); ``sectors[w]`` lists the states of weight w, so tile
    (r, c) is the operator's submatrix on sectors[r] x sectors[c].  Every
    entry outside the tiles is an exact 0.

    It has what the checks use of a dense array: ``@``, ``+``, ``-``, scalar
    ``*`` and ``/``, ``sum()`` and ``abs(x).max()``.  A product joins tiles
    on the middle weight, one GEMM per pair; a sum merges tiles by key.
    """

    __array_ufunc__ = None      # numpy scalars defer to the methods below

    def __init__(self, tiles: dict, sectors: list):
        self.tiles, self.sectors = tiles, sectors

    @classmethod
    def group(cls, keys: np.ndarray, vals: np.ndarray, weight: np.ndarray,
              place: np.ndarray, sectors: list) -> "_Tiles":
        """The entries at distinct flat keys, each in the tile of its row's
        and its column's weight, so an entry that breaks a block's weight
        rule lands in a tile of its own.  The tiles are consecutive slices
        of one buffer, filled by one scatter."""
        rows, cols = np.divmod(keys, len(weight))
        ids, at = np.unique(weight[rows] * len(sectors) + weight[cols],
                            return_inverse=True)
        r, c = np.divmod(ids, len(sectors))
        sizes = np.array([len(states) for states in sectors])
        height, width = sizes[r], sizes[c]
        start = np.cumsum(height * width) - height * width
        buf = np.zeros(np.sum(height * width), dtype=complex)
        buf[start[at] + place[rows] * width[at] + place[cols]] = vals
        tiles = {(int(i), int(j)): buf[s:s + h * w].reshape(h, w)
                 for i, j, h, w, s in zip(r, c, height, width, start)}
        return cls(tiles, sectors)

    def dense(self) -> np.ndarray:
        dim = sum(len(states) for states in self.sectors)
        out = np.zeros((dim, dim), dtype=complex)
        for (r, c), t in self.tiles.items():
            out[np.ix_(self.sectors[r], self.sectors[c])] = t
        return out

    def _new(self, tiles: dict) -> "_Tiles":
        return _Tiles(tiles, self.sectors)

    def __matmul__(self, other: "_Tiles") -> "_Tiles":
        right: dict = {}        # other's tiles by their row weight
        for (m, c), t in other.tiles.items():
            right.setdefault(m, []).append((c, t))
        out: dict = {}
        for (r, m), s in self.tiles.items():
            for c, t in right.get(m, ()):
                p = s @ t
                out[r, c] = out[r, c] + p if (r, c) in out else p
        return self._new(out)

    def _merge(self, other: "_Tiles", both, alone) -> "_Tiles":
        out = dict(self.tiles)
        for key, t in other.tiles.items():
            out[key] = both(out[key], t) if key in out else alone(t)
        return self._new(out)

    def __add__(self, other: "_Tiles") -> "_Tiles":
        return self._merge(other, np.add, lambda t: t)

    def __radd__(self, zero):   # sum() starts from 0
        return self if zero == 0 else NotImplemented

    def __sub__(self, other: "_Tiles") -> "_Tiles":
        return self._merge(other, np.subtract, np.negative)

    def __mul__(self, scalar) -> "_Tiles":
        return self._new({key: t * scalar for key, t in self.tiles.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "_Tiles":
        return self._new({key: t / scalar for key, t in self.tiles.items()})

    def __abs__(self) -> "_Tiles":
        return self._new({key: np.abs(t) for key, t in self.tiles.items()})

    def max(self) -> float:
        """Largest entry, NaN when any entry is NaN; 0 outside the tiles."""
        return _worst([0.0, *(t.max() for t in self.tiles.values())])


def _tiled_blocks(u: complex, spec: ChainSpec) -> list:
    """All n^2 auxiliary blocks at u, each grouped into ``_Tiles`` once."""
    weights = _weights(spec.n, spec.N)
    return [[_Tiles.group(keys, vals, *weights) for keys, vals in row]
            for row in _sparse_blocks(complex(u), spec.n, spec.eta, spec.theta)]


def _site_matrices(u: complex, spec: ChainSpec, site_transpose: bool) -> list:
    """R(u - theta_l) of every site l, each transposed on its site for a bra."""
    n = spec.n
    rs = [r_matrix(u - theta, n, spec.eta) for theta in spec.theta]
    if site_transpose:
        rs = [r.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)
              for r in rs]
    return rs


def _sweep(rs: list, i: int, j: int, rows: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """Entry (i, j) of the monodromy, a matrix product operator of bond
    dimension n, applied site by site to each of the ``rows``: the auxiliary
    index enters as a bond in state j next to site 1, each site's matrix in
    ``rs`` acts on the (bond, site) pair, the bond is swapped past the site,
    and after site N it is read at i.  The rows are the leading axis of every
    product, so each row gets the bits of its one-row sweep."""
    n, k = spec.n, len(rows)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"entry ({i},{j}) outside 1..{n}")
    w = np.zeros((k, n, spec.dim), dtype=complex)
    w[:, j - 1] = rows
    for l, r in enumerate(rs):
        w = r @ w.reshape(k, n ** l, n * n, -1)
        w = w.reshape(k, n ** l, n, n, -1).swapaxes(2, 3)
    return w.reshape(k, spec.dim, n)[:, :, i - 1]


def apply_entry(u: complex, i: int, j: int, vec: np.ndarray,
                spec: ChainSpec) -> np.ndarray:
    """T_ij(u) @ vec for the monodromy entry (i, j), 1-indexed."""
    return _sweep(_site_matrices(u, spec, False), i, j, np.asarray(vec)[None], spec)[0]


def apply_entry_bra(u: complex, i: int, j: int, vec: np.ndarray,
                    spec: ChainSpec) -> np.ndarray:
    """vec @ T_ij(u); the transpose transposes each R-matrix on its site."""
    return _sweep(_site_matrices(u, spec, True), i, j, np.asarray(vec)[None], spec)[0]


def _trace_terms(n: int) -> list:
    """(i, k, g[i, k]) at the nonzero entries of the cyclic twist g: the
    twisted trace is the sum of g[i, k] T[k][i] over them."""
    g = twist_matrix(n)
    return [(i, k, g[i, k]) for i, k in zip(*np.nonzero(g))]


def _twisted_trace(u: complex, n: int, eta: complex, thetas) -> np.ndarray:
    """sum_{i,k} g[i, k] T[k][i] over the monodromy blocks T, g the cyclic
    twist, scattered block by block into one dense array."""
    blocks, dim = _sparse_blocks(u, n, eta, thetas), n ** len(thetas)
    out = np.zeros(dim * dim, dtype=complex)
    for i, k, g in _trace_terms(n):
        keys, vals = blocks[k][i]
        out[keys] += vals * g
    return out.reshape(dim, dim)


def transfer(u: complex, spec: ChainSpec) -> np.ndarray:
    """Antiperiodic transfer matrix: twisted trace of the monodromy blocks."""
    return _twisted_trace(complex(u), spec.n, spec.eta, spec.theta)


def _tiled_transfer(u: complex, spec: ChainSpec) -> _Tiles:
    """``transfer`` as ``_Tiles``: the twisted trace of the blocks it reads,
    each grouped into tiles."""
    blocks = _sparse_blocks(complex(u), spec.n, spec.eta, spec.theta)
    weights = _weights(spec.n, spec.N)
    return sum(_Tiles.group(*blocks[k][i], *weights) * g
               for i, k, g in _trace_terms(spec.n))


def twist_operator(spec: ChainSpec) -> np.ndarray:
    """Global twist: the cyclic shift applied at every site."""
    g = twist_matrix(spec.n)
    return kron_chain([g] * spec.N)


def vacuum_ket(spec: ChainSpec) -> np.ndarray:
    v = np.zeros(spec.dim, dtype=complex)
    v[0] = 1.0
    return v


def conjugate_vacuum_ket(spec: ChainSpec) -> np.ndarray:
    """All-sites-highest state; the image of the vacuum under the twist."""
    v = np.zeros(spec.dim, dtype=complex)
    v[-1] = 1.0
    return v


# Pairings are bilinear, so each reference bra has the entries of its ket.
vacuum_bra, conjugate_vacuum_bra = vacuum_ket, conjugate_vacuum_ket


def product_identity_residual(spec: ChainSpec) -> float:
    """prod_j t(theta_j) = prod_j scalar_a(theta_j) * twist_operator, with
    both sides as ``_Tiles``."""
    prod = reduce(matmul, (_tiled_transfer(t, spec) for t in spec.theta))
    twist = twist_operator(spec).ravel()
    keys = np.flatnonzero(twist)
    rhs = complex(_a_product(spec)) * _Tiles.group(keys, twist[keys],
                                                   *_weights(spec.n, spec.N))
    scale = max(float(abs(prod).max()), float(abs(rhs).max()), 1e-30)
    return float(abs(prod - rhs).max()) / scale


# ---------------------------------------------------------------------------
# Hamiltonian at the homogeneous point
# ---------------------------------------------------------------------------

def global_hamiltonian(n: int, N: int, eta: complex) -> np.ndarray:
    """Nearest-neighbour Hamiltonian with the twisted closure bond.

    Bulk bonds embed the two-site density directly; the closure bond couples
    site N to the twist-conjugated site 1.  Defined at the homogeneous point
    (all inhomogeneities zero), which is where the transfer-matrix
    log-derivative reproduces it.
    """
    h2 = local_hamiltonian(n, eta)
    ham = np.zeros((n ** N, n ** N), dtype=complex)
    for j in range(1, N):
        ham += embed_two_site(h2, j, j + 1, n, N)
    g = twist_matrix(n)
    h_twisted = kron_chain([np.eye(n, dtype=complex), g]) @ h2 @ \
        kron_chain([np.eye(n, dtype=complex), np.linalg.inv(g)])
    return ham + embed_two_site(h_twisted, N, 1, n, N)


# Step of fd4_derivative: f is sampled at u0 +- FD4_STEP and u0 +- 2 FD4_STEP.
FD4_STEP = 1e-4


def fd4_derivative(f, u0: complex):
    """Fourth-order central difference derivative of a matrix-valued map."""
    h = FD4_STEP
    return (-f(u0 + 2 * h) + 8 * f(u0 + h) - 8 * f(u0 - h) + f(u0 - 2 * h)) / (12 * h)


def homogeneous_transfer(u: complex, n: int, N: int, eta: complex) -> np.ndarray:
    """Transfer matrix of the homogeneous chain (all theta = 0)."""
    return _twisted_trace(complex(u), n, eta, (0.0,) * N)


def transfer_log_derivative_residual(n: int, N: int, eta: complex) -> float:
    """Check H = sinh(eta) t'(0) t(0)^{-1} at the homogeneous point.

    t'(0) comes from the fourth-order difference oracle so the comparison is
    independent of the analytic derivative inside local_hamiltonian.
    """
    t0 = homogeneous_transfer(0.0, n, N, eta)
    tp = fd4_derivative(lambda u: homogeneous_transfer(u, n, N, eta), 0.0)
    lhs = np.sinh(eta) * tp @ np.linalg.inv(t0)
    return _rel_resid(global_hamiltonian(n, N, eta), lhs)


# ---------------------------------------------------------------------------
# Exchange relations
# ---------------------------------------------------------------------------

def exchange_relation_residuals(u: complex, v: complex, spec: ChainSpec) -> dict:
    """Residuals of the quadratic exchange relations at spectral points (u, v).

    Every relation is instantiated as an operator identity for all valid
    index combinations; the value reported per family is the worst elementwise
    residual divided by max(|LHS|, |RHS|, 1).  The products are formed on the
    blocks' weight tiles, and every entry outside the tiles is an exact 0,
    so the maximum over the tiles is the dense one.
    """
    Tu, Tv = (_tiled_blocks(at, spec) for at in (u, v))
    return _relation_residuals(Tu, Tv, u - v, spec)


def _relation_residuals(Tu, Tv, x: complex, spec: ChainSpec) -> dict:
    """Worst residual per relation family of the blocks Tu, Tv at u - v = x.

    A block is a dense array or a ``_Tiles``: the relations use only the
    operations the two share.
    """
    n, eta = spec.n, spec.eta
    shx = np.sinh(x)
    shxe = np.sinh(x + eta)

    def T(at, i, j):
        return (Tu if at == "u" else Tv)[i - 1][j - 1]

    # R(x) and R(-x) as (a, b, c, d) arrays; R(r, a, b, c, d) = <a b|r|c d>
    rx, rmx = (r_matrix(s, n, eta).reshape(n, n, n, n) for s in (x, -x))

    def R(r, a, b, c, d):
        return r[a - 1, b - 1, c - 1, d - 1]

    out: dict = {}

    def record(family, lhs, rhs):
        scale = max(float(abs(lhs).max()), float(abs(rhs).max()), 1.0)
        resid = float(abs(lhs - rhs).max()) / scale
        out[family] = _worst((out.get(family, 0.0), resid))

    rng2 = range(2, n + 1)

    # C D; the right-hand side's products do not depend on (l, k)
    for i in rng2:
        uv = {(al, be): T("u", al, i) @ T("v", be, 1) for al in rng2 for be in rng2}
        for l in rng2:
            for k in rng2:
                lhs = T("v", l, 1) @ T("u", k, i)
                rhs = sum(R(rx, k, l, al, be) / shx * uv[al, be]
                          for al in rng2 for be in rng2)
                rhs = rhs - R(rx, 1, i, i, 1) / shx * (T("v", l, i) @ T("u", k, 1))
                record("CD", lhs, rhs)

    # C A
    for k in rng2:
        lhs = T("v", k, 1) @ T("u", 1, 1)
        rhs = (np.sinh(x - eta) / shx * (T("u", 1, 1) @ T("v", k, 1))
               + R(rmx, k, 1, 1, k) / shx * (T("v", 1, 1) @ T("u", k, 1)))
        record("CA", lhs, rhs)

    # [C, B], both printed forms
    for i in rng2:
        for l in rng2:
            lhs = T("u", i, 1) @ T("v", 1, l) - T("v", 1, l) @ T("u", i, 1)
            rhs1 = (R(rx, l, 1, 1, l) * (T("v", 1, 1) @ T("u", i, l))
                    - R(rx, i, 1, 1, i) * (T("u", 1, 1) @ T("v", i, l))) / shx
            rhs2 = (R(rmx, 1, l, l, 1) * (T("u", i, l) @ T("v", 1, 1))
                    - R(rmx, 1, i, i, 1) * (T("v", i, l) @ T("u", 1, 1))) / shx
            record("CB-a", lhs, rhs1)
            record("CB-b", lhs, rhs2)

    # A B
    for i in rng2:
        lhs = T("u", 1, 1) @ T("v", 1, i)
        rhs = (np.sinh(x - eta) / shx * (T("v", 1, i) @ T("u", 1, 1))
               + R(rmx, 1, i, i, 1) / shx * (T("u", 1, i) @ T("v", 1, 1)))
        record("AB", lhs, rhs)

    # D B; the right-hand side's products do not depend on (i, l)
    for j in rng2:
        vu = {(al, be): T("v", 1, be) @ T("u", j, al) for al in rng2 for be in rng2}
        for i in rng2:
            for l in rng2:
                lhs = T("u", j, i) @ T("v", 1, l)
                rhs = sum(R(rx, al, be, i, l) / shx * vu[al, be]
                          for al in rng2 for be in rng2)
                rhs = rhs - R(rx, j, 1, 1, j) / shx * (T("u", 1, i) @ T("v", j, l))
                record("DB", lhs, rhs)

    # B B and C C; the right-hand sides' products do not depend on (i, j)
    vu = {(al, be): T("v", 1, be) @ T("u", 1, al) for al in rng2 for be in rng2}
    for i in rng2:
        for j in rng2:
            lhs = T("u", 1, i) @ T("v", 1, j)
            rhs = sum(R(rx, al, be, i, j) / shxe * vu[al, be]
                      for al in rng2 for be in rng2)
            record("BB", lhs, rhs)

    uv = {(al, be): T("u", al, 1) @ T("v", be, 1) for al in rng2 for be in rng2}
    for i in rng2:
        for j in rng2:
            lhs = T("v", j, 1) @ T("u", i, 1)
            rhs = sum(R(rx, i, j, al, be) / shxe * uv[al, be]
                      for al in rng2 for be in rng2)
            record("CC", lhs, rhs)

    # T T
    for al in range(1, n + 1):
        for be in range(1, n + 1):
            lhs = T("u", al, be) @ T("v", al, be) - T("v", al, be) @ T("u", al, be)
            record("TT1", lhs, 0 * lhs)

    # TT2's right-hand side holds TT3's left-hand products and the other way
    # round, so the 8 products of a pair {al, be} serve both of its orders
    for al, be in combinations(range(1, n + 1), 2):
        orders = ((al, be), (be, al))
        diag = {(a, b): (T("u", a, a) @ T("v", b, b), T("v", b, b) @ T("u", a, a))
                for a, b in orders}
        off = {(a, b): (T("u", a, b) @ T("v", b, a), T("v", b, a) @ T("u", a, b))
               for a, b in orders}
        for a, b in orders:
            rhs = (R(rx, b, a, a, b) * off[a, b][1]
                   - R(rx, a, b, b, a) * off[b, a][0]) / shx
            record("TT2", diag[a, b][0] - diag[a, b][1], rhs)
            rhs = R(rx, a, b, b, a) / shx * (diag[a, b][1] - diag[b, a][0])
            record("TT3", off[a, b][0] - off[a, b][1], rhs)
        del diag, off, rhs      # one pair's products alive at a time

    return out
