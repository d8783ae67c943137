"""Scalar products of transfer eigenstates and state reconstruction.

Every transfer eigenstate is pinned down, up to scale, by its pairings with
the separated basis bras.  Those pairings reduce to closed-form functions of
the eigenvalue at the inhomogeneity points, so the full eigenvector can be
rebuilt from N numbers.  This module evaluates the closed forms, performs the
reconstruction, and runs the shrink-to-homogeneous experiment for the
conjectured homogeneous limit of the construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .chain import ChainSpec
from .errors import (DegenerateNormalizationError, PoleProximityError,
                     require_three_flavors)
from .monodromy import (FD4_STEP, _a_product, _dense, _sparse_blocks,
                        fd4_derivative, homogeneous_transfer)
from .sov_basis import (POLE_TOL, _grown_rows, _norms, _site_tuple,
                        enumerate_basis, f_factor)
from .spectrum import _sector_spectrum, brute_force_spectrum


def _lambda_tuple(lambda_at_theta, N: int) -> tuple:
    """Accept a 1-indexed site map or a length-N sequence of eigenvalues."""
    if isinstance(lambda_at_theta, dict):
        if set(lambda_at_theta) != set(range(1, N + 1)):
            raise ValueError(f"eigenvalue map must name sites 1..{N} exactly, "
                             f"got {list(lambda_at_theta)}")
        return tuple(complex(lambda_at_theta[j]) for j in range(1, N + 1))
    vals = tuple(complex(v) for v in lambda_at_theta)
    if len(vals) != N:
        raise ValueError(f"expected {N} eigenvalue samples, got {len(vals)}")
    return vals


def g_m_function(vset, uset, spec: ChainSpec) -> complex:
    """Determinant kernel coupling an unprimed point set to a primed one.

    Equal to the ratio form (Cauchy-type determinant times a double sinh
    product) wherever that form is defined, but evaluated from the
    row-cleared matrix

        Mhat[a, k] = sinh(eta) e^{-(u_a - v_k)/3}
                     prod_{k' != k} sinh(u_a - v_{k'} + eta) sinh(u_a - v_{k'})

    divided by the separation products of each set, so coincidences BETWEEN
    the sets (u_a = v_k) are exact rather than removable.  Coincidences
    WITHIN a set are genuine poles and raise.
    """
    us = [complex(u) for u in uset]
    vs = [complex(v) for v in vset]
    if len(us) != len(vs):
        raise ValueError("point sets must have equal size")
    m = len(us)
    if m == 0:
        return 1.0 + 0.0j
    eta = spec.eta
    den = 1.0 + 0.0j
    for k in range(m):
        for l in range(k + 1, m):
            su = np.sinh(us[l] - us[k])
            sv = np.sinh(vs[k] - vs[l])
            if min(abs(su), abs(sv)) < POLE_TOL:
                raise PoleProximityError(
                    "coincident arguments within one point set")
            den *= su * sv
    mhat = np.empty((m, m), dtype=complex)
    for a in range(m):
        for k in range(m):
            entry = np.sinh(eta) * np.exp(-(us[a] - vs[k]) / 3)
            for kp in range(m):
                if kp != k:
                    entry *= (np.sinh(us[a] - vs[kp] + eta)
                              * np.sinh(us[a] - vs[kp]))
            mhat[a, k] = entry
    return complex(np.linalg.det(mhat) / den)


def _kernel(sites: tuple, spec: ChainSpec) -> tuple:
    """Chain-only half of ``scalar_F`` for the sorted unprimed set ``sites``.

    Returns the complement of the set, one row per primed set of the same
    size, (primed, determinant kernel times cross factor, one-flavor norm),
    and prod_k a(theta_k) over all sites.
    """
    comp = tuple(q for q in range(1, spec.N + 1) if q not in sites)
    eta = spec.eta
    th = lambda p: spec.theta[p - 1]
    rows = []
    for primed in combinations(range(1, spec.N + 1), len(sites)):
        kern = g_m_function([th(p) for p in sites],
                            [th(p) for p in primed], spec)
        cross = 1.0 + 0.0j
        for a in primed:
            for q in comp:
                cross *= np.sinh(th(a) - th(q) + eta)
        rows.append((primed, kern * cross, f_factor(primed, spec)))
    return comp, rows, _a_product(spec)


def _pairings(kernels, lam: tuple, psi_bar0: complex) -> list:
    """Eigenvalue-dependent half of ``scalar_F``, one pairing per kernel: the
    kernel rows weighted by the eigenvalue products, times prod_k a(theta_k)
    and psi_bar0, over the eigenvalue product on the complement.

    The eigenvalue product over every sorted site set is taken once, as its
    prefix's product times one more eigenvalue: the order and operand types
    of ``np.prod``, with the empty product the float 1.0.
    """
    prods = {(): 1.0}
    for q, lam_q in enumerate(np.array(lam, dtype=complex), start=1):
        for sites, prod in list(prods.items()):
            prods[sites + (q,)] = prod * lam_q if sites else lam_q
    out = []
    for comp, rows, a_all in kernels:
        for q in comp:
            if abs(lam[q - 1]) < 1e-12:
                raise DegenerateNormalizationError(
                    f"eigenvalue vanishes at site {q}; the pairing formula "
                    "divides by it")
        total = 0.0 + 0.0j
        for primed, kern_cross, norm in rows:
            total += kern_cross * prods[primed] / norm
        out.append(complex(total * a_all / prods[comp] * psi_bar0))
    return out


def scalar_F(pset, lambda_at_theta, psi_bar0: complex, spec: ChainSpec) -> complex:
    """Pairing of the all-flavor-2 basis bra over ``pset`` with the eigenstate.

    Sum over primed site sets of the same size: determinant kernel times the
    cross factor sinh(theta_{p'} - theta_q + eta) over the complement of the
    UNPRIMED set, times the eigenvalue product over the primed set divided by
    its one-flavor norm; the whole sum carries prod_k a(theta_k) over all
    sites, the eigenvalue product over the unprimed complement in the
    denominator, and the reference pairing psi_bar0 = <bar0|Psi>.  The
    empty-set pairing is <0|Psi> in the same gauge as psi_bar0.
    """
    sites = _site_tuple(pset, spec.N)
    lam = _lambda_tuple(lambda_at_theta, spec.N)
    return _pairings([_kernel(sites, spec)], lam, psi_bar0)[0]


class Reconstructor:
    """Eigenstate reconstruction over the separated basis of one chain.

    Everything that depends on the chain alone is built once here: the basis
    labels, their right states stacked as read-only rows, their norms, the
    ``scalar_F`` kernel of every flavor-2 block, the index of each label's
    kernel and a (label x site) mask of its flavor-3 sites.  ``state`` then
    costs only the eigenvalue-dependent sums, one record at a time.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.labels = enumerate_basis(spec)
        self.kets = _grown_rows(self.labels, spec, bra=False)
        self.norms = _norms(self.labels, spec)
        self.kernels = {sites: _kernel(sites, spec) for sites in
                        dict.fromkeys(idx.block2 for idx in self.labels)}
        position = {sites: k for k, sites in enumerate(self.kernels)}
        self.kernel_of = np.array([position[idx.block2] for idx in self.labels])
        self.in_block3 = np.array([[q in idx.block3 for q in range(1, spec.N + 1)]
                                   for idx in self.labels], dtype=bool)
        for shared in (self.kets, self.norms, self.kernel_of, self.in_block3):
            shared.setflags(write=False)

    def state(self, lambda_at_theta, psi_bar0: complex) -> np.ndarray:
        """Rebuild the eigenvector from its eigenvalue at the inhomogeneity
        points.

        Each basis ket enters with the one-flavor pairing of its flavor-2
        block, one eigenvalue factor per flavor-3 site, divided by the basis
        normalization.  Output is in the site tensor basis, linear in
        psi_bar0.
        """
        lam = _lambda_tuple(lambda_at_theta, self.spec.N)
        pairings = np.array(_pairings(self.kernels.values(), lam, psi_bar0))
        lam3 = np.prod(np.where(self.in_block3, np.array(lam), 1.0), axis=1)
        return (pairings[self.kernel_of] * lam3 / self.norms) @ self.kets


# ---------------------------------------------------------------------------
# Homogeneous-limit experiment
# ---------------------------------------------------------------------------

# Shrink factors of the homogeneous-limit study, distinct and descending:
# the Neville extrapolation to eps = 0 divides by their differences.
EPS_SEQUENCE = (0.1, 0.05, 0.025, 0.0125)


def normalize_gauge(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Unit norm with the first non-negligible component rotated to the
    positive real axis, so states at different parameters share one gauge."""
    v = np.asarray(vec, dtype=complex)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DegenerateNormalizationError("cannot normalize the zero vector")
    v = v / norm
    lead = np.flatnonzero(np.abs(v) > tol)
    if len(lead) == 0:
        raise DegenerateNormalizationError(
            "no component above the gauge threshold")
    return v * np.exp(-1j * np.angle(v[lead[0]]))


def _neville_at_zero(eps: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Polynomial extrapolation of vector samples to eps = 0."""
    tableau = [np.asarray(v, dtype=complex) for v in values]
    n = len(tableau)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            x_lo, x_hi = eps[i], eps[i + level]
            nxt.append((x_lo * tableau[i + 1] - x_hi * tableau[i])
                       / (x_lo - x_hi))
        tableau = nxt
    return tableau[0]


def _hermitian_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between the lines through a and b: 2 arcsin(|a - e^{i phi} b| / 2)
    on unit vectors, phi the best-aligning phase.  arccos of the overlap
    cannot resolve angles below arccos(1 - 2^-53) = 1.5e-8."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(2.0 * np.arcsin(min(1.0, np.linalg.norm(a - phase * b) / 2.0)))


def closed_form_two_site(lam0: complex, dlam0: complex, n: int,
                         eta: complex) -> np.ndarray:
    """Closed-form homogeneous two-site eigenvector from the eigenvalue and
    its derivative at the origin."""
    require_three_flavors("closed_form_two_site", n)
    row = lambda u: np.stack([_dense(*b, n * n) for b in _sparse_blocks(u, n, eta, (0.0, 0.0))[0]])
    _, b2, b3 = row(0.0)
    _, db2, db3 = fd4_derivative(row, 0.0)
    vac = np.zeros(n ** 2, dtype=complex)
    vac[0] = 1.0
    sh = np.sinh(eta)
    coth = np.cosh(eta) / np.sinh(eta)
    a0 = sh ** 2
    lr = dlam0 / lam0
    out = vac.copy()
    out = out + (dlam0 * b3 + lam0 * db3 - 2 * coth * lam0 * b3) @ vac / sh ** 3
    out = out + lam0 ** 2 * (b3 @ b3 @ vac) / sh ** 8
    inner = ((8.0 / 9.0 - 2 * coth * lr + lr ** 2) * b2
             + (lr - coth - 1.0 / 3.0) * db2)
    inner = inner + lam0 / sh ** 4 * (
        (coth * lr - lr / 3.0 - 8.0 / 9.0) * (b3 @ b2)
        + (lr - coth - 1.0 / 3.0) * (db3 @ b2 - b3 @ db2))
    inner = inner + lam0 ** 2 / sh ** 8 * (b2 @ b2)
    out = out + lam0 ** 2 / a0 ** 2 * (inner @ vac)
    return out


@dataclass
class HomogFamily:
    """One eigenstate family tracked through the shrinking inhomogeneities."""

    hom_index: int
    z_charge: int
    lam0: complex
    dlam0: complex
    distances: list = field(default_factory=list)
    monotone: bool = False
    angle_closed_form: float = float("nan")
    angle_eigenvector: float = float("nan")
    degenerate: bool = False


@dataclass
class HomogStudy:
    eps: tuple
    eta: complex
    families: list = field(default_factory=list)

    @property
    def n_converged(self) -> int:
        return sum(1 for f in self.families if f.monotone)


def _min_cost_matching(cost):
    """Permutation minimising ``sum(cost[rows, cols])`` for a square, finite
    cost matrix, returned as ``(rows, cols)`` with ``rows = arange(n)``.

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant; Crouse, IEEE TAES 52(4), 2016): each row in turn is matched
    by a Dijkstra search over reduced costs, relaxing all columns at once.
    Among equally short columns an unmatched one ends the search.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    n = cost.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    row_of = np.full(n, -1)
    col_of = np.full(n, -1)
    for start in range(n):
        shortest = np.full(n, np.inf)
        path = np.full(n, -1)
        scanned = np.zeros(n, dtype=bool)
        i, dist, sink = start, 0.0, -1
        while sink < 0:
            reduced = dist + cost[i] - u[i] - v
            closer = ~scanned & (reduced < shortest)
            path[closer] = i
            shortest[closer] = reduced[closer]
            dist = shortest[~scanned].min()
            tied = np.flatnonzero(~scanned & (shortest == dist))
            free = tied[row_of[tied] < 0]
            j = free[0] if free.size else tied[0]
            scanned[j] = True
            if row_of[j] < 0:
                sink = j
            else:
                i = row_of[j]
        inner = np.flatnonzero(scanned)
        inner = inner[inner != sink]
        u[start] += dist
        u[row_of[inner]] += dist - shortest[inner]
        v[scanned] -= dist - shortest[scanned]
        j = sink
        while True:
            i = path[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return np.arange(n), col_of


def homogeneous_limit_study(direction, eta: complex) -> HomogStudy:
    """Track every eigenstate of the three-flavor chain as the
    inhomogeneities shrink to zero.

    For each eps of ``EPS_SEQUENCE`` the chain theta = eps * direction is
    diagonalized and each eigenstate reconstructed from its eigenvalue data
    alone; families are matched across eps levels (and to the homogeneous
    model) by eigenvalue proximity at fixed probe points.  Reports per
    family the Cauchy distances of the gauge-fixed states, whether they
    decrease monotonically (a step to a distance of exactly 0 counts as a
    decrease), and for two sites the angle between the
    extrapolated state and the closed-form homogeneous expression.
    Non-convergence is reported, never raised.
    """
    direction = tuple(complex(x) for x in direction)
    N = len(direction)
    # the chains first: a direction they refuse builds no dense transfer
    specs = [ChainSpec(n=3, N=N, eta=eta, theta=tuple(eps * x for x in direction))
             for eps in EPS_SEQUENCE]

    # homogeneous reference spectrum, with lambda at the points fd4 samples
    h = FD4_STEP
    points = (0.0, 2 * h, h, -h, -2 * h)
    hom_mus, hom_lam, hom_vecs, _, _, sector = _sector_spectrum(
        lambda u: homogeneous_transfer(u, 3, N, eta), N, points)
    lam_at = dict(zip(points, hom_lam.T))
    dlam0 = fd4_derivative(lambda u: lam_at[u], 0.0)
    families = [HomogFamily(hom_index=k, z_charge=int(z),
                            lam0=complex(lam_at[0.0][k]), dlam0=complex(dlam0[k]))
                for k, z in enumerate(sector)]

    # reconstructed, gauge-fixed states per eps, matched to the homogeneous
    # families through the probe eigenvalues
    tracked = {k: [] for k in range(len(families))}
    for spec in specs:
        records = brute_force_spectrum(spec)
        mus = np.array([rec.mu for rec in records])
        cost = np.abs(hom_mus[:, None] - mus[None]).sum(axis=2)
        rows, cols = _min_cost_matching(cost)
        rebuild = Reconstructor(spec)
        for i, j in zip(rows, cols):
            rec = records[j]
            try:
                psi = rebuild.state(rec.lambda_theta, 1.0)
                tracked[i].append(normalize_gauge(psi))
            except (DegenerateNormalizationError, PoleProximityError):
                families[i].degenerate = True
                tracked[i].append(None)

    for i, fam in enumerate(families):
        states = tracked[i]
        if any(s is None for s in states):
            continue
        fam.distances = [float(np.linalg.norm(states[k + 1] - states[k]))
                         for k in range(len(states) - 1)]
        # a distance of exactly 0 has reached the limit: it counts as a
        # decrease (a one-site state does not depend on theta at all)
        fam.monotone = all(d2 < d1 or d2 == 0 for d1, d2 in
                           zip(fam.distances, fam.distances[1:]))
        extrapolated = normalize_gauge(
            _neville_at_zero(np.array(EPS_SEQUENCE), np.array(states)))
        hom_vec = normalize_gauge(hom_vecs[:, fam.hom_index])
        fam.angle_eigenvector = _hermitian_angle(extrapolated, hom_vec)
        if N == 2 and abs(fam.lam0) > 1e-12:
            ref = closed_form_two_site(fam.lam0, fam.dlam0, 3, eta)
            fam.angle_closed_form = _hermitian_angle(
                extrapolated, normalize_gauge(ref))
    return HomogStudy(eps=EPS_SEQUENCE, eta=complex(eta), families=families)
