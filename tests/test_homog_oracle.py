"""The two-site homogeneous-limit study against a 40-digit evaluation of the
same pipeline.

In exact arithmetic each state the study rebuilds from separated variables
is the transfer eigenvector of its chain, up to scale, so the oracle takes
the eigenvectors from mpmath's ``eig`` and repeats the study's steps in
mpmath: the same shrink factors, gauge fixing, Cauchy distances, Neville
extrapolation, Hermitian angles, fourth-order difference step and two-site
closed form.  It measures how far the float64 study is from its own exact
value, which a golden pinned at 1e-12 cannot tell.
"""
import numpy as np
from mpmath import mp

from spintorus.chain import default_spec
from spintorus.eigenstate import EPS_SEQUENCE, homogeneous_limit_study
from spintorus.monodromy import FD4_STEP, transfer
from spintorus.spectrum import U_PROBES

DPS = 40


def _r(u, eta):
    """R(u) of rmatrix.r_matrix at n = 3, entry by entry."""
    r = mp.zeros(9, 9)
    for a in range(3):
        for b in range(3):
            row = 3 * a + b
            if a == b:
                r[row, row] = mp.sinh(u + eta)
                continue
            r[row, row] = mp.sinh(u)
            alpha = (mp.mpf(3 - 2 * (b - a)) if a < b
                     else -mp.mpf(3 - 2 * (a - b))) / 3
            r[row, 3 * b + a] = mp.sinh(eta) * mp.exp(alpha * u)
    return r


def _blocks(u, eta, thetas):
    """Auxiliary blocks T[i][j] of R_0N(u - theta_N) ... R_01(u - theta_1):
    appending a site gives T_ij[r c, s d] = sum_k <i c|R|k d> T_kj[r, s]."""
    T = [[mp.matrix([[int(i == j)]]) for j in range(3)] for i in range(3)]
    for theta in thetas:
        r = _r(u - theta, eta)
        dim = T[0][0].rows
        new = [[mp.zeros(3 * dim, 3 * dim) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for c in range(3):
                        for d in range(3):
                            w = r[3 * i + c, 3 * k + d]
                            if w == 0:
                                continue
                            for p in range(dim):
                                for q in range(dim):
                                    new[i][j][3 * p + c, 3 * q + d] += w * T[k][j][p, q]
        T = new
    return T


def _transfer(u, eta, thetas):
    """The twisted trace sum_k T[k][k + 1 mod 3]."""
    T = _blocks(u, eta, thetas)
    return T[0][1] + T[1][2] + T[2][0]


def _twist():
    """g x g on two sites, g|k> = |k + 1 mod 3>."""
    G = mp.zeros(9, 9)
    for p in range(3):
        for q in range(3):
            G[3 * ((p + 1) % 3) + (q + 1) % 3, 3 * p + q] = 1
    return G


def _eigen(ops):
    """Joint eigenvectors of a commuting family, with each member's
    eigenvalue on them, from one generic combination."""
    coeff = (1, mp.mpc(0.731, 0.289), mp.mpc(0.417, -0.583))
    E, ER = mp.eig(sum((c * o for c, o in zip(coeff[1:], ops[1:])),
                       coeff[0] * ops[0]))
    assert min(abs(E[a] - E[b]) for a in range(len(E)) for b in range(a)) > 1e-6
    vecs = [ER[:, k] for k in range(len(E))]
    return vecs, [[_eigenvalue(o, v) for o in ops] for v in vecs]


def _eigenvalue(op, v):
    m = max(range(v.rows), key=lambda i: abs(v[i]))
    return (op * v)[m] / v[m]


def _gauge(v):
    """The study's normalize_gauge: unit norm, and the first entry above
    1e-12 rotated to the positive real axis."""
    v = v / mp.norm(v)
    lead = next(v[i] for i in range(v.rows) if abs(v[i]) > 1e-12)
    return v * (mp.conj(lead) / abs(lead))


def _angle(a, b):
    a, b = a / mp.norm(a), b / mp.norm(b)
    overlap = sum(mp.conj(b[i]) * a[i] for i in range(a.rows))
    return 2 * mp.asin(min(1, mp.norm(a - overlap / abs(overlap) * b) / 2))


def _neville_at_zero(eps, values):
    tableau = list(values)
    for level in range(1, len(tableau)):
        tableau = [(eps[i] * tableau[i + 1] - eps[i + level] * tableau[i])
                   / (eps[i] - eps[i + level]) for i in range(len(tableau) - 1)]
    return tableau[0]


def _fd4(f, h):
    return (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)


def _closed_form(lam0, dlam0, eta, b2, b3, db2, db3):
    """eigenstate.closed_form_two_site, on the uniform chain's blocks
    B_2, B_3 at 0 and their derivatives there."""
    vac = mp.zeros(9, 1)
    vac[0] = 1
    sh, coth = mp.sinh(eta), mp.coth(eta)
    lr = dlam0 / lam0
    out = vac + (dlam0 * b3 + lam0 * db3 - 2 * coth * lam0 * b3) * vac / sh ** 3
    out += lam0 ** 2 * (b3 * b3 * vac) / sh ** 8
    inner = ((mp.mpf(8) / 9 - 2 * coth * lr + lr ** 2) * b2
             + (lr - coth - mp.mpf(1) / 3) * db2)
    inner += lam0 / sh ** 4 * (
        (coth * lr - lr / 3 - mp.mpf(8) / 9) * (b3 * b2)
        + (lr - coth - mp.mpf(1) / 3) * (db3 * b2 - b3 * db2))
    inner += lam0 ** 2 / sh ** 8 * (b2 * b2)
    return out + lam0 ** 2 / sh ** 4 * (inner * vac)


def _exact_study(direction, eta):
    """Per homogeneous family: lam0, dlam0, distances and both angles,
    rounded to complex and float at the end."""
    uniform = (0, 0)
    h = mp.mpf(FD4_STEP)
    points = (mp.mpf(0), 2 * h, h, -h, -2 * h)
    family = lambda thetas: [_transfer(mp.mpc(u.real, u.imag), eta, thetas)
                             for u in U_PROBES] + [_twist()]
    hom_vecs, hom_mus = _eigen(family(uniform))
    tracked = []
    for eps in EPS_SEQUENCE:
        vecs, mus = _eigen(family([mp.mpf(eps) * x for x in direction]))
        # the nearest record by the study's matching cost, one per family
        nearest = [min(range(len(mus)), key=lambda j: sum(
            abs(a - b) for a, b in zip(hmu, mus[j]))) for hmu in hom_mus]
        assert sorted(nearest) == list(range(len(mus)))
        tracked.append([_gauge(vecs[j]) for j in nearest])
    t_at = {u: _transfer(u, eta, uniform) for u in points}
    row_at = {u: _blocks(u, eta, uniform)[0] for u in points}
    b2, b3 = row_at[0][1], row_at[0][2]
    db2, db3 = (_fd4(lambda u: row_at[u][k], h) for k in (1, 2))
    out = []
    for v, states in zip(hom_vecs, zip(*tracked)):
        lam0 = _eigenvalue(t_at[0], v)
        dlam0 = _fd4(lambda u: _eigenvalue(t_at[u], v), h)
        extrapolated = _gauge(_neville_at_zero(
            [mp.mpf(e) for e in EPS_SEQUENCE], states))
        closed = _closed_form(lam0, dlam0, eta, b2, b3, db2, db3)
        out.append({
            "lam0": complex(lam0), "dlam0": complex(dlam0),
            "distances": [float(mp.norm(b - a))
                          for a, b in zip(states, states[1:])],
            "angle_eigenvector": float(_angle(extrapolated, _gauge(v))),
            "angle_closed_form": float(_angle(extrapolated, _gauge(closed))),
        })
    return out


def test_two_site_study_matches_its_exact_value():
    spec = default_spec(N=2)
    assert spec.eta.imag == 0
    study = homogeneous_limit_study(spec.theta, spec.eta)
    with mp.workdps(DPS):
        direction = [mp.mpc(t.real, t.imag) for t in spec.theta]
        # the oracle's transfer is the package's, at 40 digits
        t = _transfer(mp.mpc(U_PROBES[0].real, U_PROBES[0].imag),
                      mp.mpf(spec.eta.real), direction)
        t_exact = np.array([[complex(x) for x in row] for row in t.tolist()])
        exact = _exact_study(direction, mp.mpf(spec.eta.real))
    gap = np.abs(transfer(U_PROBES[0], spec) - t_exact).max()
    assert gap <= 1e-14 * np.abs(t_exact).max()
    assert len(study.families) == len(exact) == 9
    unmatched = list(range(len(exact)))
    for fam in study.families:
        # the family with the same lambda(0) and lambda'(0)
        k = min(unmatched, key=lambda k: abs(fam.lam0 - exact[k]["lam0"])
                + abs(fam.dlam0 - exact[k]["dlam0"]))
        unmatched.remove(k)
        ref = exact[k]
        assert abs(fam.lam0 - ref["lam0"]) <= 1e-12 * abs(ref["lam0"])
        assert abs(fam.dlam0 - ref["dlam0"]) <= 1e-10 * abs(ref["dlam0"])
        assert len(fam.distances) == len(ref["distances"]) == len(EPS_SEQUENCE) - 1
        # 1e-10 absolute, twice the study's worst error (4.8e-11): the exact
        # angles run from 9e-13 to 1.5e-9, and at 1e-9 an angle read as 0
        # would pass wherever its exact value is below 1e-9
        for got, want in zip(fam.distances, ref["distances"]):
            assert abs(got - want) <= 1e-10
        for name in ("angle_eigenvector", "angle_closed_form"):
            assert abs(getattr(fam, name) - ref[name]) <= 1e-10, name
