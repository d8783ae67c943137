"""Reference spectra, eigenvalue parametrization, and the root search."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import spintorus.spectrum as spectrum_module
from spintorus.chain import ChainSpec, default_spec
from spintorus.errors import (InconsistencyError, NonGenericSpecError,
                              UnsupportedRankError)
from spintorus.monodromy import (FD4_STEP, _a, _a_product, _q,
                                 homogeneous_transfer, scalar_a, transfer,
                                 twist_operator)
from spintorus.spectrum import (NEWTON_EXITS, NEWTON_FD_STEP, OMEGA,
                                RESIDUAL_CHUNK, TQSolution, U_PROBES,
                                _canonical, _chunked_residuals,
                                _difference_residuals, _max_norm, _newton,
                                _newton_steps, _residuals, _roots_separated,
                                _same_solution, _sector_spectrum,
                                _twist_charge, _twist_orbits, _vector,
                                bae_residuals, brute_force_spectrum,
                                solve_bae, tq_lambda)
from spintorus.tensor_core import (EIGEN_RESID_TOL, _operator_scale,
                                   relative_residual)

from oracles import _full_space_spectrum, _z_charge, full_space_eigen

SINH_05 = 0.52109530549374736


def test_single_site_spectrum_closed_form(spec1, records1):
    assert len(records1) == 3
    lams = sorted((r.lambda_theta[0] for r in records1),
                  key=lambda z: np.angle(z))
    want = sorted((SINH_05 * OMEGA ** k for k in range(3)),
                  key=lambda z: np.angle(z))
    assert_allclose(lams, want, atol=1e-10)
    assert sorted(r.z_charge for r in records1) == [0, 1, 2]


def test_reference_spectrum_residuals(records2, records3):
    for records, count in ((records2, 9), (records3, 27)):
        assert len(records) == count
        assert max(r.residual for r in records) < 1e-9


@pytest.mark.parametrize("N", [1, 2, 3])
def test_spectrum_readout_matches_per_vector_formulas(N, request):
    # the full-space oracle keeps lambda(theta_j) as the one-vector pairing
    # bit for bit; mu and the residual match their one-vector formulas
    spec = request.getfixturevalue(f"spec{N}")
    records = _full_space_spectrum(spec)
    t_theta = [transfer(t, spec) for t in spec.theta]
    family = [transfer(U_PROBES[0], spec), transfer(U_PROBES[1], spec),
              twist_operator(spec)]
    for rec in records:
        denom = complex(rec.dual @ rec.vector)
        lam = [complex((rec.dual @ (tt @ rec.vector)) / denom) for tt in t_theta]
        assert np.array_equal(rec.lambda_theta, lam)
        resid = 0.0
        for op, mu in zip(family, rec.mu):
            pair = complex((rec.dual @ (op @ rec.vector)) / denom)
            assert abs(mu - pair) <= 1e-13 * abs(pair)
            scale = (max(float(np.abs(op).max()), 1.0)
                     * float(np.abs(rec.vector).max()))
            gap = float(np.abs(op @ rec.vector - mu * rec.vector).max())
            resid = max(resid, gap / scale)
        assert abs(rec.residual - resid) <= 1e-15


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_sector_spectrum_matches_full_space_oracle(N):
    spec = default_spec(N=N)
    records = brute_force_spectrum(spec)
    oracle = _full_space_spectrum(spec)
    assert len(records) == len(oracle) == 3 ** N
    assert [r.z_charge for r in records] == [r.z_charge for r in oracle]
    for rec, ref in zip(records, oracle):
        assert_allclose(rec.lambda_theta, ref.lambda_theta, rtol=1e-13, atol=0)
        assert_allclose(rec.mu, ref.mu, rtol=1e-13, atol=0)
        cos = (abs(np.vdot(rec.vector, ref.vector))
               / (np.linalg.norm(rec.vector) * np.linalg.norm(ref.vector)))
        assert 1 - cos <= 1e-13
        assert rec.residual <= EIGEN_RESID_TOL
    vecs = np.column_stack([r.vector for r in records])
    duals = np.array([r.dual for r in records])
    assert np.abs(duals @ vecs - np.eye(3 ** N)).max() <= 1e-12


def test_sector_spectrum_traced_peak_memory():
    # each dense step on the spectral path runs once per sector and no
    # full-space temporary outlives its use: at N=5 the traced peak stays
    # within 6 dim x dim complex arrays (it returns about 2)
    spec = default_spec(N=5)
    tracemalloc.start()
    try:
        records = brute_force_spectrum(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == spec.dim
    assert peak <= 6 * 16 * spec.dim ** 2


@pytest.mark.parametrize("N", [2, 3])
def test_sector_spectrum_of_uniform_transfer_matches_full_space_oracle(N):
    # homog's reference spectrum: the uniform chain's transfer, with lambda
    # read at the points its fourth-order derivative samples
    h = FD4_STEP
    points = (0.0, 2 * h, h, -h, -2 * h)
    build = lambda u: homogeneous_transfer(u, 3, N, 0.5)
    mus, lam, vmat, wmat, resid, sector = _sector_spectrum(build, N, points)
    ref_mus, ref_lam, ref_vmat, _, _ = full_space_eigen(build, N, points)
    assert sector.tolist() == [_twist_charge(m) for m in ref_mus[:, 2]]
    assert_allclose(mus, ref_mus, rtol=1e-13, atol=0)
    assert_allclose(lam, ref_lam, rtol=1e-13, atol=0)
    cos = (np.abs((vmat.conj() * ref_vmat).sum(axis=0))
           / (np.linalg.norm(vmat, axis=0) * np.linalg.norm(ref_vmat, axis=0)))
    assert (1 - cos).max() <= 1e-13
    assert resid.max() <= EIGEN_RESID_TOL
    assert np.abs(wmat @ vmat - np.eye(3 ** N)).max() <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_twist_orbits_split_transfer_into_sectors(N, rng):
    # the orbits partition the basis, the twist is the index map that moves
    # each orbit one step back, and the three sector blocks
    # sum_m OMEGA^(-z m) t[:size, orbit_m] carry the whole spectrum of t
    spec = default_spec(N=N)
    size = 3 ** (N - 1)
    orbits = _twist_orbits(N)
    assert orbits.shape == (3, size)
    assert_array_equal(orbits[0], np.arange(size))
    assert sorted(orbits.ravel()) == list(range(3 ** N))
    back = np.empty(3 ** N, dtype=int)
    back[orbits] = np.roll(orbits, 1, axis=0)
    v = rng.standard_normal(3 ** N)
    assert_array_equal(v[back], twist_operator(spec) @ v)
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    t = transfer(u, spec)
    sectors = [sum(OMEGA ** (-z * m % 3) * t[:size, orbit]
                   for m, orbit in enumerate(orbits)) for z in range(3)]
    want = np.sort_complex(np.linalg.eigvals(t))
    got = np.sort_complex(np.concatenate([np.linalg.eigvals(b) for b in sectors]))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("row, col", [(1, 5), (4, 2), (7, 2)])
def test_probe_leaking_out_of_its_sector_is_refused(monkeypatch, row, col):
    # 1e-6 on one site-basis entry of t(u_2) breaks its commutation with
    # the twist, on a row with site-1 label 0 (a representative), 1 or 2
    spec = default_spec(N=2)
    exact = spectrum_module.transfer

    def leaky(u, spec):
        t = exact(u, spec)
        if u == U_PROBES[1]:
            t[row, col] += 1e-6
        return t

    monkeypatch.setattr(spectrum_module, "transfer", leaky)
    with pytest.raises(NonGenericSpecError, match="probe 1 does not commute"):
        brute_force_spectrum(spec)


def test_charge_sectors_partition(spec2, records2):
    counts = {0: 0, 1: 0, 2: 0}
    for rec in records2:
        counts[_z_charge(rec, _a_product(spec2), tol=1e-7)] += 1
    assert sum(counts.values()) == 9
    assert min(counts.values()) >= 1


def test_sector_label_disagreeing_with_the_product_route_is_refused(monkeypatch):
    # prod_j a(theta_j) off by OMEGA moves every product-route charge by one
    exact = spectrum_module._a_product
    monkeypatch.setattr(spectrum_module, "_a_product",
                        lambda spec: OMEGA * exact(spec))
    with pytest.raises(InconsistencyError, match="charge mismatch: sector"):
        brute_force_spectrum(default_spec(N=2))


def test_eigenvalue_functional_consistency(spec2, records2, rng, eigenvalue_at):
    # the dual-row eigenvalue reproduces the stored values and keeps the
    # eigen-equation satisfied away from the sample points
    for rec in records2[:3]:
        for j, t in enumerate(spec2.theta):
            assert abs(eigenvalue_at(rec, t, spec2) - rec.lambda_theta[j]) < 1e-10
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = transfer(u, spec2)
        resid = relative_residual(t @ rec.vector, eigenvalue_at(rec, u, spec2),
                                  rec.vector, _operator_scale(t))
        assert resid < 1e-11


def test_parametrized_eigenvalue_at_inhomogeneity_point(spec1, bae1):
    # where the d-weighted terms die, only the first term survives
    sol = bae1.solutions[0]
    t1 = spec1.theta[0]
    term1 = (np.exp(t1 / 3) * sol.exp_phi1 * np.exp(t1) * scalar_a(t1, spec1)
             * np.prod([np.sinh(t1 - spec1.eta - x) for x in sol.lambdas[0]])
             / np.prod([np.sinh(t1 - x) for x in sol.lambdas[1]]))
    assert abs(tq_lambda(t1, sol, spec1) - term1) < 1e-12


def test_parametrized_eigenvalue_magnitude_and_continuity(spec1, bae1):
    for sol in bae1.solutions:
        lam = tq_lambda(spec1.theta[0], sol, spec1)
        assert abs(abs(lam) - SINH_05) < 1e-8
        u = 0.4 + 0.3j
        assert abs(tq_lambda(u + 1e-8, sol, spec1) - tq_lambda(u, sol, spec1)) \
            < 1e-6 * max(abs(lam), 1.0)


def test_constraint_residuals_shape_and_convergence(spec1, bae1):
    for sol in bae1.solutions:
        resid = bae_residuals(sol, spec1)
        assert resid.shape == (8,)
        assert np.abs(resid).max() < 1e-10


def test_perturbed_root_breaks_first_constraint(spec1, bae1):
    sol = bae1.solutions[0]
    lams = [list(fam) for fam in sol.lambdas]
    lams[0][0] += 1e-3
    bumped = TQSolution(lambdas=tuple(tuple(f) for f in lams),
                        f1_plus=sol.f1_plus, f1_minus=sol.f1_minus,
                        f2_minus=sol.f2_minus, phi1=sol.phi1)
    resid = bae_residuals(bumped, spec1)
    assert np.abs(resid[:spec1.N]).max() > 1e-6


def test_batched_residuals_match_reference(spec1, spec2, rng):
    # one batched call (as in the Jacobian and the coefficient seeding) gives,
    # row for row, the constraint values of the single-solution entry point
    for spec in (spec1, spec2):
        N = spec.N
        sols = []
        for _ in range(6):
            lams = tuple(tuple(rng.standard_normal(N) + 1j * rng.standard_normal(N))
                         for _ in range(4))
            coeffs = [complex(*rng.standard_normal(2)) for _ in range(4)]
            sols.append(TQSolution(lams, *coeffs))
        batch = _residuals(np.array([_vector(sol) for sol in sols]), spec)
        assert batch.shape == (len(sols), 4 * N + 4)
        for row, sol in zip(batch, sols):
            assert_allclose(row, bae_residuals(sol, spec), rtol=1e-13, atol=1e-13)


def test_collision_filter():
    good = TQSolution(lambdas=((0.1, 0.9), (0.2, 1.1), (0.3, 1.2), (0.4, 1.3)),
                      f1_plus=1, f1_minus=1, f2_minus=1, phi1=0.1)
    assert _roots_separated(good)
    bad = TQSolution(lambdas=((0.1, 0.1 + 1e-9), (0.2, 1.1), (0.3, 1.2),
                              (0.4, 1.3)),
                     f1_plus=1, f1_minus=1, f2_minus=1, phi1=0.1)
    assert not _roots_separated(bad)
    # a separation of exactly one imaginary period is also a collision
    wrapped = TQSolution(lambdas=((0.1, 0.1 + 2j * np.pi), (0.2, 1.1),
                                  (0.3, 1.2), (0.4, 1.3)),
                         f1_plus=1, f1_minus=1, f2_minus=1, phi1=0.1)
    assert not _roots_separated(wrapped)


def test_deduplication_is_order_free(rng):
    lams = tuple(tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                 for _ in range(4))
    sol = TQSolution(lambdas=lams, f1_plus=0.3, f1_minus=0.7, f2_minus=0.2,
                     phi1=0.1)
    permuted = TQSolution(lambdas=tuple(fam[::-1] for fam in lams),
                          f1_plus=0.3, f1_minus=0.7, f2_minus=0.2, phi1=0.1)
    assert _same_solution(_canonical(sol), _canonical(permuted))
    shifted = TQSolution(lambdas=((lams[0][0] + 0.5, lams[0][1]),) + lams[1:],
                         f1_plus=0.3, f1_minus=0.7, f2_minus=0.2, phi1=0.1)
    assert not _same_solution(_canonical(sol), _canonical(shifted))


def test_search_covers_single_site_sectors(spec1, records1, bae1):
    assert bae1.coverage == 1.0
    matched_z = {records1[r].z_charge for r in bae1.matched_records}
    assert matched_z == {0, 1, 2}
    for sol in bae1.solutions:
        lam = tq_lambda(spec1.theta[0], sol, spec1)
        z = int(np.round(np.angle(lam / SINH_05) / (2 * np.pi / 3))) % 3
        assert abs(lam - SINH_05 * OMEGA ** z) < 1e-8


def test_search_rejects_large_chains():
    with pytest.raises(ValueError, match="N <= 2"):
        solve_bae(default_spec(N=3), n_seeds=1)


@pytest.mark.parametrize("n_seeds", [0, -3])
def test_search_rejects_empty_start_sets(spec1, records1, n_seeds):
    with pytest.raises(ValueError, match=f"n_seeds must be at least 1, got {n_seeds}"):
        solve_bae(spec1, n_seeds=n_seeds, records=records1)


@pytest.mark.parametrize("mu", [complex("nan"), complex(1, float("nan")),
                                complex("inf")])
def test_twist_charge_refuses_a_non_finite_value(mu):
    with pytest.raises(InconsistencyError, match="is not finite"):
        _twist_charge(mu)


@pytest.mark.parametrize("n, mu", [(2, -1.0), (4, 1j)])
def test_other_ranks_are_refused_up_front(n, mu, monkeypatch):
    # a twist eigenvalue of the n = 2 or n = 4 chain is no cube root of
    # unity, so neither the spectrum nor the root search could read a charge
    with pytest.raises(InconsistencyError, match="not a cube root of unity"):
        _twist_charge(mu)

    def no_transfer(*args):
        raise AssertionError("a transfer matrix was built")

    monkeypatch.setattr(spectrum_module, "transfer", no_transfer)
    spec = default_spec(n=n, N=1)
    with pytest.raises(UnsupportedRankError, match=f"n = 3.*got n = {n}"):
        brute_force_spectrum(spec)
    with pytest.raises(UnsupportedRankError, match=f"n = 3.*got n = {n}"):
        solve_bae(spec, n_seeds=1, records=[])


def test_solutions_deform_with_shrinking_inhomogeneity(spec1, bae1):
    # the converged root set continues smoothly as theta -> eps * theta
    sol = bae1.solutions[0]
    z = _vector(sol)[None, :]
    for eps in (0.5, 0.1):
        spec_eps = ChainSpec(n=3, N=1, eta=0.5,
                             theta=tuple(eps * t for t in spec1.theta))
        z, fnorm, _ = _newton(spec_eps, z, max_iter=60)
        assert fnorm[0] < 1e-10


def _random_starts(spec, count, rng):
    """Newton starts laid out as ``_vector``: roots scattered around the
    inhomogeneity centroid, coefficients and exponent of order one."""
    m = 4 * spec.N + 4
    return (complex(np.mean(spec.theta))
            + rng.uniform(-1, 1, (count, m)) + 1j * rng.uniform(-1, 1, (count, m)))


@pytest.mark.parametrize("N", [1, 2])
def test_residuals_are_holomorphic(N, rng):
    # the premise of the complex Jacobian: a difference along i*h is i times
    # the difference along h, up to the O(h) truncation of the forward
    # difference (at most 1.1e-5 of the largest column over 500 rows each
    # at N = 1, 2); a non-holomorphic residual would miss by O(1)
    spec = default_spec(N=N)
    h = 1e-7
    eye = np.eye(4 * N + 4)
    for z in _random_starts(spec, 50, rng):
        f0 = _residuals(z[None, :], spec)[0]
        along_real = _residuals(z + h * eye, spec) - f0
        along_imag = _residuals(z + 1j * h * eye, spec) - f0
        assert (np.abs(along_imag - 1j * along_real).max()
                <= 1e-4 * np.abs(along_real).max())


def test_seed_residuals_are_the_component_max_norm(spec1, records1, bae1,
                                                   monkeypatch):
    # the line search, the stop and seed_residuals read the largest |Re| or
    # |Im| of any constraint at a start's final row, not the modulus
    finals = []

    def recorded(*args):
        out = _newton(*args)
        finals.append(out[0])
        return out

    monkeypatch.setattr(spectrum_module, "_newton", recorded)
    again = solve_bae(spec1, n_seeds=bae1.n_seeds, rng_seed=bae1.rng_seed,
                      records=records1)
    assert again.seed_residuals == bae1.seed_residuals
    r = _residuals(finals[0], spec1)
    want = np.abs(r.view(float)).max(axis=1)
    assert_array_equal(bae1.seed_residuals, want)


def test_chunked_residual_rows_match_single_rows(spec2, rng):
    # one _residuals call over 16384 or more rows drifts in the last bit
    # (numpy 2.4); the chunked evaluation keeps every row exact
    starts = _random_starts(spec2, 20000, rng)
    batch = _chunked_residuals(starts, spec2)
    for k in rng.choice(len(starts), 50, replace=False):
        assert_array_equal(batch[k], _residuals(starts[k:k + 1], spec2)[0])


@pytest.mark.parametrize("N", [1, 2])
def test_lockstep_newton_is_batch_independent(N, rng):
    # a start ends exactly where it ends when run alone, however many other
    # starts share its batch and its residual chunks
    spec = default_spec(N=N)
    dim = 4 * N + 4
    count = RESIDUAL_CHUNK // dim + 40
    starts = _random_starts(spec, count, rng)
    # a root of family 1 on a root of family 4 divides by Q4(l1) = 0
    bad = 7
    starts[bad, 3 * N] = starts[bad, 0]
    xs, fnorms, exits = _newton(spec, starts, max_iter=25)
    assert fnorms[bad] == np.inf and exits[bad] == "nonfinite_start"
    assert_array_equal(xs[bad], starts[bad])
    picks = np.linspace(0, count - 1, 10).astype(int)
    assert picks[-1] * dim >= RESIDUAL_CHUNK  # the Jacobian spans two chunks
    for k in picks:
        x1, fnorm1, exit1 = _newton(spec, starts[k:k + 1], max_iter=25)
        assert_array_equal(xs[k], x1[0])
        assert_array_equal(fnorms[k], fnorm1[0])
        assert exits[k] == exit1[0]


def _residuals_oracle(z, spec):
    """The constraint values written out term by term, every sinh table and
    exponential built where it is read: the bit-identity oracle of
    ``_residuals``, which builds each of them once per row."""
    eta, N = spec.eta, spec.N
    theta = np.asarray(spec.theta)
    lam = z[:, :4 * N].reshape(-1, 4, N)
    f1p, f1m, f2m, phi = (z[:, 4 * N + i] for i in range(4))
    ephi = np.exp(phi)
    l1, l2, l3, l4 = (lam[:, i, :] for i in range(4))

    def a(x):
        return _a(x, theta, eta)

    def d(x):
        return _q(x, theta)

    def f1(x):
        return f1p[:, None] * np.exp(x) + f1m[:, None] * np.exp(-x)

    def f2(x):
        return f2m[:, None] * np.exp(-x)

    out = np.empty((z.shape[0], 4 * N + 4), dtype=complex)
    out[:, 0:N] = (OMEGA / ephi[:, None] * np.exp(-l1 - 2 * eta / 3)
                   * _q(l1 + eta, l2) / _q(l1, l4)
                   + a(l1) * f1(l1) / _q(l1, l2))
    out[:, N:2 * N] = (ephi[:, None] * np.exp(l2) * _q(l2 - eta, l1)
                       + d(l2) * _q(l2 - eta, l3) * f1(l2) / _q(l2, l1))
    out[:, 2 * N:3 * N] = (OMEGA ** 2 * np.exp(-l3 - 4 * eta / 3)
                           * _q(l3 + eta, l4)
                           + a(l3) * _q(l3 + eta, l2) * f2(l3) / _q(l3, l4))
    out[:, 3 * N:4 * N] = (OMEGA / ephi[:, None] * np.exp(-l4 - 2 * eta / 3)
                           * _q(l4 - eta, l3) / _q(l4, l1)
                           + a(l4) * f2(l4) / _q(l4, l3))
    ts = np.sum(theta)
    c1, c2, c3, c4 = (np.sum(lam[:, i, :], axis=1) for i in range(4))
    out[:, 4 * N] = (ephi * np.exp(-ts - c1 + c2)
                     + np.exp(-2 * ts + c1 + c2 - c3) * f1p)
    out[:, 4 * N + 1] = (OMEGA / ephi * np.exp(-2 * eta / 3 + ts - c1 + c2 + c3 - c4)
                         + OMEGA ** 2 * np.exp(-4 * eta / 3 + ts - c3 + c4 - N * eta)
                         + np.exp(2 * ts - N * eta)
                         * (np.exp(-c1 - c2 + c3 + N * eta) * f1m
                            + np.exp(c2 - c3 - c4 - N * eta) * f2m))
    out[:, 4 * N + 2] = (OMEGA * np.exp(-ts - c3 + c4)
                         + OMEGA ** 2 * ephi
                         * np.exp(-2 * eta / 3 - ts - c1 + c2 + c3 - c4 + N * eta)
                         + np.exp(-2 * ts + N * eta)
                         * (OMEGA ** 2 * np.exp(-2 * eta / 3 + c1 + c2 - c4) * f1p
                            + ephi * np.exp(2 * eta / 3 - c1 + c3 + c4 + N * eta) * f2m))
    out[:, 4 * N + 3] = (np.exp(-4 * eta / 3 + ts - c1 + c2 - N * eta) / ephi
                         + OMEGA ** 2
                         * np.exp(-2 * eta / 3 + 2 * ts - c1 - c2 + c4 - N * eta) * f1m)
    return out


def _assert_same_bits(got, want):
    # finite parts equal bit for bit, non-finite parts in the same places; a
    # NaN's sign and payload are not compared (a negated table may flip them)
    g, w = got.view(float), want.view(float)
    finite = np.isfinite(w)
    assert_array_equal(np.isfinite(g), finite)
    assert_array_equal(g[finite].view(np.int64), w[finite].view(np.int64))


# (Re, Im) of rows whose constraint values hold exact zeros, with signs that
# follow the zero signs of the row: found by a search over the lattice
# {0, -0, 1, -1, 0.5} at N = 1, 2
_SIGNED_ZERO_ROWS = {
    1: ((1, 0), (0.5, -0.0), (0, -0.0), (-0.0, 0.5), (-1, 1), (0, 0.5),
        (0, 0.5), (0.5, -0.0)),
    2: ((-1, 0.5), (1, 1), (0, 0.5), (-0.0, -1), (1, 0.5), (0, -0.0), (0, 1),
        (0.5, 0), (-1, 0), (0.5, -0.0), (0, 0), (0, 0)),
}


def _hard_rows(spec, count, rng):
    """Starts of order one, a quarter of them blown up 400-fold so that sinh
    and the products overflow, with collided roots planted (family 2 on
    family 1, so q(l1, l2) = 0; family 4 on family 1; two roots of family 1
    on each other) and one row of signed zeros."""
    N = spec.N
    z = _random_starts(spec, count, rng)
    z[::4] *= 400
    z[1::7, N] = z[1::7, 0]
    z[2::9, 3 * N] = z[2::9, 0]
    z[3::5, N - 1] = z[3::5, 0]
    z[5] = [complex(*x) for x in _SIGNED_ZERO_ROWS[N]]
    return z


@pytest.mark.parametrize("N", [1, 2])
def test_residuals_keep_the_bits_of_the_term_by_term_formula(N, rng):
    spec = default_spec(N=N)
    z = _hard_rows(spec, 400, rng)
    with np.errstate(all="ignore"):
        got, want = _residuals(z, spec), _residuals_oracle(z, spec)
    finite = np.isfinite(want).all(axis=1)
    assert 0 < finite.sum() < len(z) - 100
    _assert_same_bits(got, want)


@pytest.mark.parametrize("N", [1, 2])
def test_difference_rows_equal_full_evaluations(N, rng):
    # the Jacobian's shifted rows reuse the factors their shift leaves alone;
    # each still equals the full _residuals of its row, here over a stack of
    # more than RESIDUAL_CHUNK rows, so over several chunks of either route
    spec = default_spec(N=N)
    dim = 4 * N + 4
    count = RESIDUAL_CHUNK // dim + 40
    z = _hard_rows(spec, count, rng)
    got = _difference_residuals(z, spec)
    shifted = (z[:, None, :] + NEWTON_FD_STEP * np.eye(dim)).reshape(-1, dim)
    want = _chunked_residuals(shifted, spec).reshape(-1, dim, dim)
    ok = np.isfinite(want).all(axis=(1, 2))
    assert 0 < ok.sum() < count - 100
    assert_array_equal(np.isfinite(got).all(axis=(1, 2)), ok)
    _assert_same_bits(got, want)


def test_singular_newton_system_fails_alone(rng):
    jac = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    jac[2, 3] = 0.0
    rhs = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac[2], rhs[2])
    steps, solved = _newton_steps(jac, rhs)
    assert_array_equal(solved, [True, True, False, True])
    for k in (0, 1, 3):
        assert_array_equal(steps[k], np.linalg.solve(jac[k], rhs[k]))


def _newton_oracle(spec, z0, max_iter):
    """``_newton`` written plainly: the Jacobian from full evaluations of the
    shifted rows and one halving of the line search per residual call.  The
    bit-identity oracle of ``_newton``, which stacks its rows differently."""
    dim = z0.shape[1]
    z = np.array(z0, dtype=complex)
    f = _chunked_residuals(z, spec)
    fnorm = _max_norm(f)
    exits = np.full(len(z), "max_iter", dtype=object)
    finite = np.isfinite(f).all(axis=1)
    fnorm[~finite] = np.inf
    exits[~finite] = "nonfinite_start"
    active = np.flatnonzero(finite)
    for _ in range(max_iter):
        done = fnorm[active] < 1e-13
        exits[active[done]] = "converged"
        active = active[~done]
        if not active.size:
            break
        fa = f[active]
        shifted = z[active][:, None, :] + NEWTON_FD_STEP * np.eye(dim)
        fp = _chunked_residuals(shifted.reshape(-1, dim), spec).reshape(-1, dim, dim)
        ok = np.isfinite(fp).all(axis=(1, 2))
        exits[active[~ok]] = "nonfinite_jacobian"
        active, fa, fp = active[ok], fa[ok], fp[ok]
        jac = (fp - fa[:, None, :]).transpose(0, 2, 1) / NEWTON_FD_STEP
        step, solved = _newton_steps(jac, -fa)
        exits[active[~solved]] = "singular_jacobian"
        active, step = active[solved], step[solved]
        searching = np.arange(len(active))
        t = 1.0
        for _ in range(14):
            if not searching.size:
                break
            rows = active[searching]
            zn = z[rows] + t * step[searching]
            fn = _chunked_residuals(zn, spec)
            fn_norm = _max_norm(fn)
            good = np.isfinite(fn).all(axis=1)
            good[good] = fn_norm[good] < (1 - 1e-4 * t) * fnorm[rows[good]]
            z[rows[good]], f[rows[good]] = zn[good], fn[good]
            fnorm[rows[good]] = fn_norm[good]
            searching = searching[~good]
            t *= 0.5
        exits[active[searching]] = "stalled"
        active = np.delete(active, searching)
    exits[active[fnorm[active] < 1e-13]] = "converged"
    return z, fnorm, exits


@pytest.mark.parametrize("N", [1, 2])
def test_newton_oracle_keeps_its_bits_in_fewer_calls(N, rng, monkeypatch):
    # two halvings per line-search call and Jacobian chunks of
    # RESIDUAL_CHUNK rows regroup the rows, not a start's arithmetic; with a
    # chunk of 5 starts' rows the Jacobian and line search span several
    spec = default_spec(N=N)
    dim = 4 * N + 4
    z0 = _hard_rows(spec, 48, rng)
    z0[6, 4 * N] = 1e12     # f1_plus beyond the step's ulp: a singular Jacobian
    want = _newton_oracle(spec, z0, 25)
    assert {"nonfinite_start", "singular_jacobian", "stalled"} <= set(want[2])
    log = []
    for name in ("_difference_residuals", "_chunked_residuals", "_residuals"):
        def counted(z, *args, _name=name, _inner=getattr(spectrum_module, name)):
            log.append((_name, len(z)))
            return _inner(z, *args)

        monkeypatch.setattr(spectrum_module, name, counted)
    for chunk in (RESIDUAL_CHUNK, 5 * dim):
        monkeypatch.setattr(spectrum_module, "RESIDUAL_CHUNK", chunk)
        log.clear()
        z, fnorm, exits = _newton(spec, z0, 25)
        _assert_same_bits(z, want[0])
        _assert_same_bits(fnorm, want[1])
        assert_array_equal(exits, want[2])
        assert max(rows for name, rows in log if name == "_residuals") <= chunk
        # an iteration: one difference Jacobian over its starts and that
        # Jacobian's _residuals calls, then the line-search calls
        iterations, in_jacobian = [], False
        for name, rows in log:
            if name == "_difference_residuals":
                iterations.append([rows, 0, 0])
                in_jacobian = True
            elif name == "_chunked_residuals":
                if iterations:
                    iterations[-1][2] += 1
                in_jacobian = False
            elif in_jacobian:
                iterations[-1][1] += 1
        assert len(iterations) > 10
        for starts, assembly, searches in iterations:
            assert 1 <= assembly <= -(-starts * dim // chunk)
            assert 1 <= searches <= 7


def test_lone_singular_start_exits_with_its_class(rng):
    # f1_plus = 1e12 puts the Jacobian's shift below its ulp, so the system
    # is singular; alone the start leaves an empty batch for the line search
    spec = default_spec(N=1)
    z0 = _random_starts(spec, 2, rng)
    z0[0, 4] = 1e12
    alone, pair = _newton(spec, z0[:1], 60), _newton(spec, z0, 60)
    assert alone[2][0] == pair[2][0] == "singular_jacobian"
    assert pair[2][1] != "singular_jacobian"
    assert_array_equal(alone[0][0], z0[0])
    for a, p in zip(alone, pair):
        assert_array_equal(a[0], p[0])


def test_newton_exit_counts(bae1, bae2):
    for result in (bae1, bae2):
        assert list(result.newton_exits) == list(NEWTON_EXITS)
        assert sum(result.newton_exits.values()) == result.n_seeds
        assert result.newton_exits["converged"] == sum(
            r < 1e-13 for r in result.seed_residuals)
