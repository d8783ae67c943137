"""Reference spectra, eigenvalue parametrization, and the root search."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus.chain import ChainSpec, default_spec
from spintorus.monodromy import scalar_a
from spintorus.spectrum import (OMEGA, TQSolution, _canonical, _newton,
                                _pack, _residuals, _roots_separated,
                                _same_solution, _vector,
                                bae_residuals, brute_force_spectrum,
                                eigen_residual_at, eigenvalue_at, solve_bae,
                                tq_lambda, z_charge)

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


def test_charge_sectors_partition(spec2, records2):
    counts = {0: 0, 1: 0, 2: 0}
    for rec in records2:
        counts[z_charge(rec, spec2, tol=1e-7)] += 1
    assert sum(counts.values()) == 9
    assert min(counts.values()) >= 1


def test_eigenvalue_functional_consistency(spec2, records2, rng):
    # the dual-row eigenvalue reproduces the stored values and keeps the
    # eigen-equation satisfied away from the sample points
    for rec in records2[:3]:
        for j, t in enumerate(spec2.theta):
            assert abs(eigenvalue_at(rec, t, spec2) - rec.lambda_theta[j]) < 1e-10
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert eigen_residual_at(rec, u, spec2) < 1e-11


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


def test_solutions_deform_with_shrinking_inhomogeneity(spec1, bae1):
    # the converged root set continues smoothly as theta -> eps * theta
    sol = bae1.solutions[0]
    x = _pack(sol)
    for eps in (0.5, 0.1):
        spec_eps = ChainSpec(n=3, N=1, eta=0.5,
                             theta=tuple(eps * t for t in spec1.theta))
        x, fnorm = _newton(spec_eps, x, max_iter=60, fd_step=1e-7)
        assert fnorm < 1e-10
