"""Scalar products of transfer eigenstates and state reconstruction."""
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus.chain import ChainSpec, default_spec
from spintorus.eigenstate import (closed_form_two_site, f_factor,
                                  g_m_function, homogeneous_limit_study,
                                  normalize_gauge, reconstruct, scalar_F,
                                  scalar_product_table)
from spintorus.errors import (DegenerateNormalizationError,
                              NonGenericSpecError, PoleProximityError)
from spintorus.monodromy import (conjugate_vacuum_bra, conjugate_vacuum_ket,
                                 homogeneous_transfer, op_C, op_D, scalar_a,
                                 transfer, vacuum_bra)
from spintorus.sov_basis import BasisIndex, enumerate_basis, left_state
from spintorus.spectrum import OMEGA, eigenvalue_at
from spintorus.tensor_core import kron_chain, simultaneous_eigen
from spintorus.rmatrix import twist_matrix

SINH2_05 = 0.27154031740762189


def _psi_bar0(rec, spec):
    return complex(conjugate_vacuum_bra(spec) @ rec.vector)


def _lam_map(rec, spec):
    return {j + 1: rec.lambda_theta[j] for j in range(spec.N)}


def test_product_norm_values(spec1, spec2):
    assert f_factor((), spec2) == 1
    assert abs(f_factor((1,), spec1) - SINH2_05) < 1e-15
    # matrix-action oracle: the conjugate-state chain pairing is diagonal in
    # the site subsets and equals the closed-form product
    bar_bra = conjugate_vacuum_bra(spec2)
    bar_ket = conjugate_vacuum_ket(spec2)
    for m in (1, 2):
        for pset in combinations((1, 2), m):
            for qset in combinations((1, 2), m):
                bra = bar_bra.copy()
                for p in pset:
                    bra = bra @ op_D(spec2.theta[p - 1], 2, 3, spec2)
                for q in reversed(qset):
                    bra = bra @ op_D(spec2.theta[q - 1], 3, 2, spec2)
                got = complex(bra @ bar_ket)
                if pset == qset:
                    want = f_factor(pset, spec2)
                    assert abs(got - want) / abs(want) < 1e-12
                else:
                    assert abs(got) < 1e-14


def test_kernel_determinant_small_orders(spec1, rng):
    assert g_m_function((), (), spec1) == 1
    sh = np.sinh(0.5)
    for _ in range(4):
        u, v = (complex(a, b) for a, b in
                zip(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        want = sh * np.exp(-(u - v) / 3)
        assert abs(g_m_function((v,), (u,), spec1) - want) < 1e-13
    # coincident arguments hit the analytic limit, not a 0/0
    assert abs(g_m_function((0.3,), (0.3,), spec1) - sh) < 1e-13


def test_kernel_determinant_matrix_action_oracle(spec1, spec2):
    # <0| C2(theta_P) D32(u_m) ... D32(u_1) |0bar> = g_m(theta_P|u) prod_k a(theta_k)
    u1, u2 = 0.37 - 0.41j, -0.22 + 0.18j
    b1 = vacuum_bra(spec1) @ op_C(spec1.theta[0], 2, spec1)
    got = complex(b1 @ op_D(u1, 3, 2, spec1) @ conjugate_vacuum_ket(spec1))
    want = g_m_function((spec1.theta[0],), (u1,), spec1) \
        * scalar_a(spec1.theta[0], spec1)
    assert abs(got - want) / abs(want) < 1e-12

    bra = vacuum_bra(spec2) @ op_C(spec2.theta[0], 2, spec2) \
        @ op_C(spec2.theta[1], 2, spec2)
    afac = scalar_a(spec2.theta[0], spec2) * scalar_a(spec2.theta[1], spec2)
    for pts in ((u1, u2), spec2.theta):
        got = complex(bra @ op_D(pts[1], 3, 2, spec2)
                      @ op_D(pts[0], 3, 2, spec2) @ conjugate_vacuum_ket(spec2))
        want = g_m_function(spec2.theta, pts, spec2) * afac
        assert abs(got - want) / abs(want) < 1e-8


def test_kernel_determinant_rejects_near_coincident_rows(spec2):
    with pytest.raises(PoleProximityError):
        g_m_function(spec2.theta, (0.3, 0.3 + 1e-14), spec2)


def test_scalar_products_single_site_sectors(spec1, records1):
    sh = np.sinh(0.5)
    for rec in records1:
        psi0 = _psi_bar0(rec, spec1)
        got = scalar_F((1,), _lam_map(rec, spec1), psi0, spec1)
        want = OMEGA ** rec.z_charge * sh * psi0
        assert abs(got - want) < 1e-10
        empty = scalar_F((), _lam_map(rec, spec1), psi0, spec1)
        assert abs(empty - vacuum_bra(spec1) @ rec.vector) < 1e-10


def test_scalar_products_match_direct_pairings(spec2, records2):
    for rec in records2:
        psi0 = _psi_bar0(rec, spec2)
        lam = _lam_map(rec, spec2)
        for m in range(3):
            for pset in combinations((1, 2), m):
                bra = left_state(BasisIndex(block2=pset, block3=()), spec2)
                direct = complex(bra @ rec.vector)
                got = scalar_F(pset, lam, psi0, spec2)
                assert abs(got - direct) < 1e-7 * max(abs(direct), 1.0)


def test_scalar_product_table_covers_all_subsets(spec2, records2):
    rec = records2[0]
    table = scalar_product_table(_lam_map(rec, spec2), _psi_bar0(rec, spec2),
                                 spec2)
    assert set(table) == {(), (1,), (2,), (1, 2)}


def test_full_pairing_factorizes_over_second_block(spec2, records2):
    # appending a flavor-3 site to the bra multiplies the pairing by the
    # eigenvalue at that site's inhomogeneity
    for rec in records2:
        psi0 = _psi_bar0(rec, spec2)
        lam = _lam_map(rec, spec2)
        for idx in enumerate_basis(spec2):
            direct = complex(left_state(idx, spec2) @ rec.vector)
            factor = np.prod([lam[p] for p in idx.block3]) if idx.block3 else 1.0
            want = factor * scalar_F(idx.block2, lam, psi0, spec2)
            assert abs(direct - want) < 1e-8 * max(abs(direct), 1.0)


def test_conjugate_chain_pairing(spec2, records2):
    # <0bar| D23(theta_p1) ... |psi> carries one eigenvalue factor per site
    # applied, on top of the charge ratio linking the two reference bras
    afac = np.prod([scalar_a(t, spec2) for t in spec2.theta])
    for rec in records2:
        lam_all = np.prod(rec.lambda_theta)
        psi0 = vacuum_bra(spec2) @ rec.vector
        for m in range(3):
            for pset in combinations((1, 2), m):
                bra = conjugate_vacuum_bra(spec2).copy()
                for p in pset:
                    bra = bra @ op_D(spec2.theta[p - 1], 2, 3, spec2)
                got = complex(bra @ rec.vector)
                want = (lam_all / afac) \
                    * np.prod([rec.lambda_theta[p - 1] for p in pset]) * psi0
                assert abs(got - want) < 1e-8 * max(abs(got), 1.0)


def test_scalar_products_refuse_vanishing_eigenvalue(spec2):
    with pytest.raises(DegenerateNormalizationError):
        scalar_F((1,), {1: 0.5, 2: 0.0}, 1.0, spec2)


def test_reconstruction_single_site_closed_form(spec1, records1):
    for rec in records1:
        state = reconstruct(_lam_map(rec, spec1), _psi_bar0(rec, spec1), spec1)
        z = rec.z_charge
        want = np.array([1.0, OMEGA ** (2 * z), OMEGA ** z])
        ratio = state[0]
        assert abs(ratio) > 1e-12
        assert np.abs(state / ratio - want).max() < 1e-10


def test_reconstruction_parallel_to_reference(spec1, spec2, spec3,
                                              records1, records2, records3):
    for spec, records in ((spec1, records1), (spec2, records2),
                          (spec3, records3)):
        for rec in records:
            state = reconstruct(_lam_map(rec, spec), _psi_bar0(rec, spec), spec)
            cos = abs(np.vdot(rec.vector, state)) \
                / (np.linalg.norm(rec.vector) * np.linalg.norm(state))
            assert cos > 1 - 1e-8


def test_reconstruction_solves_eigen_problem(spec2, records2, rng):
    for rec in records2:
        state = reconstruct(_lam_map(rec, spec2), _psi_bar0(rec, spec2), spec2)
        for _ in range(5):
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = transfer(u, spec2)
            lam = eigenvalue_at(rec, u, spec2)
            resid = np.linalg.norm(t @ state - lam * state) \
                / np.linalg.norm(state)
            assert resid < 1e-8


def test_reconstruction_linear_in_normalization(spec2, records2):
    rec = records2[3]
    lam = _lam_map(rec, spec2)
    base = reconstruct(lam, 1.0, spec2)
    scaled = reconstruct(lam, 2.5 - 1.5j, spec2)
    assert_allclose(scaled, (2.5 - 1.5j) * base, rtol=1e-12, atol=1e-14)


def test_gauge_normalization():
    vec = np.array([0.0, 3j, 4.0])
    out = normalize_gauge(vec)
    assert abs(np.linalg.norm(out) - 1) < 1e-14
    assert abs(out[1].imag) < 1e-14 and out[1].real > 0
    with pytest.raises(ValueError):
        normalize_gauge(np.zeros(3, dtype=complex))
    with pytest.raises(DegenerateNormalizationError):
        normalize_gauge(np.zeros(3, dtype=complex))
    with pytest.raises(DegenerateNormalizationError, match="threshold"):
        normalize_gauge(np.ones(3), tol=2.0)


def test_uniform_closed_form_is_transfer_eigenvector():
    # build the closed-form state for one uniform-chain family and check it
    # against the joint eigenbasis of the uniform transfer at two probes
    eta = 0.5
    t1 = homogeneous_transfer(0.377 + 0.511j, 3, 2, eta)
    t2 = homogeneous_transfer(-0.291 + 0.173j, 3, 2, eta)
    u_op = kron_chain([twist_matrix(3)] * 2)
    records, vmat, wmat = simultaneous_eigen([t1, t2, u_op])
    t0 = homogeneous_transfer(0.0, 3, 2, eta)
    from spintorus.monodromy import fd4_derivative
    tp = fd4_derivative(lambda u: homogeneous_transfer(u, 3, 2, eta), 0.0)
    matched = 0
    for k, (vec, mus) in enumerate(records):
        norm = complex(wmat[k] @ vec)
        lam0 = complex(wmat[k] @ t0 @ vec) / norm
        dlam0 = complex(wmat[k] @ tp @ vec) / norm
        if abs(lam0) < 1e-12:
            continue
        closed = closed_form_two_site(lam0, dlam0, 3, eta)
        cos = abs(np.vdot(vec, closed)) \
            / (np.linalg.norm(vec) * np.linalg.norm(closed))
        assert cos > 1 - 1e-7
        matched += 1
    assert matched == 9


def test_uniform_closed_form_requires_three_flavors():
    with pytest.raises(ValueError, match="three flavors"):
        closed_form_two_site(1.0, 0.0, 2, 0.5)


def test_uniform_limit_study_converges(spec2):
    study = homogeneous_limit_study(spec2.theta, (0.1, 0.05, 0.025), 0.5)
    assert len(study.families) == 9
    assert study.n_converged == 9
    for fam in study.families:
        assert fam.monotone and not fam.degenerate
        assert fam.angle_eigenvector < 1e-4
        assert fam.angle_closed_form < 1e-4


def test_uniform_limit_study_marks_only_typed_failures_degenerate(monkeypatch):
    import spintorus.eigenstate as eigenstate

    def refuse(*args):
        raise DegenerateNormalizationError("eigenvalue vanishes")

    monkeypatch.setattr(eigenstate, "reconstruct", refuse)
    study = homogeneous_limit_study((0.13 + 0.07j,), (0.1, 0.05), 0.5)
    assert len(study.families) == 3
    assert all(f.degenerate and not f.distances for f in study.families)

    def broken(*args):
        raise ValueError("unrelated defect")

    monkeypatch.setattr(eigenstate, "reconstruct", broken)
    with pytest.raises(ValueError, match="unrelated defect"):
        homogeneous_limit_study((0.13 + 0.07j,), (0.1, 0.05), 0.5)


def test_uniform_limit_study_rejects_degenerate_direction():
    with pytest.raises(NonGenericSpecError):
        homogeneous_limit_study((0.3, 0.3), (0.1, 0.05), 0.5)
