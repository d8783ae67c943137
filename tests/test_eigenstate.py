"""Scalar products of transfer eigenstates and state reconstruction."""
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import spintorus.eigenstate as eigenstate
from spintorus.chain import ChainSpec, default_spec
from spintorus.eigenstate import (Reconstructor, _kernel, _pairings,
                                  _tree_sum, closed_form_two_site, f_factor,
                                  g_m_function, homogeneous_limit_study,
                                  normalize_gauge, reconstruct, scalar_F)
from spintorus.errors import (DegenerateNormalizationError,
                              NonGenericSpecError, PoleProximityError)
from spintorus.monodromy import (conjugate_vacuum_bra, conjugate_vacuum_ket,
                                 homogeneous_transfer, monodromy_blocks,
                                 scalar_a, transfer, vacuum_bra)
from spintorus.sov_basis import (BasisIndex, basis_states, enumerate_basis,
                                 left_state)
from spintorus.spectrum import OMEGA, brute_force_spectrum, eigenvalue_at
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
                    bra = bra @ monodromy_blocks(spec2.theta[p - 1], spec2)[1][2]
                for q in reversed(qset):
                    bra = bra @ monodromy_blocks(spec2.theta[q - 1], spec2)[2][1]
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
    b1 = vacuum_bra(spec1) @ monodromy_blocks(spec1.theta[0], spec1)[1][0]
    got = complex(b1 @ monodromy_blocks(u1, spec1)[2][1]
                  @ conjugate_vacuum_ket(spec1))
    want = g_m_function((spec1.theta[0],), (u1,), spec1) \
        * scalar_a(spec1.theta[0], spec1)
    assert abs(got - want) / abs(want) < 1e-12

    bra = vacuum_bra(spec2) @ monodromy_blocks(spec2.theta[0], spec2)[1][0] \
        @ monodromy_blocks(spec2.theta[1], spec2)[1][0]
    afac = scalar_a(spec2.theta[0], spec2) * scalar_a(spec2.theta[1], spec2)
    for pts in ((u1, u2), spec2.theta):
        got = complex(bra @ monodromy_blocks(pts[1], spec2)[2][1]
                      @ monodromy_blocks(pts[0], spec2)[2][1]
                      @ conjugate_vacuum_ket(spec2))
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


def _pairing_oracle(kernel, lam, psi_bar0):
    """The per-set pairing ``_pairings`` replaced: one ``np.prod`` of the
    eigenvalue per primed set and per complement."""
    comp, rows, a_all = kernel
    for q in comp:
        if abs(lam[q - 1]) < 1e-12:
            raise DegenerateNormalizationError(
                f"eigenvalue vanishes at site {q}; the pairing formula "
                "divides by it")
    total = 0.0 + 0.0j
    for primed, kern_cross, norm in rows:
        lam_primed = np.prod([lam[p - 1] for p in primed]) if primed else 1.0
        total += kern_cross * lam_primed / norm
    lam_comp = np.prod([lam[q - 1] for q in comp]) if comp else 1.0
    return complex(total * a_all / lam_comp * psi_bar0)


@lru_cache(maxsize=None)
def _all_kernels(N):
    spec = default_spec(N=N)
    return [_kernel(sites, spec) for m in range(N + 1)
            for sites in combinations(range(1, N + 1), m)]


def _assert_pairings_match_oracle(N, lam, psi_bar0):
    kernels = _all_kernels(N)
    want = [_pairing_oracle(kernel, lam, psi_bar0) for kernel in kernels]
    got = _pairings(kernels, lam, psi_bar0)
    alone = [_pairings([kernel], lam, psi_bar0)[0] for kernel in kernels]
    assert got == want and alone == want
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_pairings_equal_per_set_products_on_records(N):
    spec = default_spec(N=N)
    for rec in brute_force_spectrum(spec):
        lam = tuple(complex(v) for v in rec.lambda_theta)
        _assert_pairings_match_oracle(N, lam, _psi_bar0(rec, spec))


_complex = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False)


@given(st.integers(1, 3).flatmap(
    lambda N: st.tuples(st.lists(_complex, min_size=N, max_size=N),
                        _complex)))
def test_pairings_equal_per_set_products_on_drawn_eigenvalues(draw):
    lam, psi_bar0 = draw
    _assert_pairings_match_oracle(len(lam), tuple(lam), psi_bar0)


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
                    bra = bra @ monodromy_blocks(spec2.theta[p - 1], spec2)[1][2]
                got = complex(bra @ rec.vector)
                want = (lam_all / afac) \
                    * np.prod([rec.lambda_theta[p - 1] for p in pset]) * psi0
                assert abs(got - want) < 1e-8 * max(abs(got), 1.0)


def test_scalar_products_refuse_vanishing_eigenvalue(spec2):
    with pytest.raises(DegenerateNormalizationError, match="site 2"):
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


def test_reconstructor_reused_matches_fresh_reconstruct(
        spec1, spec2, spec3, records1, records2, records3):
    for spec, records in ((spec1, records1), (spec2, records2),
                          (spec3, records3)):
        rebuild = Reconstructor(spec)
        for rec in records:
            lam, psi0 = _lam_map(rec, spec), _psi_bar0(rec, spec)
            assert np.array_equal(rebuild.state(lam, psi0),
                                  reconstruct(lam, psi0, spec))


def test_reconstructor_builds_chain_data_once(spec3, records3, monkeypatch):
    calls = {"_grown_rows": 0, "g_factor": 0, "g_m_function": 0}

    def counted(name):
        original = getattr(eigenstate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(eigenstate, name, counted(name))
    rebuild = Reconstructor(spec3)
    for rec in records3:
        rebuild.state(_lam_map(rec, spec3), _psi_bar0(rec, spec3))
    # one ket stack and no bras, one norm per label, one kernel per pair of
    # equal-size sets
    assert calls == {"_grown_rows": 1, "g_factor": 27, "g_m_function": 20}
    assert np.array_equal(rebuild.kets, basis_states(spec3)[2])


def test_reconstructor_refuses_one_record_and_keeps_going(spec2, records2):
    rebuild = Reconstructor(spec2)
    with pytest.raises(DegenerateNormalizationError):
        rebuild.state({1: 0.5, 2: 0.0}, 1.0)
    rec = records2[4]
    lam, psi0 = _lam_map(rec, spec2), _psi_bar0(rec, spec2)
    assert np.array_equal(rebuild.state(lam, psi0), reconstruct(lam, psi0, spec2))


def test_shared_arrays_are_read_only(spec2):
    with pytest.raises(ValueError, match="read-only"):
        Reconstructor(spec2).kets[0, 0] = 1.0


def _list_tree_sum(terms):
    """The list bracketing the stacked ``_tree_sum`` replaced."""
    items = list(terms)
    while len(items) > 1:
        items = [items[i] + items[i + 1] if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0]


@given(hnp.arrays(np.complex128,
                  st.tuples(st.integers(1, 40), st.integers(1, 5)),
                  elements=st.complex_numbers(max_magnitude=1e100,
                                              allow_nan=False,
                                              allow_infinity=False)))
def test_stacked_tree_sum_matches_list_bracketing(rows):
    assert _tree_sum(rows).tobytes() == _list_tree_sum(rows).tobytes()


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
    records, vmat, wmat, _ = simultaneous_eigen([t1, t2, u_op])
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
    def refuse(*args):
        raise DegenerateNormalizationError("eigenvalue vanishes")

    monkeypatch.setattr(eigenstate.Reconstructor, "state", refuse)
    study = homogeneous_limit_study((0.13 + 0.07j,), (0.1, 0.05), 0.5)
    assert len(study.families) == 3
    assert all(f.degenerate and not f.distances for f in study.families)

    def broken(*args):
        raise ValueError("unrelated defect")

    monkeypatch.setattr(eigenstate.Reconstructor, "state", broken)
    with pytest.raises(ValueError, match="unrelated defect"):
        homogeneous_limit_study((0.13 + 0.07j,), (0.1, 0.05), 0.5)


def test_uniform_limit_study_refuses_repeated_factor_up_front(monkeypatch):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was built")

    monkeypatch.setattr(eigenstate, "brute_force_spectrum", no_spectrum)
    monkeypatch.setattr(eigenstate, "simultaneous_eigen", no_spectrum)
    with pytest.raises(ValueError, match="repeated shrink factor 0.1"):
        homogeneous_limit_study((0.13 + 0.07j,), (0.1, 0.1), 0.5)
    with pytest.raises(ValueError, match="repeated shrink factor 0.05"):
        homogeneous_limit_study((0.13 + 0.07j,), (0.05, 0.1, 0.05), 0.5)


def test_uniform_limit_study_rejects_degenerate_direction():
    with pytest.raises(NonGenericSpecError):
        homogeneous_limit_study((0.3, 0.3), (0.1, 0.05), 0.5)
