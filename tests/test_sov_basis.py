"""Separated basis: enumeration, norms, orthogonality, operator expansions."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus.chain import ChainSpec, default_spec
from spintorus.monodromy import (monodromy_blocks, scalar_d, vacuum_bra,
                                 vacuum_ket)
from spintorus.sov_basis import (BasisIndex, act_on_bra, act_on_bra_dense,
                                 decomposition_residual, enumerate_basis,
                                 g_factor, gram_matrix,
                                 identity_resolution_residual, left_state,
                                 right_state, sun_dnn_residual,
                                 verify_orthogonality)

SINH2_05 = 0.27154031740762189     # 50-digit sinh(0.5)^2

OPS = ("D33", "D23", "D32", "B3", "C3")


def test_enumeration_counts_and_single_site(spec1, spec2, spec3):
    basis1 = enumerate_basis(spec1)
    assert [(ix.m2, ix.m, ix.sites) for ix in basis1] == \
        [(0, 0, ()), (0, 1, (1,)), (1, 1, (1,))]
    assert len(enumerate_basis(spec2)) == 9
    assert len(enumerate_basis(spec3)) == 27


def test_label_blocks_disjoint_and_sorted(spec3):
    for ix in enumerate_basis(spec3):
        assert list(ix.block2) == sorted(ix.block2)
        assert list(ix.block3) == sorted(ix.block3)
        assert not (set(ix.block2) & set(ix.block3))
        assert ix.m2 == len(ix.block2) and ix.m == len(ix.sites)


def test_empty_label_gives_reference_states(spec2):
    empty = BasisIndex(block2=(), block3=())
    assert_allclose(left_state(empty, spec2), vacuum_bra(spec2), atol=0)
    assert_allclose(right_state(empty, spec2), vacuum_ket(spec2), atol=0)


def test_single_site_states_closed_form():
    spec = ChainSpec(n=3, N=1, eta=0.5, theta=(0.2,))
    sh = np.sinh(0.5)
    two = BasisIndex(block2=(1,), block3=())
    three = BasisIndex(block2=(), block3=(1,))
    for idx, flavor in ((two, 2), (three, 3)):
        expect = np.zeros(3, dtype=complex)
        expect[flavor - 1] = sh
        assert_allclose(left_state(idx, spec), expect, atol=1e-15)
        assert_allclose(right_state(idx, spec), expect, atol=1e-15)


def test_norm_factor_closed_form(spec1, spec2):
    empty = BasisIndex(block2=(), block3=())
    assert g_factor(empty, spec1) == 1
    for idx in enumerate_basis(spec1)[1:]:
        assert abs(g_factor(idx, spec1) - SINH2_05) < 1e-15
    # N=2: closed form equals the direct bilinear pairing for every label
    for idx in enumerate_basis(spec2):
        direct = left_state(idx, spec2) @ right_state(idx, spec2)
        assert abs(g_factor(idx, spec2) - direct) / abs(direct) < 1e-12


def test_gram_single_site(spec1):
    gram = gram_matrix(spec1)
    assert_allclose(gram, np.diag([1.0, SINH2_05, SINH2_05]), atol=1e-15)


def test_gram_diagonal_and_identity_resolution(spec2, spec3):
    for spec in (spec2, spec3):
        report = verify_orthogonality(spec)
        assert report["diag_rel_err"] < 1e-9
        assert report["offdiag_resid"] < 1e-9
        assert identity_resolution_residual(spec) < 1e-9
        scale = max(abs(g) for g in report["expected_diagonal"])
        assert min(abs(g) for g in report["expected_diagonal"]) > 1e-12 * scale


def test_separated_operator_is_diagonal_on_basis(spec2, rng):
    # both left and right basis states are exact eigenstates of the (3,3) entry
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    d33 = monodromy_blocks(u, spec2)[2][2]
    for idx in enumerate_basis(spec2):
        lam = scalar_d(u, spec2)
        for p in idx.block3:
            t = spec2.theta[p - 1]
            lam *= np.sinh(u - t + spec2.eta) / np.sinh(u - t)
        lv, rv = left_state(idx, spec2), right_state(idx, spec2)
        assert np.abs(lv @ d33 - lam * lv).max() < 1e-13
        assert np.abs(d33 @ rv - lam * rv).max() < 1e-13


def test_expansion_empty_label_diagonal_term(spec2, rng):
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    empty = BasisIndex(block2=(), block3=())
    terms = act_on_bra("D33", u, empty, spec2)
    assert len(terms) == 1
    target, coeff = terms[0]
    assert target == empty
    assert abs(coeff - scalar_d(u, spec2)) < 1e-13


def test_expansions_match_dense_action(spec2, rng):
    for op in OPS:
        for idx in enumerate_basis(spec2):
            for _ in range(3):
                u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                assert decomposition_residual(op, u, idx, spec2) < 1e-9


def test_left_vanishing_relations(spec2):
    scale = max(np.abs(monodromy_blocks(0.1, spec2)[2][2]).max(), 1.0)
    for idx in enumerate_basis(spec2):
        outside = [q for q in (1, 2) if q not in idx.sites]
        for q in outside:
            u = spec2.theta[q - 1]
            for op in ("D33", "B3"):
                assert act_on_bra(op, u, idx, spec2) == []
                assert np.abs(act_on_bra_dense(op, u, idx, spec2)).max() \
                    < 1e-11 * scale


def test_right_vanishing_relations(spec2):
    blocks_at = {q: monodromy_blocks(spec2.theta[q - 1], spec2) for q in (1, 2)}
    for idx in enumerate_basis(spec2):
        outside = [q for q in (1, 2) if q not in idx.sites]
        rv = right_state(idx, spec2)
        for q in outside:
            blocks = blocks_at[q]
            scale = max(np.abs(blocks[2][2]).max(), 1.0) * max(np.abs(rv).max(), 1.0)
            for i in (1, 2):
                assert np.abs(blocks[i][0] @ rv).max() < 1e-11 * scale
                for j in (1, 2):
                    assert np.abs(blocks[i][j] @ rv).max() < 1e-11 * scale


def test_annihilation_expansion_via_projection(spec2, rng):
    # independent route: read the expansion coefficients off the resolved
    # identity, coeff(target) = <idx|Op|target> / norm(target)
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    basis = enumerate_basis(spec2)
    for idx in basis:
        dense = act_on_bra_dense("C3", u, idx, spec2)
        expansion = dict(act_on_bra("C3", u, idx, spec2))
        for target in basis:
            projected = (dense @ right_state(target, spec2)) \
                / g_factor(target, spec2)
            claimed = expansion.get(target, 0.0)
            assert abs(projected - claimed) < 1e-9 * max(abs(claimed), 1.0)


def _check_rank_n_basis(spec, rng):
    # n^N labels with one block per flavor 2..n, a Gram matrix of full rank,
    # and every left state an eigenvector of the corner entry D^n_n
    labels = enumerate_basis(spec)
    assert len(labels) == spec.n ** spec.N
    assert len(set(labels)) == len(labels)
    assert all(len(ix.blocks) == spec.n - 1 for ix in labels)
    assert labels == sorted(labels, key=BasisIndex.sort_key)
    lmat = np.array([left_state(ix, spec) for ix in labels])
    rmat = np.array([right_state(ix, spec) for ix in labels]).T
    assert np.linalg.matrix_rank(lmat @ rmat) == spec.dim
    for _ in range(2):
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for ix in labels:
            assert sun_dnn_residual(u, ix, spec) < 1e-11


def test_rank_generalization_reduces_to_default(rng):
    # two flavors: a single block per label, the states of a one-flavor chain
    spec = default_spec(n=2, N=3)
    _check_rank_n_basis(spec, rng)
    assert [ix.blocks for ix in enumerate_basis(default_spec(n=2, N=2))] == \
        [((),), ((1,),), ((2,),), ((1, 2),)]


def test_rank_four_basis(rng):
    spec = ChainSpec(n=4, N=2, eta=0.5,
                     theta=(0.13 + 0.07j, 0.26 + 0.14j))
    _check_rank_n_basis(spec, rng)
    three = BasisIndex((1,), (), (2,))
    assert three.sites == (1, 2) and three.sort_key() == (2, (1, 0, 1), (1, 2))


def test_three_flavor_labels_by_name():
    idx = BasisIndex(block2=(2,), block3=(1,))
    assert idx == BasisIndex((2,), (1,))
    assert (idx.block2, idx.block3, idx.m2, idx.m, idx.sites) == \
        ((2,), (1,), 1, 2, (2, 1))
    with pytest.raises(ValueError, match="disjoint"):
        BasisIndex(block2=(1,), block3=(1,))
    with pytest.raises(TypeError):
        BasisIndex((1,), block3=(2,))
    with pytest.raises(ValueError, match="three-flavor"):
        g_factor(BasisIndex((1,)), default_spec(n=2, N=2))
