"""Dense tensor-product plumbing: embeddings, bilinear pairing, joint eigen."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus.chain import default_spec
from spintorus.errors import NonGenericSpecError
from spintorus.rmatrix import twist_matrix
from spintorus.tensor_core import (basis_vector, bilinear_pair,
                                   embed_site_operator, embed_two_site,
                                   kron_chain, simultaneous_eigen,
                                   site_matrix_unit)


def test_embed_identity_any_site():
    spec = default_spec(N=2)
    for site in (1, 2):
        out = embed_site_operator(np.eye(3), site, spec)
        assert_allclose(out, np.eye(9), atol=0)


def test_embed_matrix_unit_site_two():
    spec = default_spec(N=2)
    op = embed_site_operator(site_matrix_unit(3, 1, 2), 2, spec)
    # |i, 2> -> |i, 1>, everything else annihilated
    for i in range(3):
        src = basis_vector((i + 1, 2), spec)
        dst = basis_vector((i + 1, 1), spec)
        assert_allclose(op @ src, dst, atol=0)
    assert np.count_nonzero(op) == 3


def test_embed_against_kron_oracle():
    spec = default_spec(N=2)
    g = twist_matrix(3)
    embedded = embed_site_operator(g, 1, spec)
    assert_allclose(embedded, kron_chain([g, np.eye(3)]), atol=0)
    assert np.count_nonzero(embedded) == 9


def test_embeddings_at_distinct_sites_commute(rng):
    spec = default_spec(N=3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    oa = embed_site_operator(a, 1, spec)
    ob = embed_site_operator(b, 3, spec)
    assert np.abs(oa @ ob - ob @ oa).max() < 1e-13


def test_two_site_embedding_against_single_site_products(rng):
    # a product operator a (x) b on sites (i, j) is embed(a, i) embed(b, j);
    # on one site (i == j) the two factors multiply there
    spec = default_spec(N=3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            got = embed_two_site(np.kron(a, b), i, j, 3, 3)
            want = embed_site_operator(a, i, spec) @ embed_site_operator(b, j, spec)
            assert np.abs(got - want).max() < 1e-13
    with pytest.raises(ValueError, match="outside"):
        embed_two_site(np.kron(a, b), 0, 2, 3, 3)


def test_bilinear_pair_basis_cases():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert bilinear_pair(e1, e1) == 1
    assert bilinear_pair(e1, e2) == 0
    # transpose pairing, not conjugate-transpose: (i e1, i e1) -> -1
    assert bilinear_pair(1j * e1, 1j * e1) == -1


def test_bilinear_pair_symmetric(rng):
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert abs(bilinear_pair(x, y) - bilinear_pair(y, x)) < 1e-14


def test_joint_eigen_identity_family():
    records, vmat, wmat = simultaneous_eigen([np.eye(4)])
    assert len(records) == 4
    for _, mus in records:
        assert_allclose(mus, (1.0,), atol=1e-12)


def test_joint_eigen_cyclic_twist():
    records, _, _ = simultaneous_eigen([twist_matrix(3)])
    omega = np.exp(2j * np.pi / 3)
    got = sorted(np.angle(m[0]) for _, m in records)
    want = sorted(np.angle(x) for x in (1, omega, omega ** 2))
    assert_allclose(got, want, atol=1e-10)


def test_joint_eigen_reconstructs_members(rng):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    family = [a, a @ a + 0.3 * a]
    records, vmat, wmat = simultaneous_eigen(family, rng_seed=7)
    for oi, op in enumerate(family):
        acc = np.zeros_like(op)
        for k, (vec, mus) in enumerate(records):
            dual = wmat[k]
            acc += mus[oi] * np.outer(vec, dual) / (dual @ vec)
        assert np.linalg.norm(acc - op) / np.linalg.norm(op) < 1e-7


def test_joint_eigen_rejects_noncommuting(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NonGenericSpecError, match="commute"):
        simultaneous_eigen([a, b])


def test_joint_eigen_warns_on_defective_input():
    # a Jordan block has no clean eigenbasis; the returned near-parallel
    # vectors still satisfy the eigen-equations, so the contract is a
    # condition-number warning rather than a hard failure
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        simultaneous_eigen([jordan])


def test_basis_vector_ordering():
    spec = default_spec(N=2)
    # first index slowest: |2,1> sits at position n*(2-1) + (1-1) = 3
    vec = basis_vector((2, 1), spec)
    assert vec[3] == 1 and np.count_nonzero(vec) == 1
