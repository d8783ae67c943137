"""Dense tensor-product plumbing: embeddings and joint eigen."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import spintorus.tensor_core as tensor_core_module

from spintorus.chain import default_spec
from spintorus.errors import DegeneracyError, NonGenericSpecError
from spintorus.rmatrix import twist_matrix
from spintorus.tensor_core import (embed_two_site, kron_chain,
                                   simultaneous_eigen, site_matrix_unit)

from oracles import embed_site_operator


def test_embed_identity_any_site():
    spec = default_spec(N=2)
    for site in (1, 2):
        out = embed_site_operator(np.eye(3), site, spec)
        assert_allclose(out, np.eye(9), atol=0)


def test_embed_matrix_unit_site_two():
    spec = default_spec(N=2)
    op = embed_site_operator(site_matrix_unit(3, 1, 2), 2, spec)
    # |i, 2> -> |i, 1>, everything else annihilated; site 1 is slowest, so
    # |i, j> sits at position 3 (i - 1) + (j - 1)
    product = np.eye(9)
    for i in range(3):
        assert_allclose(op @ product[3 * i + 1], product[3 * i], atol=0)
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


def test_joint_eigen_identity_family():
    records, vmat, wmat, _ = simultaneous_eigen([np.eye(4)])
    assert len(records) == 4
    for _, mus in records:
        assert_allclose(mus, (1.0,), atol=1e-12)


def test_joint_eigen_cyclic_twist():
    records, _, _, _ = simultaneous_eigen([twist_matrix(3)])
    omega = np.exp(2j * np.pi / 3)
    got = sorted(np.angle(m[0]) for _, m in records)
    want = sorted(np.angle(x) for x in (1, omega, omega ** 2))
    assert_allclose(got, want, atol=1e-10)


def test_joint_eigen_reconstructs_members(rng):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    family = [a, a @ a + 0.3 * a]
    records, vmat, wmat, resid = simultaneous_eigen(family, rng_seed=7)
    for oi, op in enumerate(family):
        acc = np.zeros_like(op)
        for k, (vec, mus) in enumerate(records):
            dual = wmat[k]
            acc += mus[oi] * np.outer(vec, dual) / (dual @ vec)
        assert np.linalg.norm(acc - op) / np.linalg.norm(op) < 1e-7
    # the returned residuals are the worst one-vector relative residuals
    for k, (vec, mus) in enumerate(records):
        want = max(np.abs(op @ vec - mu * vec).max()
                   / (max(float(np.abs(op).max()), 1.0) * np.abs(vec).max())
                   for op, mu in zip(family, mus))
        assert resid[k] <= 1e-8 and abs(resid[k] - want) <= 1e-15


def test_joint_eigen_residual_gate_fires(rng, monkeypatch):
    # a perturbed eigenvector matrix must fail the batched residual gate on
    # every retry; the error names the first member and its worst residual
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    family = [a, a @ a + 0.3 * a]
    eig = np.linalg.eig
    bases = []

    def perturbed(mix):
        w, vmat = eig(mix)
        vmat = vmat + 1e-3 * rng.standard_normal(vmat.shape)
        bases.append(vmat)
        return w, vmat

    monkeypatch.setattr(tensor_core_module.np.linalg, "eig", perturbed)
    with pytest.raises(DegeneracyError) as info:
        simultaneous_eigen(family)
    assert len(bases) == tensor_core_module.EIGEN_RETRIES
    vmat = bases[-1]
    ov = a @ vmat
    mu = (np.linalg.inv(vmat) * ov.T).sum(axis=1)
    worst = (np.abs(ov - mu * vmat).max(axis=0)
             / (max(float(np.abs(a).max()), 1.0) * np.abs(vmat).max(axis=0)))
    assert f"member 0: worst eigen-residual {worst.max():.3e}" in str(info.value)


def test_joint_eigen_rejects_noncommuting(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NonGenericSpecError, match="commute"):
        simultaneous_eigen([a, b])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_joint_eigen_refuses_non_finite_family(bad):
    # refused up front with ValueError, before any eigen-solve
    a = np.eye(3, dtype=complex)
    b = np.diag([1.0, 2.0, bad]).astype(complex)
    with pytest.raises(ValueError, match="finite"):
        simultaneous_eigen([a, b])


def test_joint_eigen_warns_on_defective_input():
    # a Jordan block has no clean eigenbasis; the returned near-parallel
    # vectors still satisfy the eigen-equations, so the contract is a
    # condition-number warning rather than a hard failure
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        simultaneous_eigen([jordan])


@pytest.mark.parametrize("broken", ["zero", "nan"])
def test_joint_eigen_retries_a_singular_eigenvector_matrix(broken, monkeypatch):
    # a V that cannot be inverted (zero) or whose condition figure is not
    # finite (NaN) takes the next random combination
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    eig = np.linalg.eig
    calls = []

    def singular(mix, every_time):
        w, vmat = eig(mix)
        calls.append(mix)
        if every_time or len(calls) == 1:
            vmat = np.zeros_like(vmat) if broken == "zero" else vmat * np.nan
        return w, vmat

    monkeypatch.setattr(tensor_core_module.np.linalg, "eig",
                        lambda mix: singular(mix, every_time=False))
    records, _, _, _ = simultaneous_eigen([a])
    assert len(calls) == 2
    assert sorted(mu[0].real for _, mu in records) == pytest.approx([1, 2, 3])

    calls.clear()
    monkeypatch.setattr(tensor_core_module.np.linalg, "eig",
                        lambda mix: singular(mix, every_time=True))
    with pytest.raises(DegeneracyError, match="singular eigenvector matrix"):
        simultaneous_eigen([a])
    assert len(calls) == tensor_core_module.EIGEN_RETRIES


def test_condition_figure_bounds_the_two_norm_condition(rng):
    # |V|_F |V^-1|_F is never below cond_2(V), so the warning threshold
    # still fires wherever the 2-norm condition exceeds it
    cases = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
             for d in (2, 5, 17, 40)]
    for delta in (1e-3, 1e-7, 1e-11):
        # eigenvectors of a Jordan block split by delta: near-parallel
        _, vmat = np.linalg.eig(np.array([[1.0, 1.0], [0.0, 1.0 + delta]]))
        cases.append(vmat.astype(complex))
    for vmat in cases:
        wmat, cond = tensor_core_module._inverse_and_condition(vmat)
        assert np.array_equal(wmat, np.linalg.inv(vmat))
        assert cond >= np.linalg.cond(vmat)
    assert tensor_core_module._inverse_and_condition(
        np.zeros((3, 3), dtype=complex)) == (None, np.inf)
