"""Separated basis: enumeration, norms, orthogonality, operator expansions;
properties over random generic chains."""
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spintorus.monodromy as monodromy
import spintorus.sov_basis as sov_basis
from spintorus.chain import ChainSpec, default_spec
from spintorus.cli import load_config, run
from spintorus.eigenstate import Reconstructor, closed_form_two_site
from spintorus.errors import PoleProximityError, UnsupportedRankError
from spintorus.monodromy import (apply_entry_bra, scalar_d, transfer,
                                 vacuum_bra, vacuum_ket)
from spintorus.rmatrix import (crossing_residual, qybe_residual,
                               twist_invariance_residual, unitarity_residual)
from spintorus.sov_basis import (OP_ENTRY, BasisIndex, _norms, act_on_bra,
                                 basis_states, decomposition_residual,
                                 enumerate_basis, identity_resolution_residual,
                                 verify_orthogonality)
from spintorus.spectrum import brute_force_spectrum
from spintorus.tensor_core import _rel_resid

from oracles import left_state, monodromy_blocks, right_state

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
    empty = BasisIndex((), ())
    assert_allclose(left_state(empty, spec2), vacuum_bra(spec2), atol=0)
    assert_allclose(right_state(empty, spec2), vacuum_ket(spec2), atol=0)


@pytest.mark.parametrize("n, N", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                  (2, 4), (4, 3)])
def test_basis_states_match_per_label_states(n, N, monkeypatch):
    # the stacked sweeps repeat the per-label products operation by
    # operation, so the rows are bit-identical to them; one sweep per last
    # step (flavor, site) and side
    spec = default_spec(n=n, N=N)
    entries = []

    def counted(rs, i, j, rows, spec):
        entries.append((i, j))
        return monodromy._sweep(rs, i, j, rows, spec)

    monkeypatch.setattr(sov_basis, "_sweep", counted)
    labels, bras, kets = basis_states(spec)
    bra_sweeps = sum(j == 1 for _, j in entries)   # bras apply C^f = T_f1
    assert bra_sweeps == len(entries) - bra_sweeps == (n - 1) * N
    assert labels == enumerate_basis(spec)
    assert bras.shape == kets.shape == (spec.dim, spec.dim)
    for row, idx in enumerate(labels):
        assert np.array_equal(bras[row], left_state(idx, spec))
        assert np.array_equal(kets[row], right_state(idx, spec))


def test_single_site_states_closed_form():
    spec = ChainSpec(n=3, N=1, eta=0.5, theta=(0.2,))
    sh = np.sinh(0.5)
    two = BasisIndex((1,), ())
    three = BasisIndex((), (1,))
    for idx, flavor in ((two, 2), (three, 3)):
        expect = np.zeros(3, dtype=complex)
        expect[flavor - 1] = sh
        assert_allclose(left_state(idx, spec), expect, atol=1e-15)
        assert_allclose(right_state(idx, spec), expect, atol=1e-15)


def test_norm_factor_closed_form(spec1, spec2):
    empty = BasisIndex((), ())
    assert _norms([empty], spec1)[0] == 1
    for idx in enumerate_basis(spec1)[1:]:
        assert abs(_norms([idx], spec1)[0] - SINH2_05) < 1e-15
    # N=2: closed form equals the direct bilinear pairing for every label
    for idx in enumerate_basis(spec2):
        direct = left_state(idx, spec2) @ right_state(idx, spec2)
        assert abs(_norms([idx], spec2)[0] - direct) / abs(direct) < 1e-12


def test_gram_single_site(spec1):
    gram = verify_orthogonality(spec1)["gram"]
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
    empty = BasisIndex((), ())
    terms = act_on_bra("D33", u, empty, spec2)
    assert len(terms) == 1
    target, coeff = terms[0]
    assert target == empty
    assert abs(coeff - scalar_d(u, spec2)) < 1e-13


def test_expansions_match_dense_action(spec2, rng):
    labels, bra_rows, _ = basis_states(spec2)
    bras = dict(zip(labels, bra_rows))
    for op in OPS:
        for idx in enumerate_basis(spec2):
            for _ in range(3):
                u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                assert decomposition_residual(op, u, idx, bras, spec2) < 1e-9


def test_left_vanishing_relations(spec2):
    scale = max(np.abs(monodromy_blocks(0.1, spec2)[2][2]).max(), 1.0)
    for idx in enumerate_basis(spec2):
        outside = [q for q in (1, 2) if q not in idx.sites]
        for q in outside:
            u = spec2.theta[q - 1]
            for op in ("D33", "B3"):
                assert act_on_bra(op, u, idx, spec2) == []
                bra = left_state(idx, spec2)
                dense = apply_entry_bra(u, *OP_ENTRY[op], bra, spec2)
                assert np.abs(dense).max() < 1e-11 * scale


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


def test_annihilation_expansion_via_projection(spec2, spec3, rng):
    # independent route: read the expansion coefficients off the resolved
    # identity, coeff(target) = <idx|Op|target> / norm(target), for every op
    # at a random u and at each u = theta_q, q inside and outside the label
    for spec in (spec2, spec3):
        labels, bras, kets = basis_states(spec)
        norms = _norms(labels, spec)
        points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))] \
            + list(spec.theta)
        for op in OPS:
            for u in points:
                for idx, bra in zip(labels, bras):
                    dense = apply_entry_bra(u, *OP_ENTRY[op], bra, spec)
                    projected = dense @ kets.T / norms
                    terms = act_on_bra(op, u, idx, spec)
                    expansion = dict(terms)
                    assert len(expansion) == len(terms)
                    assert set(expansion) <= set(labels)
                    claimed = np.array([expansion.get(t, 0.0) for t in labels])
                    assert np.all(np.abs(projected - claimed)
                                  < 1e-9 * np.maximum(np.abs(claimed), 1.0))


@pytest.mark.parametrize("op, idx", [("D33", BasisIndex((), (1,))),
                                     ("C3", BasisIndex((2,), ()))])
def test_expansion_refuses_near_removable_pole(spec2, op, idx):
    # site 1 is in the block d(u) is cancelled against (for C3, the
    # complement site joins it); 1e-14 off theta_1 is neither on the
    # removable point nor away from the pole
    with pytest.raises(PoleProximityError, match="theta_1"):
        act_on_bra(op, spec2.theta[0] + 1e-14, idx, spec2)


def _check_rank_n_basis(spec, rng):
    # n^N labels with one block per flavor 2..n, a Gram matrix of full rank,
    # and every left state an eigenvector of the corner entry D^n_n: d(u)
    # times sinh(u - theta_k + eta) / sinh(u - theta_k) per flavor-n site k
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
        for ix, bra in zip(labels, lmat):
            coeff = scalar_d(u, spec)
            for k in ix.blocks[-1]:
                t = spec.theta[k - 1]
                coeff *= np.sinh(u - t + spec.eta) / np.sinh(u - t)
            corner = apply_entry_bra(u, spec.n, spec.n, bra, spec)
            assert _rel_resid(corner, coeff * bra) < 1e-11


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


@st.composite
def generic_specs(draw, ranks=st.integers(2, 4), sizes=st.integers(1, 3)):
    """n in 2..4, N in 1..3 by default, real eta in [0.3, 0.8], theta in the
    unit box, every |sinh(theta_j - theta_k + s)|, s in {0, +-eta}, at least
    0.1."""
    n, N = draw(ranks), draw(sizes)
    eta = draw(st.floats(0.3, 0.8))
    unit = st.floats(0.0, 1.0)
    theta = tuple(complex(draw(unit), draw(unit)) for _ in range(N))
    assume(all(abs(np.sinh(a - b + s)) >= 0.1
               for a, b in permutations(theta, 2) for s in (0.0, eta, -eta)))
    return ChainSpec(n=n, N=N, eta=eta, theta=theta)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(generic_specs(), st.integers(0, 2 ** 32 - 1))
def test_generic_specs(spec, seed):
    # R-matrix identities, commuting transfers and the rank-n basis for every
    # rank; orthogonality and reconstruction of every eigenstate for n = 3;
    # typed refusals of the three-flavor closed forms otherwise
    rng = np.random.default_rng(seed)
    u1, u2, u3 = (complex(*rng.uniform(-1, 1, 2)) for _ in range(3))
    n, eta = spec.n, spec.eta
    assert qybe_residual(n, eta, u1, u2, u3) < 1e-11
    for resid in (unitarity_residual, crossing_residual,
                  twist_invariance_residual):
        assert resid(u1, n, eta) < 1e-11
    tu, tv = transfer(u1, spec), transfer(u2, spec)
    assert _rel_resid(tu @ tv, tv @ tu) < 1e-11
    _check_rank_n_basis(spec, rng)
    if n != 3:
        for refused in (lambda: _norms(enumerate_basis(spec)[:1], spec),
                        lambda: brute_force_spectrum(spec),
                        lambda: closed_form_two_site(1.0, 0.0, n, eta)):
            with pytest.raises(UnsupportedRankError, match="n = 3"):
                refused()
        return
    report = verify_orthogonality(spec)
    assert max(report["diag_rel_err"], report["offdiag_resid"]) < 1e-9
    rebuild = Reconstructor(spec)
    for rec in brute_force_spectrum(spec):
        state = rebuild.state(rec.lambda_theta, 1.0)
        cos = abs(np.vdot(rec.vector, state)) \
            / (np.linalg.norm(rec.vector) * np.linalg.norm(state))
        assert 1 - cos <= 1e-8


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=generic_specs(st.just(3), st.integers(1, 2)))
def test_reports_byte_deterministic_on_generic_specs(spec, tmp_path_factory):
    config = load_config({"N": spec.N, "eta": spec.eta.real,
                          "theta": [[t.real, t.imag] for t in spec.theta]})
    for command in ("verify", "spectrum", "reconstruct"):
        blobs = []
        for _ in range(2):
            out = tmp_path_factory.mktemp(command)
            run(command, config, csv=True, out_dir=str(out))
            blobs.append([(out / f"{command}_report.{ext}").read_bytes()
                          for ext in ("json", "csv")])
        assert blobs[0] == blobs[1], command


def test_three_flavor_labels_by_name():
    idx = BasisIndex((2,), (1,))
    assert (idx.block2, idx.block3, idx.m2, idx.m, idx.sites) == \
        ((2,), (1,), 1, 2, (2, 1))
    with pytest.raises(ValueError, match="disjoint"):
        BasisIndex((1,), (1,))
    with pytest.raises(ValueError, match="three-flavor"):
        _norms([BasisIndex((1,))], default_spec(n=2, N=2))


@pytest.mark.parametrize("spec", [
    default_spec(n=2, N=2),
    ChainSpec(n=4, N=2, eta=0.5, theta=(0.13 + 0.07j, 0.26 + 0.14j))],
    ids=["n2", "n4"])
def test_closed_forms_refuse_other_ranks(spec):
    # at n = 4 act_on_bra would read only two of the three flavor blocks and
    # return a wrong decomposition; at n = 2 it would fail on a missing block
    for idx in enumerate_basis(spec):
        with pytest.raises(UnsupportedRankError, match="n = 3"):
            act_on_bra("D33", 0.37 - 0.41j, idx, spec)
        with pytest.raises(UnsupportedRankError, match="n = 3"):
            decomposition_residual("D33", 0.37 - 0.41j, idx, {}, spec)
        with pytest.raises(UnsupportedRankError, match="n = 3"):
            _norms([idx], spec)
