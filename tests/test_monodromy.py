"""Chain monodromy: scalar actions, transfer family, twist, exchange algebra."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spintorus.monodromy as monodromy
from spintorus.chain import ChainSpec, default_spec
from spintorus.checks import _points, run_checks
from spintorus.monodromy import (_a_product, _relation_residuals, _site_matrices,
                                 _sparse_blocks, _sweep, _tiled_blocks,
                                 _tiled_transfer, _weights, apply_entry, apply_entry_bra,
                                 conjugate_vacuum_bra, conjugate_vacuum_ket,
                                 exchange_relation_residuals, fd4_derivative,
                                 homogeneous_transfer, product_identity_residual,
                                 scalar_a, scalar_d, transfer,
                                 twist_operator, vacuum_bra, vacuum_ket)
from spintorus.rmatrix import permutation_matrix, r_matrix, twist_matrix
from spintorus.sov_basis import _d_cancelled
from spintorus.tensor_core import _rel_resid, kron_chain, site_matrix_unit

from oracles import (global_hamiltonian, local_hamiltonian, monodromy_blocks,
                     tiles_dense, transfer_log_derivative_residual)

SINH_05 = 0.52109530549374736      # 50-digit sinh(0.5)


def test_scalar_functions(spec2, rng):
    for t in spec2.theta:
        assert abs(scalar_d(t, spec2)) < 1e-15
    single = ChainSpec(n=3, N=1, eta=0.5, theta=(0.2,))
    assert abs(scalar_a(0.2, single) - SINH_05) < 1e-15
    for _ in range(10):
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(scalar_d(u, spec2) - scalar_a(u - spec2.eta, spec2)) < 1e-13
    # d(u) without one site each multiply back to the full scalar
    u = 0.37 + 0.21j
    prod = np.prod([_d_cancelled(u, spec2, (l,)) for l in range(1, 3)])
    assert abs(prod - scalar_d(u, spec2)) < 1e-14


def test_single_site_operators_close_form():
    spec = ChainSpec(n=3, N=1, eta=0.5, theta=(0.2,))
    sh = np.sinh(0.5)
    blocks = monodromy_blocks(0.2, spec)
    assert_allclose(blocks[1][0], sh * site_matrix_unit(3, 1, 2), atol=1e-15)
    assert_allclose(blocks[0][1], sh * site_matrix_unit(3, 2, 1), atol=1e-15)
    assert_allclose(transfer(0.2, spec), sh * twist_matrix(3), atol=1e-15)


def test_entry_indexing_contract(spec2, rng):
    u = 0.41 - 0.17j
    blocks = monodromy_blocks(u, spec2)
    vec = rng.standard_normal(spec2.dim) + 1j * rng.standard_normal(spec2.dim)
    for i, j in ((1, 1), (1, 3), (2, 1), (3, 2)):
        assert_allclose(apply_entry(u, i, j, vec, spec2),
                        blocks[i - 1][j - 1] @ vec, rtol=1e-14)
        assert_allclose(apply_entry_bra(u, i, j, vec, spec2),
                        vec @ blocks[i - 1][j - 1], rtol=1e-14)
    for i, j in ((0, 1), (1, 4)):
        with pytest.raises(ValueError, match="outside"):
            apply_entry(u, i, j, vec, spec2)


@pytest.mark.parametrize("n, N", [(3, 1), (3, 2), (3, 3), (3, 4),
                                  (2, 3), (4, 2)])
def test_entry_action_matches_dense_blocks(n, N, rng):
    """Every entry, applied site by site to a ket or a bra, agrees with the
    dense block at a random point and at every inhomogeneity point."""
    spec = default_spec(n=n, N=N)
    u_rand = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for u in (u_rand,) + spec.theta:
        blocks = monodromy_blocks(u, spec)
        vec = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                block = blocks[i - 1][j - 1]
                for got, want in ((apply_entry(u, i, j, vec, spec), block @ vec),
                                  (apply_entry_bra(u, i, j, vec, spec), vec @ block)):
                    scale = max(float(np.abs(want).max()), 1e-300)
                    assert np.abs(got - want).max() / scale < 1e-14


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_stacked_sweep_equals_row_by_row_entries(N, rng):
    """One sweep over a stack of rows gives each row the bits of its own
    apply_entry or apply_entry_bra call."""
    spec = default_spec(N=N)
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for bra, one_row in ((False, apply_entry), (True, apply_entry_bra)):
        rs = _site_matrices(u, spec, bra)
        for i in range(1, 4):
            for j in range(1, 4):
                k = int(rng.integers(1, 9))
                rows = (rng.standard_normal((k, spec.dim))
                        + 1j * rng.standard_normal((k, spec.dim)))
                stacked = _sweep(rs, i, j, rows, spec)
                assert stacked.shape == rows.shape
                for row, got in zip(rows, stacked):
                    assert np.array_equal(got, one_row(u, i, j, row, spec))


def test_vacuum_actions(spec2, rng):
    k0, b0 = vacuum_ket(spec2), vacuum_bra(spec2)
    kc, bc = conjugate_vacuum_ket(spec2), conjugate_vacuum_bra(spec2)
    for _ in range(3):
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        blocks = monodromy_blocks(u, spec2)
        a, d = scalar_a(u, spec2), scalar_d(u, spec2)
        assert np.abs(blocks[0][0] @ k0 - a * k0).max() < 1e-13
        assert np.abs(b0 @ blocks[0][0] - a * b0).max() < 1e-13
        for i in (1, 2):
            assert np.abs(blocks[i][0] @ k0).max() < 1e-13
            assert np.abs(b0 @ blocks[0][i]).max() < 1e-13
            for j in (1, 2):
                delta = d if i == j else 0.0
                assert np.abs(blocks[i][j] @ k0 - delta * k0).max() < 1e-13
                assert np.abs(b0 @ blocks[i][j] - delta * b0).max() < 1e-13
        # conjugate reference state: mirrored triangular structure
        assert np.abs(blocks[2][2] @ kc - a * kc).max() < 1e-13
        assert np.abs(bc @ blocks[2][2] - a * bc).max() < 1e-13
        assert np.abs(blocks[0][0] @ kc - d * kc).max() < 1e-13
        assert np.abs(blocks[0][2] @ kc).max() < 1e-13
        assert np.abs(bc @ blocks[2][0]).max() < 1e-13


def _monodromy_by_definition(u, spec):
    """R_{0N}(u - theta_N) ... R_{01}(u - theta_1) on auxiliary x chain, the
    auxiliary space slowest, each R_{0l} summed from matrix units."""
    n, N = spec.n, spec.N
    eye = np.eye(n, dtype=complex)
    total = np.eye(n ** (N + 1), dtype=complex)
    for l, theta in enumerate(spec.theta, start=1):
        r4 = r_matrix(u - theta, n, spec.eta).reshape(n, n, n, n)
        r0l = np.zeros_like(total)
        for a, b, c, d in zip(*np.nonzero(r4)):
            mats = [eye] * (N + 1)
            mats[0] = site_matrix_unit(n, a + 1, c + 1)
            mats[l] = site_matrix_unit(n, b + 1, d + 1)
            r0l += r4[a, b, c, d] * kron_chain(mats)
        total = r0l @ total
    return total.reshape(n, spec.dim, n, spec.dim)


@pytest.mark.parametrize("n, N", [(2, 3), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_blocks_match_ordered_r_matrix_product(n, N, rng):
    """Every block equals the auxiliary block of the ordered R-matrix product
    on the full n^(N+1)-dimensional space, at a random point and at every
    inhomogeneity point."""
    spec = default_spec(n=n, N=N)
    u_rand = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for u in (u_rand,) + spec.theta:
        full = _monodromy_by_definition(u, spec)
        blocks = monodromy_blocks(u, spec)
        for i in range(n):
            for j in range(n):
                want = full[i, :, j, :]
                scale = max(float(np.abs(want).max()), 1e-300)
                assert np.abs(blocks[i][j] - want).max() / scale < 1e-14


@pytest.mark.parametrize("n, N", [(2, 3), (3, 1), (3, 2), (3, 3), (3, 4),
                                  (4, 2)])
def test_transfer_is_block_sum(n, N, rng):
    """The transfer equals, bit for bit, the twisted sum of the full blocks
    taken in the trace's order, though it builds only the blocks it reads."""
    spec = default_spec(n=n, N=N)
    g = twist_matrix(n)
    u_rand = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    for u in (u_rand,) + spec.theta:
        blocks = monodromy_blocks(u, spec)
        total = np.zeros_like(blocks[0][0])
        for i, k in zip(*np.nonzero(g)):
            total += g[i, k] * blocks[k][i]
        assert np.array_equal(transfer(u, spec), total)


def test_transfer_family_commutes(spec3, rng):
    for _ in range(4):
        u, v = (complex(a, b) for a, b in
                zip(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        tu, tv = transfer(u, spec3), transfer(v, spec3)
        scale = max(np.abs(tu @ tv).max(), 1.0)
        assert np.abs(tu @ tv - tv @ tu).max() / scale < 1e-13


def test_twist_operator_properties(rng):
    for N in (1, 2, 3, 4):
        spec = default_spec(N=N)
        u_op = twist_operator(spec)
        assert_allclose(np.linalg.matrix_power(u_op, 3), np.eye(spec.dim), atol=1e-13)
        assert_allclose(vacuum_bra(spec) @ u_op, conjugate_vacuum_bra(spec), atol=0)
    spec = default_spec(N=2)
    u_op = twist_operator(spec)
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    blocks = monodromy_blocks(u, spec)
    conj = np.linalg.inv(u_op) @ blocks[2][0] @ u_op
    assert np.abs(conj - blocks[1][2]).max() < 1e-13
    t = transfer(u, spec)
    assert np.abs(t @ u_op - u_op @ t).max() < 1e-13


def test_product_identity():
    for N in (1, 2, 3, 4):
        assert product_identity_residual(default_spec(N=N)) < 1e-10


def test_exchange_relations_families(spec2, rng):
    expected = {"CD", "CA", "CB-a", "CB-b", "AB", "DB", "BB", "CC",
                "TT1", "TT2", "TT3"}
    for _ in range(2):
        u, v = (complex(a, b) for a, b in
                zip(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)))
        table = exchange_relation_residuals(u, v, spec2)
        assert set(table) == expected
        assert max(table.values()) < 1e-11


def _assert_tiles_hold_the_nonzeros(tiled, dense, spec):
    """``tiled`` scatters back to ``dense``, with one tile of the sector
    shape per (row weight, column weight) that a nonzero of ``dense`` has."""
    weight, _, sectors = _weights(spec.n, spec.N)
    assert np.array_equal(tiles_dense(tiled), dense)
    rows, cols = np.nonzero(dense)
    assert set(tiled.tiles) == set(zip(weight[rows].tolist(), weight[cols].tolist()))
    for (r, c), tile in tiled.tiles.items():
        assert tile.shape == (len(sectors[r]), len(sectors[c]))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_blocks_conserve_flavor_and_store_their_nonzeros(N):
    # auxiliary plus chain flavor is conserved: entry (r, c) of T_ij is
    # nonzero only if content(r) + e_i = content(c) + e_j
    spec = default_spec(N=N)
    u = 0.41 - 0.17j
    digits = np.indices((3,) * N).reshape(N, -1)
    content = np.stack([(digits == f).sum(axis=0) for f in range(3)], axis=1)
    e = np.eye(3, dtype=int)
    sparse = _sparse_blocks(u, 3, spec.eta, spec.theta)
    tiled = _tiled_blocks(u, spec)
    for i, row in enumerate(monodromy_blocks(u, spec)):
        for j, block in enumerate(row):
            allowed = np.all((content + e[i])[:, None]
                             == (content + e[j])[None, :], axis=-1)
            assert not np.any(block[~allowed])
            assert np.array_equal(sparse[i][j][0], np.flatnonzero(block))
            _assert_tiles_hold_the_nonzeros(tiled[i][j], block, spec)


def _assert_tile_algebra_is_dense_algebra(blocks):
    """Products of the tiled blocks within 1e-14 of the dense products, and
    sums, differences, scalar multiples and abs-max exactly the dense ones."""
    for a in blocks:
        for b in blocks:
            want = tiles_dense(a) @ tiles_dense(b)
            got = tiles_dense(a @ b)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert float(abs(a).max()) == np.abs(tiles_dense(a)).max()
    a, b = blocks[0], blocks[-1]
    assert np.array_equal(tiles_dense(a + b), tiles_dense(a) + tiles_dense(b))
    assert np.array_equal(tiles_dense(a - b), tiles_dense(a) - tiles_dense(b))
    assert np.array_equal(tiles_dense(sum([a, b]) / 3),
                          (tiles_dense(a) + tiles_dense(b)) / 3)
    assert np.array_equal(tiles_dense(2j * a), 2j * tiles_dense(a))


@pytest.mark.parametrize("N", [3, 4])
def test_tile_products_equal_dense_products(N):
    spec = default_spec(N=N)
    u, v = _points(np.random.default_rng((20240229, 7)), 2)
    blocks = [b for at in (u, v) for row in _tiled_blocks(at, spec) for b in row]
    assert len(blocks) == 18
    _assert_tile_algebra_is_dense_algebra(blocks)


@pytest.mark.parametrize("n, N", [(2, 3), (2, 4), (4, 2)])
def test_tiles_match_dense_blocks_for_other_ranks(n, N):
    spec = default_spec(n=n, N=N)
    u, v = _points(np.random.default_rng((20240229, 10)), 2)
    tiled = _tiled_blocks(u, spec)
    for trow, drow in zip(tiled, monodromy_blocks(u, spec)):
        for t, d in zip(trow, drow):
            _assert_tiles_hold_the_nonzeros(t, d, spec)
    _assert_tile_algebra_is_dense_algebra(
        [b for at in (u, v) for row in _tiled_blocks(at, spec) for b in row])
    got = exchange_relation_residuals(u, v, spec)
    dense = _relation_residuals(monodromy_blocks(u, spec),
                                monodromy_blocks(v, spec), u - v, spec)
    assert list(got) == list(dense)
    for family, value in dense.items():
        assert abs(got[family] - value) <= 1e-15, family


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_exchange_residuals_equal_dense_product_evaluation(N):
    spec = default_spec(N=N)
    rng = np.random.default_rng((20240229, 8))
    for _ in range(2):
        u, v = _points(rng, 2)
        got = exchange_relation_residuals(u, v, spec)
        dense = _relation_residuals(monodromy_blocks(u, spec),
                                    monodromy_blocks(v, spec), u - v, spec)
        assert list(got) == list(dense)
        assert len(got) == 11
        for family, value in dense.items():
            assert abs(got[family] - value) <= 1e-15, family


@pytest.mark.parametrize("n, N", [(2, 3), (3, 1), (3, 2), (3, 3), (3, 4),
                                  (4, 2)])
def test_commuting_transfer_on_tiles_equals_dense_evaluation(n, N):
    # the tiled transfer holds the dense transfer's bits, and the commutator
    # residual on tiles is the dense one within 1e-15
    spec = default_spec(n=n, N=N)
    pts = _points(np.random.default_rng((20240229, 11)), 6)
    for u, v in zip(pts[0::2], pts[1::2]):
        tu, tv = _tiled_transfer(u, spec), _tiled_transfer(v, spec)
        du, dv = transfer(u, spec), transfer(v, spec)
        assert np.array_equal(tiles_dense(tu), du)
        assert np.array_equal(tiles_dense(tv), dv)
        assert abs(_rel_resid(tu @ tv, tv @ tu) - _rel_resid(du @ dv, dv @ du)) <= 1e-15


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_product_identity_on_tiles_equals_dense_evaluation(N):
    spec = default_spec(N=N)
    prod = np.eye(spec.dim, dtype=complex)
    for t in spec.theta:
        prod = prod @ transfer(t, spec)
    rhs = complex(_a_product(spec)) * twist_operator(spec)
    scale = max(float(np.abs(prod).max()), float(np.abs(rhs).max()), 1e-30)
    dense = float(np.abs(prod - rhs).max()) / scale
    assert abs(product_identity_residual(spec) - dense) <= 1e-15


def test_exchange_relations_fail_on_an_entry_outside_a_move(spec2,
                                                            monkeypatch):
    # T_11 maps the all-flavor-1 class to itself; an entry in its row that
    # reaches the all-flavor-3 state breaks flavor conservation, lands in a
    # tile of its own, and the products carry it into the relations
    build = monodromy._sparse_blocks

    def leaky(u, n, eta, thetas):
        blocks = build(u, n, eta, thetas)
        keys, vals = blocks[0][0]
        blocks[0][0] = (np.append(keys, n ** len(thetas) - 1),
                        np.append(vals, 1e-6 + 0j))
        return blocks

    monkeypatch.setattr(monodromy, "_sparse_blocks", leaky)
    weight, _, _ = _weights(3, 2)
    leak = (int(weight[0]), int(weight[-1]))
    tiles = _tiled_blocks(0.3, spec2)[0][0].tiles
    assert leak in tiles and tiles[leak][0, -1] == 1e-6
    u, v = _points(np.random.default_rng((20240229, 9)), 2)
    assert max(exchange_relation_residuals(u, v, spec2).values()) > 1e-7
    result = {r.name: r for r in run_checks(spec2)}["exchange-relations"]
    assert result.residual > 1e-7
    assert not result.passed


def test_conjugate_pairing_product(spec1, spec2, spec3):
    for spec in (spec1, spec2, spec3):
        bra = vacuum_bra(spec)
        for t in spec.theta:
            bra = bra @ monodromy_blocks(t, spec)[2][0]
        got = complex(bra @ conjugate_vacuum_ket(spec))
        want = complex(np.prod([scalar_a(t, spec) for t in spec.theta]))
        assert abs(got - want) / abs(want) < 1e-13


def test_uniform_chain_energy_operator(rng):
    for n, N in ((3, 2), (3, 3)):
        assert transfer_log_derivative_residual(n, N, 0.5) < 1e-8
    # commutes with the uniform-chain transfer at a random point
    h_op = global_hamiltonian(3, 2, 0.5)
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    t = homogeneous_transfer(u, 3, 2, 0.5)
    scale = max(np.abs(h_op @ t).max(), 1.0)
    assert np.abs(h_op @ t - t @ h_op).max() / scale < 1e-10
    # twisted boundary term differs from the untwisted (periodic) closure
    h_local = local_hamiltonian(3, 0.5)
    swap = permutation_matrix(3)
    h_periodic = h_local + swap @ h_local @ swap
    assert np.abs(h_op - h_periodic).max() > 1e-3


def test_difference_derivative_oracle():
    got = fd4_derivative(np.sinh, 0.3)
    assert abs(got - np.cosh(0.3)) < 1e-12
    # vector-valued form
    got2 = fd4_derivative(lambda u: np.array([np.sinh(u), u ** 3]), 0.2)
    assert_allclose(got2, [np.cosh(0.2), 3 * 0.04], atol=1e-10)
