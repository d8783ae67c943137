"""Chain monodromy: scalar actions, transfer family, twist, exchange algebra."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintorus.chain import ChainSpec, default_spec
from spintorus.monodromy import (apply_entry, apply_entry_bra,
                                 conjugate_vacuum_bra, conjugate_vacuum_ket,
                                 exchange_relation_residuals, fd4_derivative,
                                 global_hamiltonian, homogeneous_transfer,
                                 monodromy_blocks, product_identity_residual,
                                 scalar_a, scalar_d, scalar_d_l, transfer,
                                 transfer_log_derivative_residual,
                                 twist_operator, vacuum_bra, vacuum_ket)
from spintorus.rmatrix import (local_hamiltonian, permutation_matrix, r_matrix,
                               twist_matrix)
from spintorus.tensor_core import kron_chain, site_matrix_unit

SINH_05 = 0.52109530549374736      # 50-digit sinh(0.5)


def test_scalar_functions(spec2, rng):
    for t in spec2.theta:
        assert abs(scalar_d(t, spec2)) < 1e-15
    single = ChainSpec(n=3, N=1, eta=0.5, theta=(0.2,))
    assert abs(scalar_a(0.2, single) - SINH_05) < 1e-15
    for _ in range(10):
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(scalar_d(u, spec2) - scalar_a(u - spec2.eta, spec2)) < 1e-13
    # per-site factors multiply back to the full scalar
    u = 0.37 + 0.21j
    prod = np.prod([scalar_d_l(u, l, spec2) for l in range(1, 3)])
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
