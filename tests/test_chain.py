"""Chain parameter validation: genericity and the dense-storage budget."""
import numpy as np
import pytest

from spintorus.chain import (LOG_FLOAT_MAX, ChainSpec, default_spec,
                             default_theta)
from spintorus.errors import DenseBudgetError, NonGenericSpecError


def test_default_spec_pattern():
    spec = default_spec(N=3)
    assert spec.n == 3 and spec.N == 3 and spec.eta == 0.5
    np.testing.assert_allclose(
        spec.theta, [0.13 + 0.07j, 0.26 + 0.14j, 0.39 + 0.21j])
    assert spec.dim == 27


def test_spec_is_immutable():
    spec = default_spec(N=2)
    with pytest.raises(AttributeError):
        spec.eta = 1.0


def test_duplicate_theta_rejected():
    with pytest.raises(NonGenericSpecError, match="resonance"):
        ChainSpec(n=3, N=2, eta=0.5, theta=(0.1 + 0.2j, 0.1 + 0.2j))


def test_eta_resonance_rejected():
    # theta_1 - theta_2 = -eta makes sinh(theta_1 - theta_2 + eta) vanish
    with pytest.raises(NonGenericSpecError, match="resonance"):
        ChainSpec(n=3, N=2, eta=0.5, theta=(0.1, 0.6))


def test_vanishing_sinh_eta_rejected():
    with pytest.raises(NonGenericSpecError, match="sinh"):
        ChainSpec(n=3, N=1, eta=1j * np.pi, theta=(0.2,))


def test_dense_budget_enforced():
    theta = tuple(0.13 * j + 0.07j * j for j in range(1, 8))
    with pytest.raises(DenseBudgetError, match="N <= 6"):
        ChainSpec(n=3, N=7, eta=0.5, theta=theta)


@pytest.mark.parametrize("n, N", [(5, 6), (8, 6), (20, 3), (4, 5), (28, 2),
                                  (730, 1)])
def test_dense_budget_counts_dimensions(n, N):
    # refused at construction, before any operator of dimension n^N exists
    with pytest.raises(DenseBudgetError, match=r"n\^N <= 729"):
        ChainSpec(n=n, N=N, eta=0.5, theta=default_theta(N))


@pytest.mark.parametrize("n, N", [(3, 6), (2, 6), (4, 4), (9, 3), (27, 2)])
def test_dense_budget_accepts_up_to_the_rank_three_chain(n, N):
    assert ChainSpec(n=n, N=N, eta=0.5, theta=default_theta(N)).dim <= 3 ** 6


def test_wrong_theta_count_rejected():
    with pytest.raises(NonGenericSpecError, match="expected 2"):
        ChainSpec(n=3, N=2, eta=0.5, theta=(0.1,))


def test_minimum_rank_and_sites():
    with pytest.raises(NonGenericSpecError):
        ChainSpec(n=1, N=1, eta=0.5, theta=(0.1,))
    with pytest.raises(NonGenericSpecError):
        ChainSpec(n=3, N=0, eta=0.5, theta=())


@pytest.mark.parametrize("N", [1, 2, 6])
def test_overflow_bound_is_sharp(N):
    # max(2 N^2, n) (|Re eta| + 2 max |Re theta_j| + 1) <= log(float max);
    # the default thetas put max |Re theta_j| at 0.13 N
    room = LOG_FLOAT_MAX / max(2 * N * N, 3) - 1
    theta = default_theta(N)

    def chains(step):
        eta_edge, theta_edge = room - 0.26 * N + step, (room - 0.5) / 2 + step
        yield eta_edge, theta
        yield -eta_edge + 0.3j, theta
        yield 0.5, theta[:-1] + (-theta_edge + 0.1j,)

    for eta, th in chains(-1e-9):
        ChainSpec(n=3, N=N, eta=eta, theta=th)
    for eta, th in chains(1e-9):
        with pytest.raises(NonGenericSpecError, match="eta and theta overflow"):
            ChainSpec(n=3, N=N, eta=eta, theta=th)
