"""Chain parameter specification.

A chain is fixed by the local rank n, the number of sites N, the crossing
parameter eta, and one inhomogeneity theta_j per site.  Everything downstream
(operators, basis states, spectra) is a deterministic function of these data,
so they live in one frozen record that is hashable and safe to cache on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DenseBudgetError, NonGenericSpecError

# Dense complex storage only: past N = 6 sites, or past the n^N = 3^6 = 729
# columns of the rank-3 chain there, is past desk scale.
MAX_SITES = 6

# Genericity floor: |sinh(.)| below this counts as a resonance.
GENERIC_TOL = 1e-12

# A product whose natural log exceeds this overflows a double.
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))

# Default seed of every random stream: probes, eigenbasis mixing, root starts.
DEFAULT_SEED = 20240229


@dataclass(frozen=True)
class ChainSpec:
    """Immutable chain data: rank ``n``, sites ``N``, crossing parameter
    ``eta``, inhomogeneities ``theta`` (length N).

    Construction validates the genericity assumptions used throughout:
    pairwise distinct theta, no theta_j - theta_k resonance at +-eta, and
    sinh(eta) != 0, and no product past the double range.  Violations raise
    ``NonGenericSpecError``; N > 6 or n^N > 3^6 = 729 raises
    ``DenseBudgetError`` before any dense allocation can happen.
    """

    n: int
    N: int
    eta: complex
    theta: tuple = field(default=())

    def __post_init__(self):
        if self.n < 2:
            raise NonGenericSpecError(f"local rank must be >= 2, got n={self.n}")
        if self.N < 1:
            raise NonGenericSpecError(f"need at least one site, got N={self.N}")
        if self.N > MAX_SITES or self.n ** self.N > 3 ** MAX_SITES:
            raise DenseBudgetError(
                f"n^N = {self.n}^{self.N} exceeds the dense-storage budget "
                f"(N <= {MAX_SITES} and n^N <= {3 ** MAX_SITES})")
        theta = tuple(complex(t) for t in self.theta)
        if len(theta) != self.N:
            raise NonGenericSpecError(
                f"expected {self.N} inhomogeneities, got {len(theta)}"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eta", complex(self.eta))
        # An R-matrix weight at u - theta_k, u a theta point or a probe point
        # in the unit box, is at most e^(|Re eta| + 2 max |Re theta| + 1).  A
        # basis pairing multiplies two states of N entries, each a product of
        # N weights; the crossing check forms sinh(u + n eta).
        k, re_eta = max(2 * self.N ** 2, self.n), abs(self.eta.real)
        re_theta = 2 * max(abs(t.real) for t in theta)
        if k * (re_eta + re_theta + 1) > LOG_FLOAT_MAX:
            raise NonGenericSpecError(
                f"eta and theta overflow a double at N = {self.N}: max(2 N^2, "
                f"n) (|Re eta| + 2 max |Re theta_j| + 1) = {k} ({re_eta:.4g} + "
                f"{re_theta:.4g} + 1) exceeds {LOG_FLOAT_MAX:.4g}")
        if abs(np.sinh(self.eta)) < GENERIC_TOL:
            raise NonGenericSpecError(f"sinh(eta) vanishes for eta={self.eta}")
        for j in range(self.N):
            for k in range(self.N):
                if j == k:
                    continue
                diff = theta[j] - theta[k]
                for shift, what in ((0.0, "theta_j - theta_k"),
                                    (self.eta, "theta_j - theta_k + eta"),
                                    (-self.eta, "theta_j - theta_k - eta")):
                    if abs(np.sinh(diff + shift)) < GENERIC_TOL:
                        raise NonGenericSpecError(
                            f"resonance sinh({what}) = 0 for sites j={j + 1}, k={k + 1}"
                        )

    @property
    def dim(self) -> int:
        return self.n ** self.N


def default_theta(N: int) -> tuple:
    """Generic inhomogeneities theta_j = 0.13 j + 0.07 i j, j = 1..N."""
    return tuple(0.13 * j + 0.07j * j for j in range(1, N + 1))


def default_spec(n: int = 3, N: int = 2, eta: complex = 0.5) -> ChainSpec:
    """Generic desk-scale chain on the default inhomogeneities."""
    return ChainSpec(n=n, N=N, eta=eta, theta=default_theta(N))
