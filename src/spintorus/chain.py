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

# Dense complex storage only; n^N columns beyond N = 6 is past desk scale.
MAX_SITES = 6

# Genericity floor: |sinh(.)| below this counts as a resonance.
GENERIC_TOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """Immutable chain data: rank ``n``, sites ``N``, crossing parameter
    ``eta``, inhomogeneities ``theta`` (length N).

    Construction validates the genericity assumptions used throughout:
    pairwise distinct theta, no theta_j - theta_k resonance at +-eta, and
    sinh(eta) != 0.  Violations raise ``NonGenericSpecError``; N > 6 raises
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
        if self.N > MAX_SITES:
            raise DenseBudgetError(
                f"N={self.N} exceeds the dense-storage budget (N <= {MAX_SITES}, "
                f"dim = n^N complex entries per operator column)"
            )
        theta = tuple(complex(t) for t in self.theta)
        if len(theta) != self.N:
            raise NonGenericSpecError(
                f"expected {self.N} inhomogeneities, got {len(theta)}"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eta", complex(self.eta))
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
