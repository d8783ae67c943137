"""Shared fixtures: generic chain specs and cached expensive computations.

Brute-force spectra and root-search results are session-scoped so each is
computed once and shared across test modules; all of them are deterministic
functions of the default parameters and the fixed seed.

spintorus is imported before numpy, so that SPINTORUS_THREADS reaches the
BLAS thread variables before numpy loads them.
"""
import spintorus  # noqa: F401  (first; see above)

import numpy as np
import pytest

from spintorus.chain import default_spec
from spintorus.monodromy import transfer
from spintorus.spectrum import brute_force_spectrum, solve_bae

from oracles import _eigenvalue_of


@pytest.fixture(scope="session")
def spec1():
    return default_spec(N=1)


@pytest.fixture(scope="session")
def spec2():
    return default_spec(N=2)


@pytest.fixture(scope="session")
def spec3():
    return default_spec(N=3)


@pytest.fixture(scope="session")
def records1(spec1):
    return brute_force_spectrum(spec1)


@pytest.fixture(scope="session")
def records2(spec2):
    return brute_force_spectrum(spec2)


@pytest.fixture(scope="session")
def records3(spec3):
    return brute_force_spectrum(spec3)


@pytest.fixture(scope="session")
def bae1(spec1, records1):
    return solve_bae(spec1, n_seeds=150, rng_seed=20240229, records=records1)


@pytest.fixture(scope="session")
def bae2(spec2, records2):
    return solve_bae(spec2, n_seeds=2000, rng_seed=20240229, records=records2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240229)


def _eigenvalue_at(rec, u, spec):
    """Transfer eigenvalue of a spectral record at any point u, read through
    its dual row."""
    return _eigenvalue_of(rec.dual, rec.vector, transfer(u, spec) @ rec.vector)


@pytest.fixture(scope="session")
def eigenvalue_at():
    return _eigenvalue_at
