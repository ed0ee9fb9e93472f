"""Shared test setup.

Pins every BLAS/threading backend to one thread *before* numpy is first
imported anywhere in the test process, so wall-clock comparisons between
evaluators and methods measure algorithmic cost rather than thread-pool
scheduling, and so results are bit-reproducible.
"""

import doalab

doalab.pin_blas_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


def random_complex(rng, *shape):
    """Standard complex Gaussian array."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_covariance(rng, M, rank=None):
    """Random Hermitian PSD matrix of the given size and rank."""
    r = M if rank is None else rank
    X = random_complex(rng, M, r)
    R = X @ X.conj().T / r
    return 0.5 * (R + R.conj().T)
