import concurrent.futures
import os

import numpy as np
import pytest

from uncollapse.measurement import random_invertible_kraus  # noqa: F401  (the tests import it from here)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def pool_starts(monkeypatch):
    """Pool sizes of the process pools started; the pools still run real processes."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("a pool needs at least 2 CPUs")
    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return starts


def random_complex_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex_matrix(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))
