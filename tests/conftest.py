import numpy as np
import pytest
from hypothesis import settings

from stepgraphon import StepGraphon, SignedStepKernel

# Property tests replay the same examples on every run and carry no per-example
# deadline, so machine load can neither change nor fail them.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_graphon(rng, k=None, equal_mass=False):
    k = k or int(rng.integers(2, 9))
    if equal_mass:
        w = np.full(k, 1.0 / k)
    else:
        w = rng.random(k) + 0.1
        w /= w.sum()
    v = rng.random((k, k))
    v = (v + v.T) / 2
    return StepGraphon(w, v)


def random_kernel(rng, k=None):
    k = k or int(rng.integers(2, 9))
    w = rng.random(k) + 0.1
    w /= w.sum()
    v = rng.uniform(-1, 1, (k, k))
    v = (v + v.T) / 2
    return SignedStepKernel(w, v)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
