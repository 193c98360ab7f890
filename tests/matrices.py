"""Test matrices with a planted Jordan structure, shared by the test modules."""

import numpy as np


def jordan_block(eigenvalue, size):
    return eigenvalue * np.eye(size) + np.diag(np.ones(size - 1), 1)


def conjugated(j, seed):
    """j conjugated by a seeded Gaussian matrix and scaled to norm 0.9."""
    p = np.random.default_rng(seed).normal(size=j.shape)
    a = p @ j @ np.linalg.inv(p)
    return 0.9 * a / np.linalg.norm(a, 2)
