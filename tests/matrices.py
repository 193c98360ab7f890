"""Test matrices with a planted Jordan structure or planted singular values,
shared by the test modules."""

import numpy as np


def jordan_block(eigenvalue, size):
    return eigenvalue * np.eye(size) + np.diag(np.ones(size - 1), 1)


def conjugated(j, seed):
    """j conjugated by a seeded Gaussian matrix and scaled to norm 0.9."""
    p = np.random.default_rng(seed).normal(size=j.shape)
    a = p @ j @ np.linalg.inv(p)
    return 0.9 * a / np.linalg.norm(a, 2)


def conditioned(j, seed, condition):
    """j conjugated by U diag(logspace(0, -log10 condition, d)) W, U and W the Q
    factors of real Gaussian matrices from default_rng(seed), U first, scaled to
    norm 0.9."""
    d, rng = len(j), np.random.default_rng(seed)
    u, w = (np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in "uw")
    p = u @ np.diag(np.logspace(0, -np.log10(condition), d)) @ w
    a = p @ j @ np.linalg.inv(p)
    return 0.9 * a / np.linalg.norm(a, 2)


def rotated(singular_values, seed):
    """U diag(singular_values) V*, U and V the Q factors of complex Gaussian
    matrices drawn from default_rng(seed), U first."""
    rng = np.random.default_rng(seed)
    d = len(singular_values)
    u, v = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] for _ in "uv")
    return u @ np.diag(singular_values) @ v.conj().T
