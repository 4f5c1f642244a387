import numpy as np
import pytest

from cubeineq.rng import stream_generator


@pytest.fixture
def rng():
    return stream_generator(20260810)


def brute_walsh_coefficients(values):
    """O(4^n) character sums, independent of the butterfly transform."""
    values = np.asarray(values, dtype=np.float64)
    m = len(values)
    out = np.zeros(m)
    for A in range(m):
        s = 0.0
        for x in range(m):
            s += values[x] * (-1) ** bin(x & A).count("1")
        out[A] = s / m
    return out


def derivative_value_matrix(f):
    """G[i, x] = D_i f at point x, from the pointwise difference quotient."""
    n = f.n
    vals = f.values()
    idx = np.arange(1 << n)
    G = np.empty((n, 1 << n))
    for i in range(n):
        eps_i = 1.0 - 2.0 * ((idx >> i) & 1)
        G[i] = eps_i * (vals[idx & ~(1 << i)] - vals[idx | (1 << i)]) / 2.0
    return G


def brute_sup_rademacher_moment(f, p):
    """(E_delta sup_x |sum_i delta_i D_i f(x)|^p)^{1/p} by double enumeration."""
    n = f.n
    G = derivative_value_matrix(f)
    sups = np.empty(1 << n)
    for dmask in range(1 << n):
        signs = 1.0 - 2.0 * ((dmask >> np.arange(n)) & 1)
        sups[dmask] = np.abs(signs @ G).max()
    if np.isinf(p):
        return float(sups.max())
    return float((sups**p).mean() ** (1.0 / p))


def windowed_sup_reference(alpha, beta, n, svals):
    """The O(n * len(svals)) sup kernel: every weight d for every sign total s."""
    d = np.arange(n + 1, dtype=np.float64)
    gamma = beta - alpha
    out = np.empty(svals.shape[0])
    for i, s in enumerate(svals):
        umin = np.maximum(-d, d - n + s)
        umax = np.minimum(d, n + s - d)
        base = alpha * s
        out[i] = max(np.abs(base + gamma * umin).max(),
                     np.abs(base + gamma * umax).max())
    return out
