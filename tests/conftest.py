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


def _power_mean(absvals, p, axis=-1):
    if np.isinf(p):
        return absvals.max(axis=axis)
    return (absvals**p).mean(axis=axis) ** (1.0 / p)


def _inner_then_outer(vals, spec):
    """Per-pattern norms: take each inner root, then the outer root."""
    if spec.inner == "scalar":
        return _power_mean(np.abs(vals), spec.p)
    if spec.inner == "lq":
        if np.isinf(spec.q):
            inner = np.abs(vals).max(axis=-2)
        else:
            inner = (np.abs(vals) ** spec.q).sum(axis=-2) ** (1.0 / spec.q)
        return _power_mean(inner, spec.p)
    return _power_mean(_power_mean(np.abs(vals), spec.q), spec.p)


def rademacher_reference(operands, p, spec=None, cfg=None):
    """(value, stderr) of the sign average over all 2^k patterns, or over the
    seeded Monte-Carlo signs `rademacher_avg` draws: root each pattern's norm,
    then raise it back to the p-th power."""
    from cubeineq.norms import _CHUNK, MixedNormSpec, _operand_values

    spec = spec if spec is not None else MixedNormSpec.scalar(p)
    vals = np.stack([_operand_values(g) for g in operands])
    k = len(operands)
    if cfg is None or cfg.mode == "exact":
        idx = np.arange(1 << k)
        signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(k)) & 1)
    else:
        gen = stream_generator(cfg.seed, cfg.stream)
        signs = np.concatenate([1.0 - 2.0 * gen.integers(0, 2, size=(min(_CHUNK, cfg.samples - lo), k))
                                for lo in range(0, cfg.samples, _CHUNK)])
    norms = _inner_then_outer(np.tensordot(signs, vals, axes=(1, 0)), spec)
    if np.isinf(p):
        return float(norms.max()), 0.0
    powers = norms**p
    mean = powers.mean()
    value = mean ** (1.0 / p)
    if cfg is None or cfg.mode == "exact":
        return float(value), 0.0
    se_mean = powers.std(ddof=1) / np.sqrt(cfg.samples) if cfg.samples > 1 else 0.0
    return float(value), float(se_mean * value / (p * mean) if mean > 0 else se_mean)
