import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import cubeineq.quantum as qt
from cubeineq.cube import CubeFunction, levels
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


def walsh_reference(a):
    """Stage-by-stage Walsh transform along the last axis: one full pass per
    stage h = 1, 2, 4, ..., each value updated as (a0 + a1, a0 - a1)."""
    a = np.array(a, dtype=np.float64, order="C")
    shape = a.shape
    h = 1
    while h < shape[-1]:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a[:, 0, :] = top
        a[:, 1, :] = bot
        h *= 2
    return a.reshape(shape)


def enumerated_noise_reference(values, weights):
    """out[x] = sum_b weights[b] * values[x xor b], one outcome b at a time."""
    idx = np.arange(len(values))
    out = np.zeros_like(values)
    for b in idx:
        out += weights[b] * values[idx ^ b]
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


def brute_upper_chain(points):
    """The distinct points (x, y) that alone maximise x t + y on some open
    interval of t in [0, 1], by ascending x: the upper-hull vertices from the
    t = 0 to the t = 1 maximiser.  Exact rational arithmetic: the maximiser is
    read at the midpoint of every pair of consecutive line crossings."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    cuts = {Fraction(0), Fraction(1)}
    for i, (xi, yi) in enumerate(pts):
        for xj, yj in pts[:i]:
            if xi != xj and 0 < (yj - yi) / (xi - xj) < 1:
                cuts.add((yj - yi) / (xi - xj))
    cuts = sorted(cuts)
    mids = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
    return sorted({max(pts, key=lambda pt: pt[0] * t + pt[1]) for t in mids})


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
    from cubeineq.cube import BiCubeFunction
    from cubeineq.norms import _CHUNK, MixedNormSpec

    spec = spec if spec is not None else MixedNormSpec.scalar(p)
    vals = np.stack([g.values if isinstance(g, BiCubeFunction) else g.values() for g in operands])
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


def exact_krawtchouk(n):
    """Integer K[k][d] by the recurrence (k+1) K_{k+1} = (n-2d) K_k - (n-k+1) K_{k-1},
    every division exact."""
    K = [[1] * (n + 1), [n - 2 * d for d in range(n + 1)]]
    for k in range(1, n):
        K.append([((n - 2 * d) * K[k][d] - (n - k + 1) * K[k - 1][d]) // (k + 1)
                  for d in range(n + 1)])
    return K[:n + 1]


def exact_basis(n):
    """Phi[k, d] = sqrt(C(n,d) / (2^n C(n,k))) K_k(d) from the integer values, at 50 digits."""
    K = exact_krawtchouk(n)
    with mpmath.workdps(50):
        root = [mpmath.sqrt(math.comb(n, d)) for d in range(n + 1)]
        scale = mpmath.mpf(2) ** (-mpmath.mpf(n) / 2)
        return np.array([[float(K[k][d] * root[d] / root[k] * scale) for d in range(n + 1)]
                         for k in range(n + 1)])


def exact_level_coefficients(n, v):
    """Fractions w[k] = 2^-n sum_d C(n,d) K_k(d) v(d) / C(n,k), each v(d) read exactly."""
    K = exact_krawtchouk(n)
    terms = [math.comb(n, d) * Fraction(x) for d, x in enumerate(v)]
    return [sum(t * K[k][d] for d, t in enumerate(terms)) / (2**n * math.comb(n, k))
            for k in range(n + 1)]


def exact_radial_multiplier(n, v, m):
    """sum_k m[k] w[k] K_k(d) for every d, in exact rationals, rounded to floats."""
    K = exact_krawtchouk(n)
    mw = [Fraction(x) * w for x, w in zip(m, exact_level_coefficients(n, v))]
    return np.array([float(sum(c * K[k][d] for k, c in enumerate(mw))) for d in range(n + 1)])


def conjugate_nu(T):
    """nu(T) = rho T rho^* with the rho of the conjugation projection."""
    rho = qt.rho_matrix(T.shape[0].bit_length() - 1)
    return rho @ T @ rho.conj().T


def conjugate_nu_inv(T):
    """nu^{-1}(T) = rho^* T rho."""
    rho = qt.rho_matrix(T.shape[0].bit_length() - 1)
    return rho.conj().T @ T @ rho


def rotate_reference(G, theta):
    """G * e^{i theta (|x| - |y|)} from a float grid of level differences."""
    G = np.asarray(G, dtype=complex)
    pc = levels(G.shape[0].bit_length() - 1).astype(np.float64)
    return G * np.exp(1j * theta * (pc[None, :] - pc[:, None]))


def kernel_transform_reference(G, quad):
    """int K(theta) rotate(G, -theta) dtheta with one full-matrix rotation
    per quadrature node."""
    return quad.integrate(lambda theta: rotate_reference(G, -theta))


# -- index-array references for the coordinate operators ------------------------


def same_bytes(a, b):
    """Equal dtype, shape and bytes: stricter than array_equal (signed zeros count)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def per_component_reference(op, F):
    """op applied to the components of a VectorCubeFunction one at a time: the
    coefficient rows of the R results, and whether any of them lost its mean."""
    parts = [op(c) for c in F.components]
    return np.stack([g.coeffs for g in parts]), any(g.mean_annihilated for g in parts)


def per_column_reference(op, grid):
    """op applied in eps to the (eps, delta) value grid of a two-variable function,
    one delta column at a time through a CubeFunction: the value grid of the
    result, and whether any column lost its mean."""
    parts = [op(CubeFunction.from_values(col)) for col in np.asarray(grid).T]
    return np.stack([g.values() for g in parts], axis=1), any(g.mean_annihilated for g in parts)


def discrete_derivative_reference(coeffs, i):
    """D_i from an int64 index array and a float keep-mask."""
    idx = np.arange(len(coeffs))
    return coeffs * ((idx >> i) & 1).astype(np.float64)


def partial_derivative_reference(coeffs, i):
    """partial_i as a fancy-index scatter of the masks holding bit i."""
    out = np.zeros_like(coeffs)
    idx = np.arange(len(coeffs))
    has = (idx >> i) & 1 == 1
    out[idx[has] ^ (1 << i)] = coeffs[has]
    return out


def group_translate_reference(coeffs, h):
    """fhat(A) * (-1)^|A & h| from a popcount per entry."""
    idx = np.arange(len(coeffs))
    return coeffs * (1.0 - 2.0 * (np.bitwise_count(idx & h) & 1))


def permute_coordinates_reference(coeffs, perm):
    """Relabel bit i of every mask as bit perm[i], one mask at a time."""
    out = np.zeros_like(coeffs)
    for mask in range(len(coeffs)):
        new = 0
        for i in range(len(perm)):
            if mask >> i & 1:
                new |= 1 << perm[i]
        out[new] = coeffs[mask]
    return out


def apply_p_left_reference(M, j):
    """P_j M as a row gather by y xor e_j times the column i(-1)^{y_j}."""
    from cubeineq.cube import character

    mat = np.asarray(M, dtype=complex)
    n = mat.shape[0].bit_length() - 1
    sign = 1j * character(n, 1 << j).values()
    return sign[:, None] * mat[np.arange(1 << n) ^ (1 << j), :]


def qa_word_defect_reference(n, j):
    """qa_word_defect with Q_{A minus j} and the expected Q_A term scattered by hand."""
    m = 1 << n
    idx = np.arange(m)
    lev = levels(n)
    worst = 0.0
    for A in range(m):
        if not (A >> j) & 1:
            continue
        q_rest = np.zeros((m, m), dtype=complex)
        q_rest[idx ^ (A ^ (1 << j)), idx] = 1.0
        g = apply_p_left_reference(q_rest, j)
        k = int(lev[A]) - 1
        for theta in qt._QA_THETAS:
            lhs = qt.project_Q(qt.rotate(g, -theta)).mat
            expect = np.zeros((m, m), dtype=complex)
            expect[idx ^ A, idx] = math.cos(theta) ** k * math.sin(theta)
            worst = max(worst, float(np.max(np.abs(lhs - expect))))
    return worst


# -- whole-array references for the streamed kernels ------------------------------


def apply_multiplier_reference(coeffs, table):
    """coeffs * table[|A|] through one gathered 2^n table."""
    return coeffs * table.take(levels(len(coeffs).bit_length() - 1))


def riesz_reference(coeffs, i):
    """R_i as two operators: the L^{-1/2} product, then D_i by its keep-mask."""
    n = len(coeffs).bit_length() - 1
    table = np.arange(n + 1, dtype=np.float64)
    table[1:] = table[1:] ** (-0.5)
    table[0] = 0.0
    return discrete_derivative_reference(apply_multiplier_reference(coeffs, table), i)


def pow_reference(a, e, scratch=None):
    """a**e for a >= 0 with e = 3 squared into `scratch` or a full-size temporary,
    and any other e not in {1, 2} into a new array."""
    if e == 1:
        return a
    if e == 2:
        return np.multiply(a, a, out=a)
    if e == 3:
        return np.multiply(np.multiply(a, a, out=scratch), a, out=a)
    return a**e


def mc_noise_reference(f, t, batch, at=None):
    """(value, stderr, count) of mc_noise_expectation from one (count, n) draw."""
    from cubeineq.cube import signs_to_index
    from cubeineq.noise import NoiseParameter

    p_plus = NoiseParameter(t).p_plus
    rng = batch.generator()
    n = f.n
    vals = f.values()
    base = 0 if at is None else signs_to_index(at, n)
    flip_bits = rng.random((batch.count, n)) < (1.0 - p_plus)
    masks = flip_bits @ (1 << np.arange(n))
    samples = vals[np.bitwise_xor(masks.astype(np.int64), base)]
    value = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(batch.count)) if batch.count > 1 else 0.0
    return value, stderr, batch.count
