import math
from fractions import Fraction

import numpy as np
import pytest

import cubeineq.counterexamples as cx
import cubeineq.quantum as qt
from cubeineq.cube import BiCubeFunction, CubeFunction, _dot, levels, walsh_transform
from cubeineq.radial import RadialProfile
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
    coefficient rows of the R results."""
    return np.stack([op(c).coeffs for c in F.components])


def per_column_reference(op, grid):
    """op applied in eps to the (eps, delta) value grid of a two-variable function,
    one delta column at a time through a CubeFunction: the value grid of the
    result."""
    return np.stack([op(CubeFunction.from_values(col)).values() for col in np.asarray(grid).T],
                    axis=1)


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
            lhs = qt.project_Q(qt.rotate(g, -theta))
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


# -- constructions and closed forms that only the tests use ----------------------


def permute_coordinates(f: CubeFunction, perm) -> CubeFunction:
    """Relabel coordinate i as perm[i]; fhat(A) moves to the relabeled mask."""
    perm = np.asarray(perm)
    if (perm.dtype.kind not in "iu" or perm.shape != (f.n,)
            or not np.array_equal(np.sort(perm), np.arange(f.n))):
        raise ValueError("perm must be a permutation of 0..n-1")
    # as a (2,)*n array, axis k holds bit n-1-k; output bit perm[i] reads input bit i
    lead = f.coeffs.shape[:-1]
    axes = (*range(len(lead)), *(len(lead) + f.n - 1 - np.argsort(perm)[::-1]))
    return f._with(f.coeffs.reshape(*lead, *(2,) * f.n).transpose(axes).reshape(f.coeffs.shape))


def from_translate(f: CubeFunction) -> BiCubeFunction:
    """F(eps, eta) = f(eps * eta): row eta holds fhat(A) eta^A, a Walsh matrix entry."""
    return BiCubeFunction.from_coeffs(f.n, walsh_transform(np.eye(1 << f.n)) * f.coeffs)


def talagrand_lhs(n: int) -> float:
    """max_d |v(d) - E v|: the inner sup norm of the recentered lift.

    The two-variable lift F(eps, eta) = f(eps eta) has eps-mean equal to
    E f for every eta, and its recentered sup over eta is the same for
    every eps, so the outer p-average is this single number for all p.
    The mean is the exact binomial expectation, not a lower bound.
    """
    return cx._sup_deviation(cx.talagrand_profile(n))


def lamberton_point_mass(n: int) -> RadialProfile:
    """f = 2^{-n} prod_i (1 + eps_i): the indicator of the all-ones point."""
    v = np.zeros(n + 1)
    v[0] = 1.0
    return RadialProfile(n, v)


def lamberton_gradient_norm(n: int, s: float) -> float:
    """|| |grad f|_{ell^2} ||_{L^s} in closed form.

    The gradient is sqrt(n)/2 at the all-ones point, 1/2 at its n
    neighbours, and zero elsewhere.
    """
    return 2.0 ** (-n / s) * math.exp(cx._log_unit_gradient_norm(n, s))


def pauli_word(s: str) -> qt.PauliWord:
    return qt.PauliWord(tuple(s))


def q_word(mask: int, n: int) -> qt.PauliWord:
    return qt.PauliWord(tuple("Q" if (mask >> i) & 1 else "I" for i in range(n)))


def p_word(mask: int, n: int) -> qt.PauliWord:
    return qt.PauliWord(tuple("P" if (mask >> i) & 1 else "I" for i in range(n)))


def pauli_inner(X, Y) -> complex:
    """tr(X^* Y) with the normalized trace; Pauli words are orthonormal."""
    (x, n), (y, _) = qt._square(X), qt._square(Y)
    return complex(_dot(x.conj().reshape(-1), y.reshape(-1)) / (1 << n))
