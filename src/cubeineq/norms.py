"""L^p and mixed vector-valued norms, and Rademacher sign averages.

Everything is taken with respect to the uniform probability measure on the
cube, so `lp_norm` is a p-th power *mean* and norms are nondecreasing in p.
Inner norms for vector-valued work are either the counting norm ell^q over
R components or L^q / L^infty over a second cube variable; `OPERANDS` names
the operand class of each value space.  Operands carry
Walsh coefficients on their last axis, so one batched transform gives all their
values, and an inner norm reduces axis -2: R components or 2^n_delta points.

`rademacher_avg` computes (E_delta || sum_i delta_i g_i ||_{L^p(X)}^p)^{1/p}
from ||x||^p per sign pattern (no root before the average), over the 2^{k-1}
patterns with delta_{k-1} = +1 (k <= 20; ||-x|| = ||x||) or over seeded
Monte-Carlo samples with a standard error, in blocks of about `_BLOCK` values
computed into one reused buffer and reduced in place.  Powers are taken in
place (`_pow` overwrites its input; a cube without scratch goes a `_BLOCK`
at a time through one buffer), so a scalar `mixed_norm`, which is `lp_norm`
of a cube function, holds no 2^n array beside the point values.  `lp_norm`,
`mixed_norm`, `rademacher_avg` and `radial_sup_rademacher_moment` scale
those values once per call by a power of two when the largest |value|^p
would leave the normal range (`_rescale`), and scale the root back;
otherwise nothing is scaled and no bit changes.

`radial_sup_rademacher_moment` is the O(n log n + W^2) reduction, with W
the sign-total window below, that makes the quantity
(E_delta [sup_zeta |sum_i delta_i D_i f(zeta)|]^p)^{1/p} exactly computable
for radial f up to n ~ 10^6: for a point zeta of weight d the summand
D_i f(zeta) equals alpha(d) = (v(d)-v(d+1))/2 on +1 coordinates and
beta(d) = (v(d)-v(d-1))/2 on -1 coordinates, so for a sign pattern with sum
s the supremum over zeta is a maximum of |alpha(d) s + (beta-alpha)(d) u|
over d and over the feasible (integer, parity-free after relaxing to the
endpoints) range of u = (signed delta-mass on the -1 set), which is linear
in u and hence attained at the range endpoints.  The delta-average then
collapses to a binomial sum over s.  For large n the binomial sum is
truncated where the total discarded probability mass is below `tail_mass`
(default 1e-20); below the window size the computation is exact.  The
binomial weights are evaluated on that window only (`radial.binomial_pmf`),
and the blocks of (s, d) pairs reuse three preallocated buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cube import (_BLOCK, BiCubeFunction, CubeFunction, VectorCubeFunction, sign_table,
                   walsh_transform)
from .radial import RadialProfile, binomial_pmf, binomial_weights
from .rng import stream_generator

MAX_EXACT_SIGNS = 20
_CHUNK = 1 << 12


# the value spaces, each with the operand class that carries it; `inner_kind` inverts it
OPERANDS = {"scalar": CubeFunction, "lq": VectorCubeFunction, "Lq": BiCubeFunction}
_KINDS = {cls: kind for kind, cls in OPERANDS.items()}


@dataclass(frozen=True)
class MixedNormSpec:
    """Outer exponent p with an inner norm, one of `OPERANDS`: scalar (no q),
    ell^q over components, or L^q over a second cube variable (q may be inf)."""

    p: float
    inner: str = "scalar"
    q: float | None = None

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError(f"outer exponent must be >= 1, got {self.p}")
        if self.inner not in OPERANDS:
            raise ValueError(f"unknown inner norm kind {self.inner!r}; "
                             f"value spaces: {', '.join(OPERANDS)}")
        if self.inner == "scalar" and self.q is not None:
            raise ValueError(f"the scalar space has no inner norm to read q={self.q}")
        if self.inner != "scalar" and not (self.q is not None and self.q >= 1):
            raise ValueError(f"inner norm {self.inner} needs an exponent q >= 1, got {self.q}")

    @classmethod
    def scalar(cls, p: float) -> "MixedNormSpec":
        return cls(p=p)

    @classmethod
    def lq(cls, p: float, q: float) -> "MixedNormSpec":
        return cls(p=p, inner="lq", q=q)

    @classmethod
    def cube(cls, p: float, q: float) -> "MixedNormSpec":
        return cls(p=p, inner="Lq", q=q)


def _pow(a: np.ndarray, e: float, scratch: np.ndarray | None = None) -> np.ndarray:
    """a**e for a >= 0, written over `a` (C-contiguous) and returned.  e = 1, 2
    and 3 go by multiplication; e = 3 squares into `scratch`, shaped like `a`,
    when one is given, and otherwise a `_BLOCK` of `a` at a time into one buffer."""
    if e == 1:
        return a
    if e == 2:
        return np.multiply(a, a, out=a)
    if e == 3:
        if scratch is not None or a.size <= _BLOCK:
            return np.multiply(np.multiply(a, a, out=scratch), a, out=a)
        flat = a.reshape(-1)
        square = np.empty(_BLOCK)
        for lo in range(0, flat.size, _BLOCK):
            part = flat[lo:lo + _BLOCK]
            np.multiply(np.multiply(part, part, out=square[:part.size]), part, out=part)
        return a
    return np.power(a, e, out=a)


def _rescale(vals: np.ndarray, spec: MixedNormSpec, terms: int = 1, moments: int = 1) -> int:
    """Scale `vals` in place by 2^-k so that the powers `_pattern_powers` takes
    of them stay normal, and return k.

    With e the largest finite exponent of `spec` times `moments` (2 when the
    variance of the powers is taken too) and M = max|vals|, k = 0 (no bit
    changes) while M^e is normal and (amp M)^e leaves 2^64 of room for sums
    below the overflow threshold; amp bounds a pattern's inner norm over M:
    `terms` signed operands, times the R components of an lq value.
    Otherwise k = round(log2 M), which puts M within a factor sqrt(2) of 1.
    """
    exponents = [x for x in (spec.p, spec.q) if x is not None and x < math.inf]
    if not exponents or vals.size == 0:
        return 0
    e = max(exponents) * moments
    top = max(float(vals.max()), -float(vals.min()))  # no |vals| temporary
    if not 0.0 < top < math.inf:
        return 0
    lg = math.log2(top)
    amp = terms * (vals.shape[-2] if spec.inner == "lq" else 1)
    if e * lg > -1022 and e * (lg + math.log2(amp)) < 1024 - 64:
        return 0
    k = round(lg)
    np.ldexp(vals, -k, out=vals)
    return k


def _pattern_powers(block: np.ndarray, spec: MixedNormSpec,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """mean_x ||block(x)||^p over the trailing axes of a (..., inner?, points)
    block, one value per leading index: the mean of (sum or mean of |v|^q)^{p/q}
    with no root taken.  p = inf gives the norm max_x ||block(x)|| itself.
    `block` is overwritten, and so is `scratch`, an optional array shaped like
    it that takes the squares of a cube in place of a temporary."""
    a = np.abs(block, out=block)
    q = 1.0  # the power of the inner norm that `s` holds
    if spec.inner == "scalar":
        s = a
    elif np.isinf(spec.q):
        s = a.max(axis=-2)
    else:
        q = spec.q  # lq: counting sum over R; Lq: mean over the second cube
        s = _pow(a, q, scratch)
        s = s.sum(axis=-2) if spec.inner == "lq" else s.mean(axis=-2)
    if np.isinf(spec.p):
        return s.max(axis=-1) ** (1.0 / q)
    return _pow(s, spec.p / q, scratch if s is a else None).mean(axis=-1)


def _root(power_mean, p: float) -> float:
    return float(power_mean if np.isinf(p) else power_mean ** (1.0 / p))


def _unscale(x, k: int) -> float:
    """x * 2^k: a norm of values that `_rescale` scaled by 2^-k, scaled back."""
    return float(np.ldexp(x, k) if k else x)


def lp_norm(f, p: float) -> float:
    """((1/2^n) sum |f|^p)^{1/p}; p = inf gives the maximum.

    Radial profiles are averaged with binomial weights, which is the same
    measure pushed to the weight variable.
    """
    if not p >= 1:
        raise ValueError(f"exponent must be in [1, inf], got {p}")
    if isinstance(f, CubeFunction):
        return mixed_norm(f, MixedNormSpec.scalar(p))
    if isinstance(f, RadialProfile):
        a = np.abs(f.v)
        k = _rescale(a, MixedNormSpec.scalar(p))  # k = 0 at p = inf, which has no finite exponent
        return _unscale(_root(a.max() if np.isinf(p) else binomial_weights(f.n) @ a**p, p), k)
    raise TypeError(f"unsupported operand {type(f).__name__}")


def _operand_values(operands) -> np.ndarray:
    """Point values of same-shape operands on a leading axis, from one batched
    transform, whose copy of the coefficients is the only array made."""
    return walsh_transform([h.coeffs for h in operands])


def inner_kind(g) -> str | None:
    """The value space whose `OPERANDS` class `g` is; None for a non-operand."""
    return _KINDS.get(type(g))


def mixed_norm(F, spec: MixedNormSpec) -> float:
    """Outer L^p over the cube of the inner norm declared by `spec`."""
    if inner_kind(F) != spec.inner:
        raise ValueError(f"norm spec {spec} does not match operand {type(F).__name__}")
    vals = _operand_values([F])[0]
    k = _rescale(vals, spec)
    return _unscale(_root(_pattern_powers(vals, spec), spec.p), k)


@dataclass(frozen=True)
class RademacherConfig:
    """Exact enumeration or seeded Monte-Carlo for sign averages."""

    mode: str = "exact"
    samples: int = 4096
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte-carlo" and self.samples <= 0:
            raise ValueError("monte-carlo needs a positive sample count")


@dataclass(frozen=True)
class RademacherResult:
    value: float
    stderr: float = 0.0

    def __float__(self):
        return self.value


def _sign_powers(signs: np.ndarray, vals: np.ndarray, spec: MixedNormSpec) -> np.ndarray:
    """`_pattern_powers` of sum_i signs[j, i] vals[i] for each row j, in blocks."""
    flat = vals.reshape(vals.shape[0], -1)
    rows = max(1, _BLOCK // flat.shape[1])
    out = np.empty(signs.shape[0])
    # the block and the scratch of its powers, reused by every block: glibc
    # maps a fresh temporary of this size (up to 256 KiB) and faults in every
    # page of it, unless an earlier large free happened to raise its threshold
    bufs = np.empty((2, min(rows, signs.shape[0]), flat.shape[1]))
    shape = (-1, *vals.shape[1:])
    for lo in range(0, signs.shape[0], rows):
        part = signs[lo:lo + rows]
        block, scratch = bufs[:, :part.shape[0]]
        np.matmul(part, flat, out=block)
        out[lo:lo + rows] = _pattern_powers(block.reshape(shape), spec, scratch.reshape(shape))
    return out


def rademacher_avg(operands, p: float, spec: MixedNormSpec | None = None,
                   cfg: RademacherConfig | None = None) -> RademacherResult:
    """(E_delta || sum_i delta_i g_i ||_{L^p(X)}^p)^{1/p} over uniform signs.

    All operands must share their shape and match `spec` (default: scalar).
    Exact mode enumerates the 2^{k-1} patterns with delta_{k-1} = +1
    (||-x|| = ||x||) and is capped at k = 20; the Monte-Carlo mode reports the
    delta-method standard error of the final p-th root.  A block holds about
    `_BLOCK` values, or one pattern.  p = inf takes the maximum over patterns.
    """
    operands = list(operands)
    if not operands:
        raise ValueError("need at least one operand")
    spec = spec if spec is not None else MixedNormSpec.scalar(p)
    if spec.p != p:
        raise ValueError("spec outer exponent must agree with p")
    cfg = cfg if cfg is not None else RademacherConfig()
    for g in operands:
        if inner_kind(g) != spec.inner:
            raise ValueError(f"operand {type(g).__name__} does not match spec {spec}")
        if g.coeffs.shape != operands[0].coeffs.shape:
            raise ValueError(f"operand shape {g.coeffs.shape} != {operands[0].coeffs.shape}")
    k = len(operands)
    vals = _operand_values(operands)  # (k, ...)
    scale = _rescale(vals, spec, terms=k, moments=1 if cfg.mode == "exact" else 2)

    if cfg.mode == "exact":
        if k > MAX_EXACT_SIGNS:
            raise ValueError(f"exact mode capped at {MAX_EXACT_SIGNS} sign variables, got {k}")
        half = 1 << (k - 1)
        chunks = (sign_table(np.arange(lo, min(lo + _CHUNK, half)), k)
                  for lo in range(0, half, _CHUNK))
    else:
        rng = stream_generator(cfg.seed, cfg.stream)
        chunks = (1.0 - 2.0 * rng.integers(0, 2, size=(min(_CHUNK, cfg.samples - lo), k))
                  for lo in range(0, cfg.samples, _CHUNK))
    powers = np.concatenate([_sign_powers(signs, vals, spec) for signs in chunks])
    if np.isinf(p):
        return RademacherResult(_unscale(powers.max(), scale))
    mean = powers.mean()
    value = _root(mean, p)
    if cfg.mode == "exact":
        return RademacherResult(_unscale(value, scale))
    se_mean = powers.std(ddof=1) / math.sqrt(cfg.samples) if cfg.samples > 1 else 0.0
    stderr = se_mean * value / (p * mean) if mean > 0 else se_mean
    return RademacherResult(_unscale(value, scale), _unscale(stderr, scale))


# -- radial sup-Rademacher reduction ------------------------------------------


def radial_derivative_profiles(profile: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """alpha(d), beta(d): the two values D_i f takes at a weight-d point.

    alpha applies on +1 coordinates, beta on -1 coordinates; the unused
    endpoints alpha(n) and beta(0) are set to zero (they always cancel).
    """
    v = profile.v
    n = profile.n
    alpha = np.zeros(n + 1)
    beta = np.zeros(n + 1)
    alpha[:n] = (v[:n] - v[1:]) / 2.0
    beta[1:] = (v[1:] - v[:n]) / 2.0
    return alpha, beta


def _upper_chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the upper-hull vertices of the points (x, y), by ascending x,
    from the t = 0 maximiser of x t + y (max y, the largest x among ties) to
    the t = 1 maximiser (max x + y, the smallest x among ties).

    A Pareto scan over x descending keeps each point whose y beats every y
    before it; Andrew's monotone chain (Inf. Process. Lett. 9, 1979) then
    walks that front, by ascending x, up to the t = 1 maximiser.  Duplicate,
    collinear and equal-x points drop out of the chain, and one or two points
    need no special case.
    """
    order = np.argsort(-x, kind="stable")  # timsort: the off-band slopes come in runs
    ys = y[order]
    beats = np.empty(ys.size, dtype=bool)
    beats[0] = True
    beats[1:] = ys[1:] > np.maximum.accumulate(ys)[:-1]
    front = order[beats][::-1]
    xf, yf = x[front], y[front]
    stop = int(np.argmax(xf + yf)) + 1
    hx, hy, hull = [], [], []
    for i, (px, py) in enumerate(zip(xf[:stop].tolist(), yf[:stop].tolist())):
        # drop the last vertex while it lies on or under the chord to the new point
        while len(hull) > 1 and ((hx[-1] - hx[-2]) * (py - hy[-2])
                                 >= (hy[-1] - hy[-2]) * (px - hx[-2])):
            hx.pop()
            hy.pop()
            hull.pop()
        hx.append(px)
        hy.append(py)
        hull.append(i)
    return front[hull]


def _envelope_weights(alpha: np.ndarray, beta: np.ndarray, n: int, smax: float,
                      d: np.ndarray) -> np.ndarray:
    """The weights among `d` (all with |n - 2d| > smax) that can attain the sup.

    Off the band the u-range endpoints are linear in s (u = -d below n/2;
    d - n + s, n + s - d above), so a weight's term is the line
    |alpha| |s| + |gamma| d (|beta| |s| + |gamma| (n - d) above n/2) in
    t = |s| / smax.  The winners for t in [0, 1] are the upper-hull vertices
    of the points (slope, intercept) between the t = 0 and t = 1 maximisers
    (`_upper_chain`); every line within a relative 1e-12 of that envelope is
    kept too, so rounding ties cannot lose the maximiser.
    """
    if d.size == 0:
        return d
    below = 2 * d < n
    x = np.abs(np.where(below, alpha[d], beta[d])) * smax
    y = np.abs(beta[d] - alpha[d]) * np.where(below, d, n - d)
    chain = _upper_chain(x, y)
    xc, yc = x[chain], y[chain]
    # the gap x t + y - envelope(t) is concave in t, largest where the
    # envelope's slope passes x: at a breakpoint, or at t = 0 or 1
    breaks = np.concatenate([[0.0], (yc[:-1] - yc[1:]) / (xc[1:] - xc[:-1]), [1.0]])
    k = np.searchsorted(xc, x, side="right")
    t = breaks[k]
    j = np.minimum(k, chain.size - 1)
    return d[x * t + y >= (1.0 - 1e-12) * (xc[j] * t + yc[j])]


def sup_gradient_sum_by_sign_total(profile: RadialProfile, svals: np.ndarray) -> np.ndarray:
    """sup_zeta |sum_i delta_i D_i f(zeta)| for each sign total s in `svals`.

    The max over d of |alpha s + gamma u| at the u-range endpoints, taken
    over the band |n - 2d| <= max|s| and the few weights `_envelope_weights`
    selects off it, in blocks of at most `_BLOCK` (s, d) pairs written into
    three preallocated buffers.  Cost is O(n log n) for the hull plus O(W^2)
    for the W ~ max|s| band weights.
    """
    alpha, beta = radial_derivative_profiles(profile)
    svals = np.asarray(svals, dtype=np.float64)
    n = profile.n
    smax = float(np.abs(svals).max(initial=0.0))
    weights = np.arange(n + 1)
    off = np.abs(n - 2 * weights) > smax
    idx = np.concatenate([weights[~off], _envelope_weights(alpha, beta, n, smax, weights[off])])
    d = idx.astype(np.float64)
    a, g = alpha[idx], beta[idx] - alpha[idx]
    neg_d, d_minus_n = -d, d - n
    out = np.empty(svals.shape[0])
    rows = max(1, _BLOCK // idx.size)
    # three (rows, W) buffers reused by every block: base, then the two ends
    bufs = np.empty((3, min(rows, svals.shape[0]), idx.size))
    for lo in range(0, svals.shape[0], rows):
        s = svals[lo:lo + rows, None]
        base, lo_end, hi_end = bufs[:, :s.shape[0]]
        np.multiply(a, s, out=base)
        np.add(d_minus_n, s, out=lo_end)
        np.maximum(neg_d, lo_end, out=lo_end)  # umin
        np.subtract(n + s, d, out=hi_end)
        np.minimum(d, hi_end, out=hi_end)  # umax
        for u in (lo_end, hi_end):
            np.multiply(g, u, out=u)
            np.add(base, u, out=u)
            np.abs(u, out=u)
        np.maximum(lo_end, hi_end, out=lo_end)
        lo_end.max(axis=1, out=out[lo:lo + rows])
    return out


def sign_total_window(n: int, tail_mass: float = 1e-20) -> np.ndarray:
    """Sign totals s (parity of n) covering all but `tail_mass` of the mass."""
    if not 0.0 < tail_mass < 1.0:
        raise ValueError(f"tail_mass must lie in (0, 1), got {tail_mass}")
    half_width = int(math.ceil(math.sqrt(2.0 * n * math.log(2.0 / tail_mass))))
    half_width = min(half_width, n)
    lo = -half_width if (half_width % 2) == (n % 2) else -half_width + 1
    return np.arange(lo, half_width + 1, 2, dtype=np.int64)


def radial_sup_rademacher_moment(profile: RadialProfile, p: float,
                                 tail_mass: float = 1e-20) -> float:
    """(E_delta [sup_zeta |sum_i delta_i D_i f(zeta)|]^p)^{1/p} for radial f.

    Exact up to the documented binomial-tail truncation; p = inf returns the
    overall supremum.  Cost is O(n log n + W^2) with window W ~
    sqrt(n log(1/tail)).  A non-finite profile is refused.
    """
    if not p >= 1:
        raise ValueError(f"exponent must be in [1, inf], got {p}")
    if not np.isfinite(profile.v).all():
        raise ValueError("profile has non-finite values")
    n = profile.n
    svals = sign_total_window(n, tail_mass)
    sups = sup_gradient_sum_by_sign_total(profile, svals)
    if np.isinf(p):
        return float(sups.max())
    k = _rescale(sups, MixedNormSpec.scalar(p))
    return _unscale(_root(binomial_pmf(n, (svals + n) // 2) @ sups**p, p), k)
