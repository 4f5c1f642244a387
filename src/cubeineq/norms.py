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
computed into one reused buffer and reduced in place.  When the power is one
integer e of every value (a scalar space at integer p, or p = q), a pattern's
power sum is one fused pass, row dots |v|^(e-1) . |v| by einsum over tiles of
at most `_BLOCK` values (`_power_sums`); otherwise powers are taken in place
(`_pow` overwrites its input).  Either way a cube without scratch goes a
`_BLOCK` at a time through one buffer, so a scalar `mixed_norm`, which is
`lp_norm` of a cube function, holds no 2^n array beside the point values.
Given a cap, `rademacher_avg` keeps a running sum of the blocks' powers (a
running maximum at p = inf) and stops at the first block that proves the
average above the cap by the margin `_CAP_SLACK`, returning the cap as a
flagged lower bound; the ratio search caps the rhs of a candidate that would
lose (`inequalities.evaluate`).  At p >= 2 an exact average first compares
the cap with its Parseval floor (`_parseval_floor`), and one the floor passes
is returned before any transform.  Without a cap the blocks are the same.
`lp_norm`, `mixed_norm`, `rademacher_avg` and `radial_sup_rademacher_moment`
scale those values once per call by a power of two when the largest
|value|^p would leave the normal range (`_rescale`), and scale the root back;
otherwise nothing is scaled and no bit changes.  At integer p the root
(`_root`) scales by exactly that power of two.

Every reduction of vectors to one number (a binomial mean, a sum of squared
coefficients) is `cube._dot`, numpy's own loop on one thread, and so is each
row of `_power_sums`.  BLAS runs only the matrix products (the sign-pattern
blocks of `_sign_powers` and the Monte-Carlo Gram matrix), and OpenBLAS
splits those by output entries, not within a sum.  So the results are the
same bits whatever the host's core or BLAS thread count.

At p = 2 with a scalar, ell^2 or L^2 inner norm (`_hilbert`) Parseval reads the
norms off the Walsh coefficients with no synthesis: ||F||^2 sums the squared
coefficients (averaged over the 2^n_delta rows for L^2), and a sign pattern's
power is delta^T G delta for the Gram matrix G of the k operands: O(k 2^n) in
exact mode (sqrt tr G), O(k^2 2^n + S k^2) for S Monte-Carlo samples.

`radial_sup_rademacher_moment` is the O(n log n + W^2) reduction, with W
the sign-total window below (its sup kernel evaluates only the (s, d) pairs
whose upper bound reaches a known lower bound on their row, so W^2 is a
worst case: about 20 pairs per sign total on the log-distance profile), that
makes the quantity
(E_delta [sup_zeta |sum_i delta_i D_i f(zeta)|]^p)^{1/p} exactly computable
for radial f up to n ~ 10^6: for a point zeta of weight d the summand
D_i f(zeta) equals alpha(d) = (v(d)-v(d+1))/2 on +1 coordinates and
beta(d) = (v(d)-v(d-1))/2 on -1 coordinates, so for a sign pattern with sum
s the supremum over zeta is a maximum of |alpha(d) s + (beta-alpha)(d) u|
over d and over the feasible (integer, parity-free after relaxing to the
endpoints) range of u = (signed delta-mass on the -1 set), which is linear
in u and hence attained at the range endpoints.  The delta-average then
collapses to a binomial sum over s.  For large n the binomial sum is
truncated where the total discarded probability mass is below `TAIL_MASS`
= 1e-20; below the window size the computation is exact.  The
binomial weights are evaluated on that window only (`radial.binomial_pmf`),
and the blocks of (s, d) pairs reuse three preallocated buffers.  A profile
is finite by construction (`RadialProfile` refuses anything else), and the
kernel refuses `svals` that are not sign totals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cube import (_BLOCK, BiCubeFunction, CubeFunction, VectorCubeFunction, _dot, sign_table,
                   walsh_transform)
from .radial import RadialProfile, binomial_pmf, binomial_weights
from .rng import stream_generator

MAX_EXACT_SIGNS = 20
_CHUNK = 1 << 12
_PRUNE_ROWS = 32  # sign totals per block of the radial sup kernel
_SLACK = 1e-12  # relative, on its pair bounds: covers the rounding of value and bound
# A capped sign average (`rademacher_avg`) stops once its running power sum S passes
# N (c (1 + _CAP_SLACK))^p, N patterns and c the cap (`_power_limit`); the caller's
# ratio lhs / rhs must then come out below its bar, c = lhs const / bar.  With u = 2^-53:
# - sums: any order of adding N <= 2^19 nonnegative floats is within
#   gamma = N u / (1 - N u) < 6e-11 of the exact sum, so the running sum of a prefix,
#   added block by block, and the pairwise sum of all the powers differ by at most 2 gamma;
#   the mean (sum / N) adds one rounding, the limit's power and products three;
# - `_root`: pow with a rounded 1/p is off by at most |ln mean| u / p + 1 ulp, under 746 u
#   for every normal mean; `_unscale` is exact, its result exceeding the normal cap c;
# - the side: rhs / const (PT_DERIV), c = lhs const / bar and the ratio lhs / rhs, 4 u.
# So rhs > (lhs const / bar)(1 + _CAP_SLACK)(1 - 2 gamma - 755 u) / const and the ratio is
# below bar (1 + u) / ((1 + _CAP_SLACK)(1 - 1.3e-10)) < bar: 1e-9 leaves a factor 7.
# At p >= 2 an exact average returns the cap before any transform once its floor
# F = r sqrt(S) (`_parseval_floor`: S sums the m <= 2^19 squared coefficients) passes
# c (1 + _CAP_SLACK).  F rounds up by at most (gamma_m + 2^-34) / 2 < 6e-11 from S (squares
# below the normal range lose m 2^-1075 < 2^-34 S), u from the sqrt, 16 u from the pow in r
# (a rounded 1/q times |ln R| < 13.2) and u from the product; its scaling is exact.  Against
# the exact average A >= F, the transform and the signed sum put at most
# gamma_{n+k} sum|coefficients| into a value, under gamma_39 sqrt(m) F < 3.2e-12 F in the
# inner norm, and the powers, their means and `_root` lose under 2e-10 (1.3e-10 as above,
# and gamma_R / q from an inner sum).  So the computed average exceeds c (1 + _CAP_SLACK)
# (1 - 3e-10), and the ratio is below the bar as above.
_CAP_SLACK = 1e-9
MAX_CAP_PATTERNS = 1 << (MAX_EXACT_SIGNS - 1)  # the sums the margin covers: every exact average
TAIL_MASS = 1e-20  # binomial mass outside the sign-total window of the radial sup reduction


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


def _rescale(vals: np.ndarray, spec: MixedNormSpec, terms: int = 1, moments: int = 1,
             copy: bool = False) -> tuple[np.ndarray, int]:
    """Scale `vals` by 2^-k so that the powers `_pattern_powers` takes of them
    stay normal, and return them with k: in place, or into a new array only
    when k != 0 and `copy` is set.

    With e the largest finite exponent of `spec` times `moments` (2 when the
    variance of the powers is taken too) and M = max|vals|, k = 0 (no bit
    changes) while M^e is normal and (amp M)^e leaves 2^64 of room for sums
    below the overflow threshold; amp bounds a pattern's inner norm over M:
    `terms` signed operands, times the R components of an lq value.
    Otherwise k = round(log2 M), which puts M within a factor sqrt(2) of 1.
    """
    exponents = [x for x in (spec.p, spec.q) if x is not None and x < math.inf]
    if not exponents or vals.size == 0:
        return vals, 0
    e = max(exponents) * moments
    top = max(float(vals.max()), -float(vals.min()))  # no |vals| temporary
    if not 0.0 < top < math.inf:
        return vals, 0
    lg = math.log2(top)
    amp = terms * (vals.shape[-2] if spec.inner == "lq" else 1)
    if e * lg > -1022 and e * (lg + math.log2(amp)) < 1024 - 64:
        return vals, 0
    k = round(lg)
    return np.ldexp(vals, -k, out=None if copy else vals), k


def _power_sums(a: np.ndarray, e: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """sum_i a[..., i]^e for a >= 0 and an integer e >= 1, one value per leading
    index, as row dots a^(e-1) . a by `np.einsum` (numpy's own loop, never BLAS).

    A tile of at most `_BLOCK` values is summed at a time: rows of up to `_BLOCK`
    values in groups, a longer row in `_BLOCK`-value pieces whose sums are added
    in order.  a^(e-1) goes into `scratch`, an optional array of a's size, or
    else into one buffer of a tile; the tiles are the same either way, so the
    bits do not depend on `scratch`.  `a` is not written."""
    width = a.shape[-1]
    rows = a.reshape(-1, width)
    out = np.empty(rows.shape[0])
    step, cols = max(1, _BLOCK // width), min(width, _BLOCK)
    if e > 2:
        buf = (scratch if scratch is not None else np.empty(min(a.size, _BLOCK))).reshape(-1)
    for lo in range(0, rows.shape[0], step):
        for c in range(0, width, cols):
            tile = rows[lo:lo + step, c:c + cols]
            if e == 1:
                part = np.einsum("...i->...", tile)
            else:
                factor = tile if e == 2 else buf[:tile.size].reshape(tile.shape)
                if e == 3:
                    np.multiply(tile, tile, out=factor)
                elif e > 3:
                    np.power(tile, e - 1, out=factor)
                part = np.einsum("...i,...i->...", factor, tile)
            if c:
                out[lo:lo + step] += part
            else:
                out[lo:lo + step] = part
    return out.reshape(a.shape[:-1])


def _pattern_powers(block: np.ndarray, spec: MixedNormSpec,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """mean_x ||block(x)||^p over the trailing axes of a (..., inner?, points)
    block, one value per leading index: the mean of (sum or mean of |v|^q)^{p/q}
    with no root taken.  p = inf gives the norm max_x ||block(x)|| itself.
    At an integer p equal to q, or with no q, every value takes the one power
    p, and each index is one fused pass (`_power_sums`) over its trailing values.
    `block` is overwritten, and so is `scratch`, an optional array shaped like
    it that takes |v|^(p-1), or the squares of a cube, in place of a temporary."""
    a = np.abs(block, out=block)
    if spec.q in (None, spec.p) and float(spec.p).is_integer():
        rows = a if spec.inner == "scalar" else a.reshape(*a.shape[:-2], -1)
        count = a.shape[-1] * (a.shape[-2] if spec.inner == "Lq" else 1)
        return _power_sums(rows, int(spec.p), scratch) / count
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
    """power_mean^(1/p); at p = inf the power mean is the norm itself.

    At integer p the mean x is split as y 2^(p q) with y in [1, 2^p), and the
    root is y^(1/p) 2^q: scaling x by 2^(p j) moves only q, so the root scales
    by exactly 2^j, as `_unscale` assumes (pow(x, 1/p) misses that by an ulp
    for most x, since 1/p is rounded).  x in [1, 2^p) is its own y, so the
    bits there are plain pow's.  Past p = `sys.float_info.max_exp`, where 2^p
    overflows, y lies in [2^(max_exp - p), 2^max_exp) instead.
    """
    x = float(power_mean)
    if np.isinf(p):
        return x
    if not float(p).is_integer():
        return x ** (1.0 / p)
    p = int(p)
    m, e = math.frexp(x)  # x = m 2^e with 0.5 <= m < 1; e = 0 at 0, inf and nan
    q = -((min(p, sys.float_info.max_exp) - e) // p)
    return math.ldexp(math.ldexp(m, e - p * q) ** (1.0 / p), q)


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
        a, k = _rescale(np.abs(f.v), MixedNormSpec.scalar(p))  # k = 0 at p = inf
        return _unscale(_root(a.max() if np.isinf(p) else _dot(binomial_weights(f.n), a**p), p), k)
    raise TypeError(f"unsupported operand {type(f).__name__}")


def _operand_values(operands) -> np.ndarray:
    """Point values of same-shape operands on a leading axis, from one batched
    transform, whose copy of the coefficients is the only array made."""
    return walsh_transform([h.coeffs for h in operands])


def inner_kind(g) -> str | None:
    """The value space whose `OPERANDS` class `g` is; None for a non-operand."""
    return _KINDS.get(type(g))


def _hilbert(spec: MixedNormSpec) -> bool:
    """p = 2 with a scalar, ell^2 or L^2 inner norm: a Hilbert-space norm."""
    return spec.p == 2 and spec.q in (None, 2)


def _gram(c: np.ndarray, spec: MixedNormSpec) -> np.ndarray:
    """<g_i, g_j> in L^2(X) of the operands with coefficients c[i], by Parseval."""
    flat = c.reshape(c.shape[0], -1)
    return flat @ flat.T / (c.shape[-2] if spec.inner == "Lq" else 1)


def _square_sum(c: np.ndarray, spec: MixedNormSpec) -> float:
    """sum_i ||g_i||^2 in L^2(X) of the operands with coefficients c[i] (or of the
    one operand c), by Parseval: the trace of `_gram`, with no matrix product."""
    flat = c.reshape(-1)
    return _dot(flat, flat) / (c.shape[-2] if spec.inner == "Lq" else 1)


def mixed_norm(F, spec: MixedNormSpec) -> float:
    """Outer L^p over the cube of the inner norm declared by `spec`."""
    if inner_kind(F) != spec.inner:
        raise ValueError(f"norm spec {spec} does not match operand {type(F).__name__}")
    if _hilbert(spec):
        c, k = _rescale(F.coeffs, spec, copy=True)
        return _unscale(_root(_square_sum(c, spec), 2), k)
    vals, k = _rescale(_operand_values([F])[0], spec)
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
    """The average, or with `pruned` set the cap it was proven to exceed."""

    value: float
    stderr: float = 0.0
    pruned: bool = False

    def __float__(self):
        return self.value


def _power_blocks(chunks, vals: np.ndarray, spec: MixedNormSpec, gram: np.ndarray | None):
    """The pattern powers of each chunk of sign rows, a block at a time: per chunk one
    Gram form delta^T G delta (`gram`), or `_pattern_powers` of sum_i signs[j, i] vals[i]
    in blocks of about `_BLOCK` values."""
    flat = vals.reshape(vals.shape[0], -1)
    rows = max(1, _BLOCK // flat.shape[1])
    shape = (-1, *vals.shape[1:])
    for signs in chunks:
        if gram is not None:
            yield np.einsum("si,ij,sj->s", signs, gram, signs)
            continue
        # the block and the scratch of its powers, reused by every block: glibc
        # maps a fresh temporary of this size (up to 256 KiB) and faults in every
        # page of it, unless an earlier large free happened to raise its threshold
        bufs = np.empty((2, min(rows, signs.shape[0]), flat.shape[1]))
        for lo in range(0, signs.shape[0], rows):
            part = signs[lo:lo + rows]
            block, scratch = bufs[:, :part.shape[0]]
            np.matmul(part, flat, out=block)
            yield _pattern_powers(block.reshape(shape), spec, scratch.reshape(shape))


def _parseval_floor(operands, spec: MixedNormSpec) -> float:
    """r sqrt(sum_i ||g_i||^2), the norms in L^2(X) with an ell^2 or L^2 inner norm: at
    p >= 2 a lower bound on the average of `rademacher_avg`, exact mode.  The signs are
    orthogonal, so E_delta mean_x ||sum_i delta_i g_i(x)||_2^2 is that sum (Parseval);
    Lyapunov on (delta, x) takes it to the power p; an inner norm is at least r times ell^2,
    r = R^min(0, 1/q - 1/2) over R components, 1 for a scalar or L^q with q >= 2.  The
    coefficients are scaled as `_rescale` scales squares.  0.0, no floor, for L^q with
    q < 2 and over `MAX_CAP_PATTERNS` coefficients (see `_CAP_SLACK`)."""
    shape = operands[0].coeffs.shape
    if (spec.inner == "Lq" and spec.q < 2) or len(operands) * math.prod(shape) > MAX_CAP_PATTERNS:
        return 0.0
    c, scale = _rescale(np.stack([g.coeffs for g in operands]), MixedNormSpec.scalar(2.0))
    r = shape[-2] ** min(0.0, 1.0 / spec.q - 0.5) if spec.inner == "lq" else 1.0
    return _unscale(r * math.sqrt(_square_sum(c, spec)), scale)


def _power_limit(cap: float | None, p: float, count: int, scale: int) -> float:
    """What the running sum of `count` pattern powers (their running maximum at
    p = inf) of values scaled by 2^-scale must exceed to prove the average above
    `cap`: count (2^-scale cap (1 + `_CAP_SLACK`))^p.  inf, so that nothing is
    pruned, without a cap, past `MAX_CAP_PATTERNS` patterns, for a cap that is
    not a normal float, and where that power would leave [2^-1000, 2^1000]."""
    if cap is None or count > MAX_CAP_PATTERNS:
        return math.inf
    top = float(cap) * (1.0 + _CAP_SLACK)  # Python floats: inf on overflow, no warning
    if not (sys.float_info.min <= top < math.inf and -1000 < math.frexp(top)[1] - scale < 1000):
        return math.inf
    x = math.ldexp(top, -scale)  # normal, so log2 is accurate even where x is near 1
    if np.isinf(p):
        return x
    lg = float(p) * math.log2(x) + math.log2(count)
    return count * x ** float(p) if -1000.0 < lg < 1000.0 else math.inf


def rademacher_avg(operands, p: float, spec: MixedNormSpec | None = None,
                   cfg: RademacherConfig | None = None,
                   cap: float | None = None) -> RademacherResult:
    """(E_delta || sum_i delta_i g_i ||_{L^p(X)}^p)^{1/p} over uniform signs.

    All operands must share their shape and match `spec` (default: scalar).
    Exact mode enumerates the 2^{k-1} patterns with delta_{k-1} = +1
    (||-x|| = ||x||) and is capped at k = 20; the Monte-Carlo mode reports the
    delta-method standard error of the final p-th root.  A block holds about
    `_BLOCK` values, or one pattern.  p = inf takes the maximum over patterns.

    With a `cap`, each block's pattern powers also go into a running sum (a
    running maximum at p = inf), and the average stops as soon as that sum
    passes `_power_limit`: then the full average, rounded as this function
    rounds it, is proven above the cap by the margin `_CAP_SLACK`, and the
    result is the flagged lower bound `RademacherResult(cap, pruned=True)`,
    with no standard error.  Exact and Monte-Carlo mode alike; the exact
    Hilbert case (one trace, no patterns) and a count of patterns over
    `MAX_CAP_PATTERNS` are always computed in full.  Exact mode at p >= 2 outside
    the Hilbert case first tries the floor r sqrt(sum_i ||g_i||^2) of
    `_parseval_floor`: once it passes the cap by `_CAP_SLACK` the flagged cap is
    returned with no transform, sign table or block (a cap `_power_limit` refuses
    at scale 0 gets no floor).  A cap the average does not
    pass changes no bit: the blocks are the ones computed without it.  A cap
    bounds an average from below only, so it serves a ratio whose denominator
    is the average (`inequalities.evaluate`), never one whose numerator is.
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
    exact = cfg.mode == "exact"
    if exact and k > MAX_EXACT_SIGNS:
        raise ValueError(f"exact mode capped at {MAX_EXACT_SIGNS} sign variables, got {k}")
    hilbert = _hilbert(spec)  # then a pattern's power is delta^T G delta, of mean tr G
    if (exact and p >= 2 and not hilbert and _power_limit(cap, p, 1 << (k - 1), 0) < math.inf
            and _parseval_floor(operands, spec) > float(cap) * (1.0 + _CAP_SLACK)):
        return RademacherResult(float(cap), pruned=True)
    vals, scale = _rescale(np.stack([g.coeffs for g in operands]) if hilbert
                           else _operand_values(operands), spec, k, 1 if exact else 2)
    if hilbert and exact:
        return RademacherResult(_unscale(_root(_square_sum(vals, spec), 2), scale))
    gram = _gram(vals, spec) if hilbert else None

    if exact:
        count = 1 << (k - 1)
        chunks = (sign_table(np.arange(lo, min(lo + _CHUNK, count)), k)
                  for lo in range(0, count, _CHUNK))
    else:
        count = cfg.samples
        rng = stream_generator(cfg.seed, cfg.stream)
        chunks = (1.0 - 2.0 * rng.integers(0, 2, size=(min(_CHUNK, count - lo), k))
                  for lo in range(0, count, _CHUNK))
    limit = _power_limit(cap, p, count, scale)
    blocks, running = [], 0.0
    for block in _power_blocks(chunks, vals, spec, gram):
        blocks.append(block)
        if limit < math.inf:
            running = max(running, block.max()) if np.isinf(p) else running + block.sum()
            if running > limit:
                return RademacherResult(float(cap), pruned=True)
    powers = np.concatenate(blocks)
    if np.isinf(p):
        return RademacherResult(_unscale(powers.max(), scale))
    mean = powers.mean()
    value = _root(mean, p)
    if exact:
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


def _envelope_weights(alpha: np.ndarray, beta: np.ndarray, n: int, smax: float) -> np.ndarray:
    """The weights off the band |n - 2d| <= smax that can attain the sup, ascending.

    Off the band the u-range endpoints are linear in s (u = -d below n/2;
    d - n + s, n + s - d above), so a weight's term is the line
    |alpha| |s| + |gamma| d (|beta| |s| + |gamma| (n - d) above n/2) in
    t = |s| / smax.  The winners for t in [0, 1] are the upper-hull vertices
    of the points (slope, intercept) between the t = 0 and t = 1 maximisers
    (`_upper_chain`); every line within a relative 1e-12 of that envelope is
    kept too, so rounding ties cannot lose the maximiser.  A zero line (slope and
    intercept 0) is a weight whose every value is 0, never above the band's, which
    holds a weight for any sign total; all lines of a constant profile are zero.
    """
    lo, hi = math.ceil((n - smax) / 2), math.floor((n + smax) / 2)  # the band is [lo, hi]
    d = np.r_[0:lo, hi + 1:n + 1]
    if d.size == 0:
        return d
    x = np.concatenate([alpha[:lo], beta[hi + 1:]])
    np.abs(x, out=x)
    x *= smax
    y = np.concatenate([beta[:lo], beta[hi + 1:]])
    y[:lo] -= alpha[:lo]
    y[lo:] -= alpha[hi + 1:]
    np.abs(y, out=y)
    y *= np.where(d < lo, d, n - d)
    live = x > 0.0
    live |= y > 0.0
    chain = _upper_chain(x, y)
    xc, yc = x[chain], y[chain]
    # the gap x t + y - envelope(t) is concave in t, largest where the
    # envelope's slope passes x: at a breakpoint, or at t = 0 or 1
    breaks = np.concatenate([[0.0], (yc[:-1] - yc[1:]) / (xc[1:] - xc[:-1]), [1.0]])
    k = np.searchsorted(xc, x, side="right")
    t = breaks[k]
    np.minimum(k, chain.size - 1, out=k)
    x *= t
    x += y  # the line at t
    y = xc[k]
    y *= t
    y += yc[k]  # the envelope at t
    y *= 1.0 - 1e-12
    live &= x >= y
    return d[live]


def _pair_values(s: np.ndarray, cols: np.ndarray, n: int, bufs: np.ndarray) -> np.ndarray:
    """max(|a s + g umin|, |a s + g umax|) for the sign totals `s` (rows) and the weights whose
    a = alpha, g = gamma and d are the rows of `cols` (columns), u's range at weight d being
    [max(-d, d - n + s), min(d, n + s - d)]; written into a (len(s), len(d)) view of the three
    buffers `bufs` (base, then the two ends)."""
    a, g, d = cols
    base, lo_end, hi_end = bufs[:, :s.size * d.size].reshape(3, s.size, d.size)
    s = s[:, None]
    np.multiply(a, s, out=base)
    np.add(d - n, s, out=lo_end)
    np.maximum(-d, lo_end, out=lo_end)  # umin
    np.subtract(n + s, d, out=hi_end)
    np.minimum(d, hi_end, out=hi_end)  # umax
    for u in (lo_end, hi_end):
        np.multiply(g, u, out=u)
        np.add(base, u, out=u)
        np.abs(u, out=u)
    return np.maximum(lo_end, hi_end, out=lo_end)


def sup_gradient_sum_by_sign_total(profile: RadialProfile, svals: np.ndarray) -> np.ndarray:
    """sup_zeta |sum_i delta_i D_i f(zeta)| for each sign total s in `svals`.

    The max over d of |alpha s + gamma u| at the u-range endpoints (`_pair_values`), over
    the band |n - 2d| <= max|s| and the few weights `_envelope_weights` selects off it.
    val(-s, d) == val(s, d) bit for bit, so each |s| is taken once, in ascending blocks of
    `_PRUNE_ROWS`.  As u lies in [-d, d] and u - s in [d - n, n - d],
        val(s, d) <= min(|alpha| |s| + |gamma| d, |alpha + gamma| |s| + |gamma| (n - d)),
    nondecreasing in |s|.  A block evaluates only the weights whose bound at its largest
    |s| passes the smallest exact value, over the block, of a few seed weights (the row
    argmax at five |s|).  A relative `_SLACK` in the bound covers the rounding of both
    sides, so every dropped pair is at most its row's maximum: the output is bit for bit
    that of the full band.  Cost is O(n log n) for the hull, O(W^2 / 64) for the bounds
    (W ~ max|s| band weights, W / 2 distinct |s|) and the pairs they keep, seeds included:
    6 per |s| on random profiles, 40 on the log-distance one and 0.6 W on a linear one,
    whose bound is loose by |s| and whose maximum n many weights share.  `svals` that
    are not sign totals (integers in [-n, n] of the parity of n) are refused.
    """
    n = profile.n
    mag = np.abs(np.asarray(svals, dtype=np.float64))
    if not (np.isfinite(mag).all() and (mag <= n).all() and (mag % 2 == n % 2).all()):
        raise ValueError(f"svals must be sign totals: integers in [-{n}, {n}] of the parity of n")
    if not mag.size:
        return mag
    alpha, beta = radial_derivative_profiles(profile)
    half = mag.astype(np.int64) // 2
    present = np.zeros(n // 2 + 1, dtype=bool)
    present[half] = True
    tot = 2.0 * np.flatnonzero(present) + n % 2  # the distinct |s|, ascending
    band = np.arange(math.ceil((n - tot[-1]) / 2), math.floor((n + tot[-1]) / 2) + 1)
    idx = np.concatenate([band, _envelope_weights(alpha, beta, n, tot[-1])])
    cols = np.stack([alpha[idx], beta[idx] - alpha[idx], idx])
    a, g, d = cols
    abs_a, abs_b, abs_g = np.abs(a), np.abs(a + g), np.abs(g)
    near, far = abs_g * d, abs_g * (n - d)
    bufs = np.empty((3, max(_BLOCK, d.size)))  # pages are touched only where pairs are
    seeds = [_pair_values(tot[i:i + 1], cols, n, bufs).argmax()
             for i in {k * (tot.size - 1) // 4 for k in range(5)}]
    lower = _row_maxima(tot, cols[:, seeds], n, bufs, np.empty(tot.size))
    res = lower.copy()
    for lo in range(0, tot.size, _PRUNE_ROWS):
        s = tot[lo:lo + _PRUNE_ROWS]
        inner = abs_a * s[-1] + near
        bound = np.minimum(inner, abs_b * s[-1] + far + _SLACK * inner)
        keep = bound > (1.0 - _SLACK) * lower[lo:lo + _PRUNE_ROWS].min()
        if keep.any():
            _row_maxima(s, cols[:, keep], n, bufs, res[lo:lo + _PRUNE_ROWS])
    np.maximum(res, lower, out=res)
    return res[np.cumsum(present)[half] - 1]


def _row_maxima(s, cols, n, bufs, out):
    """The row maxima of `_pair_values` for the sign totals `s`, as many rows per call as fit."""
    rows = max(1, bufs.shape[1] // cols.shape[1])
    for lo in range(0, s.size, rows):
        _pair_values(s[lo:lo + rows], cols, n, bufs).max(axis=1, out=out[lo:lo + rows])
    return out


def sign_total_window(n: int) -> np.ndarray:
    """Sign totals s (parity of n) covering all but `TAIL_MASS` of the mass."""
    half_width = int(math.ceil(math.sqrt(2.0 * n * math.log(2.0 / TAIL_MASS))))
    half_width = min(half_width, n)
    lo = -half_width if (half_width % 2) == (n % 2) else -half_width + 1
    return np.arange(lo, half_width + 1, 2, dtype=np.int64)


def radial_sup_rademacher_moment(profile: RadialProfile, p: float) -> float:
    """(E_delta [sup_zeta |sum_i delta_i D_i f(zeta)|]^p)^{1/p} for radial f.

    Exact up to the documented binomial-tail truncation; p = inf returns the
    overall supremum.  Window W ~ sqrt(n log(1/TAIL_MASS)); the cost is the kernel's,
    O(n log n + W^2 / 64) plus the pairs its bounds keep (at most W^2 / 2).
    """
    if not p >= 1:
        raise ValueError(f"exponent must be in [1, inf], got {p}")
    n = profile.n
    svals = sign_total_window(n)
    sups = sup_gradient_sum_by_sign_total(profile, svals)
    if np.isinf(p):
        return float(sups.max())
    sups, k = _rescale(sups, MixedNormSpec.scalar(p))
    return _unscale(_root(_dot(binomial_pmf(n, (svals + n) // 2), sups**p), p), k)
