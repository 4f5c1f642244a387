"""The classical failure witnesses, reproduced exactly at large n.

Three constructions show which dimension-free estimates break:

* the log-distance profile  v(d) = log^+(d / sqrt(n))  whose sup-norm
  deviation from its mean grows like (1/2) log n while the Rademacher side
  stays bounded (the L^p(L^infty) lift of the scalar failure);
* the point mass  f = 2^{-n} prod_i (1 + eps_i) = 1_{eps = all-ones}, whose
  gradient norm outruns || L^{1/2} f ||_{L^s} for 1 < s < 2, and its
  L^p(L^s) vector lift where the same growth defeats the Riesz estimate
  from above even for p >= 2;
* the sharp constant bound  min_{0<r<1} r^{-n} (1+r)/(1-r), which grows
  like log n + log log n + O(1).

Everything is radial, so all computations run in O(n polylog), the
sup-Rademacher reduction (O(n log n) plus the (s, d) pairs its bounds keep,
about 20 per sign total for the log-distance profile, O(W^2) at worst, with
W ~ sqrt(n) sign totals) or, for the point mass, at most n * 384 terms by
heat-kernel subordination, and reach n = 2^20 in seconds.  Natural
logarithms throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cube import _BLOCK
from .inequalities import RatioReport, _ratio
from .norms import radial_derivative_profiles, radial_sup_rademacher_moment
from .radial import MAX_RADIAL_N, RadialProfile, _log_binomial_pmf
from .rng import stream_generator


@dataclass(frozen=True)
class GrowthCurve:
    """Values over n with a least-squares fit against log n."""

    ns: tuple
    values: tuple
    slope: float
    intercept: float
    residual: float

    @classmethod
    def fit(cls, ns, values) -> "GrowthCurve":
        ns = [int(n) for n in ns]
        if len(ns) < 2:
            raise ValueError(f"a fit against log n needs at least two n, got {len(ns)}")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("abscissa must be strictly increasing")
        values = [float(v) for v in values]
        slope, intercept = np.polyfit(np.log(ns), values, 1)
        resid = float(np.max(np.abs(np.array(values) - (slope * np.log(ns) + intercept))))
        return cls(tuple(ns), tuple(values), float(slope), float(intercept), resid)

    def fit_record(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept, "residual": self.residual}


# -- log-distance (sup-norm) counterexample -----------------------------------


def talagrand_profile(n: int) -> RadialProfile:
    """v(d) = max(0, log(d / sqrt(n))); zero inside the sqrt(n) ball."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d = np.arange(n + 1, dtype=np.float64)
    v = np.zeros(n + 1)
    pos = d >= 1
    v[pos] = np.maximum(0.0, np.log(d[pos] / math.sqrt(n)))
    return RadialProfile(n, v)


def _sup_deviation(prof: RadialProfile) -> float:
    return float(np.max(np.abs(prof.v - prof.mean)))


def talagrand_ratio(n: int, p: float) -> RatioReport:
    """Sup-deviation of the lift against its sup-Rademacher moment at p, both
    from one profile."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    prof = talagrand_profile(n)
    lhs = _sup_deviation(prof)
    rhs = radial_sup_rademacher_moment(prof, p)
    return RatioReport(lhs, rhs, _ratio(lhs, rhs), mode=f"radial[n={n}]")


def talagrand_pointwise_bound(n: int, count: int, seed: int = 0, stream: int = 0) -> float:
    """Max excess of |sum_i delta_i D_i f| over (4/sqrt(n))|sum delta_i| + 4.

    Sampled over `count` independent (delta, eps) pairs; a non-positive
    return value means the bound held on every sample.  The sampling works
    in the sufficient statistics: the weight d of eps and the delta-totals
    on the +1 and -1 coordinate sets.
    """
    rng = stream_generator(seed, stream)
    alpha, beta = radial_derivative_profiles(talagrand_profile(n))
    d = rng.binomial(n, 0.5, size=count)
    s_plus = 2.0 * rng.binomial(n - d, 0.5) - (n - d)
    s_minus = 2.0 * rng.binomial(d, 0.5) - d
    lhs = np.abs(alpha[d] * s_plus + beta[d] * s_minus)
    bound = 4.0 / math.sqrt(n) * np.abs(s_plus + s_minus) + 4.0
    return float(np.max(lhs - bound))


# -- point-mass (Riesz-from-above) counterexample ------------------------------


def _log_unit_gradient_norm(n: int, s: float) -> float:
    """log ((sqrt(n)/2)^s + n 2^{-s})^{1/s}, the gradient norm of 2^{n/s} f, at any finite s."""
    big, small = math.log(n / 4.0) / 2.0, -math.log(2.0)  # sqrt(n)/2 once, 1/2 at n points
    top = _log_top((big, small), s)
    return top + float(np.logaddexp(s * (big - top), math.log(n) + s * (small - top))) / s


def _log_top(log_x, e: float) -> float:
    """max log x where e log x would overflow (s or p near 1e308), else 0.0.

    Taken out before the power e and added back after, it leaves every term e (log x - top)
    <= 0, so a huge e reads the sup norm; in range it is 0.0 and no bit changes (always
    taking it out moves the point-mass rhs by 3e-12 at n = 2^16, by reassociation).
    """
    return float(np.max(log_x)) if e * float(np.max(np.abs(log_x))) > 1e307 else 0.0


@functools.lru_cache(maxsize=1)
def _log_t_rule() -> tuple:
    """Gauss-Legendre in u = log t on [-75, log T], 12 panels of 32 for every n, narrow where the
    integrands peak (t from 2/n to log n): log weights of t^{-3/2} dt / (2 sqrt(pi)),
    log((1 +- e^{-t}) / 2) and the log mass past T."""
    T = 40.0 + math.log(MAX_RADIAL_N)  # past T, P_t delta = 2^{-n} to e^{-40} relative
    edges = np.array([-75.0, -32, -18, -12, -8.5, -6, -4, -2.5, -1.25, -0.25, 0.75, 2, math.log(T)])
    x, w = np.polynomial.legendre.leggauss(32)
    half, mid = np.diff(edges)[:, None] / 2.0, (edges[:-1] + edges[1:])[:, None] / 2.0
    u = (mid + half * x).ravel()
    em1 = np.expm1(-np.exp(u))  # e^{-t} - 1
    log_w = np.log(half * w).ravel() - u / 2.0 - math.log(2.0 * math.sqrt(math.pi))
    return log_w, np.log1p(em1 / 2.0), np.log(-em1 / 2.0), -math.log(math.pi * T) / 2.0


def _log_halflap(n: int) -> tuple:
    """log pmf(d) and log |v(d)|, v = L^{1/2} f for the point mass, d = 0..n, by subordination:
    for d >= 1, |v(d)| = (2 sqrt(pi))^{-1} int_0^inf P_t delta(d) t^{-3/2} dt, a positive
    integrand, P_t delta(d) = 2^{-n} (1 + e^{-t})^{n-d} (1 - e^{-t})^d, summed in logs.
    v(0) = E sqrt(K), K ~ Bin(n, 1/2), so mean zero, v(0) = sum_{d>=1} C(n, d) |v(d)|, is a check.
    """
    log_w, plus, minus, log_tail = _log_t_rule()
    base, slope = log_w + n * plus, minus - plus  # at each node the log-integrand is affine in d
    k = np.arange(1, n + 1, dtype=np.float64)
    log_v, rows = np.empty(n), 2 * _BLOCK // log_w.size
    for lo in range(0, n, rows):
        d = k[lo:lo + rows]
        # leave out the nodes that a node best at one end of the block beats by e^60 at both
        # ends, and so at every d between
        ends = base + np.outer(d[[0, -1]], slope)
        best = ends[:, ends.argmax(axis=1)]
        keep = (ends[:, :, None] >= best[:, None, :] - 60.0).any(axis=0).all(axis=1)
        log_v[lo:lo + len(d)] = _logsumexp(d[:, None] * slope[keep] + base[keep])
    log_v = np.logaddexp(log_v, log_tail - n * math.log(2.0))
    log_pmf = _log_binomial_pmf(n, np.arange(n + 1))
    return log_pmf, np.r_[_logsumexp(log_pmf[1:] + 0.5 * np.log(k)), log_v]


def _logsumexp(x: np.ndarray):
    """log sum exp(x) over the last axis, overwriting x."""
    top = np.max(x, axis=-1, keepdims=True)
    np.maximum(np.subtract(x, top, out=x), -700.0, out=x)  # exp below e^{-700} is slow
    return top[..., 0] + np.log(np.sum(np.exp(x, out=x), axis=-1))


def lamberton_ratio(n: int, s: float) -> RatioReport:
    """Gradient norm over || L^{1/2} f ||_{L^s} for 2^{n/s} f, the point mass at unit L^s norm.

    Unscaled, both sides underflow near n = 1600 at s = 1.5.  The ratio grows with n
    in the failure regime 1 < s < 2; other exponents are flagged in the report mode.
    The rhs is within 1e-12 up to n = 8192 and 3e-9 up to 2^16, the worst near s = 1.
    """
    if not (2 <= n <= MAX_RADIAL_N and 1 <= s < math.inf):
        raise ValueError(f"need 2 <= n <= {MAX_RADIAL_N} and a finite s >= 1, got n={n}, s={s}")
    log_pmf, log_v = _log_halflap(n)
    lhs = math.exp(_log_unit_gradient_norm(n, s))
    top = _log_top(log_v, s)
    with np.errstate(over="ignore"):  # e^{-inf} terms: _logsumexp clips them to e^{-700}
        log_sum = float(_logsumexp(log_pmf + s * (log_v - top)))
    rhs = math.exp(top + (log_sum + n * math.log(2.0)) / s)
    regime = "failure-regime" if 1 < s < 2 else "outside-failure-regime"
    return RatioReport(lhs, rhs, _ratio(lhs, rhs), mode=f"radial[{regime}]")


def riesz_above_vector_check(n: int, p: float, s: float) -> RatioReport:
    """Both sides of the lifted Riesz-from-above estimate for the point mass.

    The lift g(eps) = f(eps . ) takes values in L^s of a second cube; group
    invariance makes both inner norms independent of eps, so the two sides
    collapse to scalar binomial sums sharing the lamberton_ratio components (for 2^{n/s} f),

        lhs^p = E_delta [ 2^{-s} (|sum_i delta_i|^s + n) ]^{p/s},
        rhs   = || L^{1/2} f ||_{L^s}.
    """
    if not (math.inf > p >= 2 > s > 1):
        raise ValueError(f"need finite p >= 2 > s > 1, got p={p}, s={s}")
    rhs = lamberton_ratio(n, s).rhs  # checks n before anything is allocated
    k = np.arange(n + 1)
    log_inner = np.log(np.abs(2.0 * k - n) ** s + n) - s * math.log(2.0)
    top = _log_top(log_inner, p / s)
    with np.errstate(over="ignore"):
        log_sum = float(_logsumexp(_log_binomial_pmf(n, k) + p / s * (log_inner - top)))
    lhs = math.exp(top / s + log_sum / p)
    return RatioReport(lhs, rhs, _ratio(lhs, rhs), mode="radial[lifted]")


# -- sharp-constant minimization ----------------------------------------------


class PisierMin(NamedTuple):
    value: float
    argmin: float


def pisier_min_constant(n: int) -> PisierMin:
    """min_{0<r<1} r^{-n} (1+r)/(1-r), at its closed-form minimiser.

    The log-objective is strictly convex on (0,1); stationarity reads
    n r^2 + 2r - n = 0, with root r = n / (sqrt(1+n^2) + 1) (no cancellation).
    The value is exp of the log-objective at r, since the raw objective
    overflows for large n.  It grows *linearly* in n (about 2e n); the
    log n + log log n constant bound is carried by `pisier_constant_bound`
    below, which keeps the semigroup decay factor inside a logarithm where
    the telescoped contraction estimate puts it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    r = n / (math.sqrt(1.0 + n * n) + 1.0)
    return PisierMin(math.exp(-n * math.log(r) + math.log1p(r) - math.log1p(-r)), r)


def pisier_constant_bound(n: int) -> PisierMin:
    """min_{0<r<1} r^{-n} log((1+r)/(1-r)): the actual constant bound.

    Behaves like log n + log log n + O(1); the drift against
    log n + log log n settles near 2 and moves by less than 0.5 across
    n in [10^3, 10^6].  Needs n >= 2 (at n = 1 the infimum sits on the
    boundary r -> 0).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")

    def log_obj(r):
        return -n * math.log(r) + math.log(math.log1p(r) - math.log1p(-r))

    # the log-objective is convex; its derivative has the sign of
    # 2r - n log((1+r)/(1-r)) (1 - r^2), which bisection takes to one ulp
    lo, hi = 0.0, 1.0
    while True:
        r = 0.5 * (lo + hi)
        if r in (lo, hi):
            break
        if n * (math.log1p(r) - math.log1p(-r)) * ((1.0 - r) * (1.0 + r)) > 2.0 * r:
            lo = r
        else:
            hi = r
    return PisierMin(math.exp(log_obj(lo)), lo)
