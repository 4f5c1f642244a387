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

Everything is radial, so all computations run in O(n polylog) or the
O(n log n + W^2) sup-Rademacher reduction (W ~ sqrt(n) sign totals) and
reach n = 2^20 in seconds.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .inequalities import RatioReport, _ratio
from .norms import lp_norm, radial_derivative_profiles, radial_sup_rademacher_moment
from .radial import RadialProfile, binomial_weights, krawtchouk_table
from .rng import stream_generator

MAX_HALFLAP_N = 256  # largest n whose point-mass Krawtchouk sum is verified (2e-6 at s >= 1.5)
MAX_HALFLAP_N_BELOW_1_5 = 64  # the same for 1 <= s < 1.5 (1.2e-8 at s = 1)


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


def talagrand_lhs(n: int) -> float:
    """max_d |v(d) - E v|: the inner sup norm of the recentered lift.

    The two-variable lift F(eps, eta) = f(eps eta) has eps-mean equal to
    E f for every eta, and its recentered sup over eta is the same for
    every eps, so the outer p-average is this single number for all p.
    The mean is the exact binomial expectation, not a lower bound.
    """
    prof = talagrand_profile(n)
    return float(np.max(np.abs(prof.v - prof.mean)))


def talagrand_ratio(n: int, p: float, tail_mass: float = 1e-20) -> RatioReport:
    """Sup-deviation of the lift against its sup-Rademacher moment at p."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    lhs = talagrand_lhs(n)
    rhs = radial_sup_rademacher_moment(talagrand_profile(n), p, tail_mass)
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


def talagrand_sweep(n_list, p: float, tail_mass: float = 1e-20) -> list[RatioReport]:
    return [talagrand_ratio(n, p, tail_mass) for n in n_list]


# -- point-mass (Riesz-from-above) counterexample ------------------------------


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
    return float((2.0 ** (-n) * ((math.sqrt(n) / 2.0) ** s + n * 2.0 ** (-s))) ** (1.0 / s))


def lamberton_halflap_profile(n: int) -> RadialProfile:
    """L^{1/2} f as a radial profile: value(d) = 2^{-n} sum_k sqrt(k) K_k(d).

    The sum runs over the raw Krawtchouk table, whose terms cancel, so it is
    refused with ValueError for n > `MAX_HALFLAP_N`.  Against an exact
    integer-Krawtchouk oracle, the L^s norm of the profile at s >= 1.5 is
    within 2e-6 relative up to n = 256 (at s = 1.5: 1.1e-13 at n = 160,
    1.4e-10 at 200 and 1.6e-6 at 256).  Below s = 1.5 the rounding of the
    mid-weight values weighs more in the norm: at s = 1 the error is 1.2e-8
    at n = 64, 4.2e-6 at 80 and 2.3e-3 at 100, so `lamberton_ratio` refuses
    s < 1.5 past n = `MAX_HALFLAP_N_BELOW_1_5`.
    """
    if n > MAX_HALFLAP_N:
        raise ValueError(f"the point mass's Krawtchouk sum is verified up to "
                         f"n={MAX_HALFLAP_N}, got n={n}")
    K = krawtchouk_table(n)
    w = np.sqrt(np.arange(n + 1, dtype=np.float64)) * 2.0 ** (-n)
    return RadialProfile(n, w @ K)


def lamberton_ratio(n: int, s: float) -> RatioReport:
    """Gradient norm over || L^{1/2} f ||_{L^s} for the point mass.

    The interesting regime is 1 < s < 2, where the ratio grows with n;
    other exponents are computed but flagged in the report mode.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if s < 1.5 and n > MAX_HALFLAP_N_BELOW_1_5:
        raise ValueError(f"below s=1.5 the point mass's Krawtchouk sum is verified up to "
                         f"n={MAX_HALFLAP_N_BELOW_1_5}, got n={n} at s={s}")
    lhs = lamberton_gradient_norm(n, s)
    rhs = lp_norm(lamberton_halflap_profile(n), s)
    regime = "failure-regime" if 1 < s < 2 else "outside-failure-regime"
    return RatioReport(lhs, rhs, _ratio(lhs, rhs), mode=f"radial[{regime}]")


def riesz_above_vector_check(n: int, p: float, s: float) -> RatioReport:
    """Both sides of the lifted Riesz-from-above estimate for the point mass.

    The lift g(eps) = f(eps . ) takes values in L^s of a second cube; group
    invariance makes both inner norms independent of eps, so the two sides
    collapse to scalar binomial sums sharing the lamberton_ratio components:

        lhs^p = E_delta [ 2^{-n-s} (|sum_i delta_i|^s + n) ]^{p/s},
        rhs   = || L^{1/2} f ||_{L^s}.
    """
    if not (p >= 2 > s > 1):
        raise ValueError(f"need p >= 2 > s > 1, got p={p}, s={s}")
    k = np.arange(n + 1)
    pmf = binomial_weights(n)
    total = np.abs(2.0 * k - n)
    inner = 2.0 ** (-n - s) * (total**s + n)
    lhs = float((pmf @ inner ** (p / s)) ** (1.0 / p))
    rhs = lamberton_ratio(n, s).rhs
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
