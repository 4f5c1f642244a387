import math

import mpmath
import numpy as np
import pytest

import cubeineq.counterexamples as cx
from cubeineq.cube import BiCubeFunction, discrete_derivative, gradient
from cubeineq.norms import MixedNormSpec, lp_norm, rademacher_avg
from cubeineq.radial import binomial_weights
from conftest import brute_sup_rademacher_moment, exact_krawtchouk


@pytest.mark.parametrize("report", [lambda n: cx.riesz_above_vector_check(n, 2.0, 1.5),
                                    lambda n: cx.lamberton_ratio(n, 1.5)])
def test_the_point_mass_past_the_verified_range_is_refused(report):
    # the raw Krawtchouk sum gave a wrong ratio at n = 512 and a nan rhs at 1024
    report(cx.MAX_HALFLAP_N)
    for n in (cx.MAX_HALFLAP_N + 1, 512, 1024):
        with pytest.raises(ValueError, match=f"verified up to n=256, got n={n}"):
            report(n)


def _exact_halflap_norm(n: int, s: float) -> mpmath.mpf:
    """|| L^{1/2} f ||_{L^s} of the point mass from integer Krawtchouk values."""
    K = exact_krawtchouk(n)
    with mpmath.workdps(120):  # integer terms up to 6e75 at n = 256, cancelling
        roots = [mpmath.sqrt(k) for k in range(n + 1)]
        sums = [mpmath.fsum(roots[k] * K[k][d] for k in range(n + 1)) for d in range(n + 1)]
        power_mean = mpmath.fsum(mpmath.binomial(n, d) * abs(v) ** s for d, v in enumerate(sums))
        return (power_mean / mpmath.mpf(2) ** (n + n * s)) ** (1 / mpmath.mpf(s))


@pytest.mark.parametrize("n, tol", [(200, 1e-9), (256, 2e-6)])
def test_halflap_norm_meets_its_declared_accuracy(n, tol):
    exact = _exact_halflap_norm(n, 1.5)
    got = lp_norm(cx.lamberton_halflap_profile(n), 1.5)
    assert abs(got - exact) / exact < tol


def test_profile_vanishes_inside_root_n_ball():
    n = 100
    prof = cx.talagrand_profile(n)
    assert np.all(prof.v[: int(math.sqrt(n)) + 1] == 0.0)
    assert prof.v[0] == 0.0
    assert abs(prof.v[n] - 0.5 * math.log(n)) < 1e-14


def test_mean_grows_logarithmically():
    for n in (16, 64, 256, 1024):
        mean = cx.talagrand_profile(n).mean
        assert mean >= 0.2 * math.log(n)


def test_mass_beyond_n_over_three():
    # the fixed-portion argument behind the mean lower bound
    for n in (64, 256, 1024):
        pmf = binomial_weights(n)
        d = np.arange(n + 1)
        mass = pmf[d >= n / 3].sum()
        assert mass > 0.9
        floor = mass * math.log((n / 3) / math.sqrt(n))
        assert cx.talagrand_profile(n).mean >= floor - 1e-12


def test_small_n_dense_cross_check(rng):
    # radial lhs/rhs against direct enumeration of the two-variable lift
    n, p = 8, 2.0
    prof = cx.talagrand_profile(n)
    f = prof.to_cube_function()
    rep = cx.talagrand_ratio(n, p)

    F = BiCubeFunction.from_translate(f)
    recentered = F.values - F.values.mean(axis=0, keepdims=True)
    inner_sup = np.abs(recentered).max(axis=1)
    lhs_dense = float(((inner_sup**p).mean()) ** (1 / p))
    assert abs(rep.lhs - lhs_dense) < 1e-10

    rhs_dense = brute_sup_rademacher_moment(f, p)
    assert abs(rep.rhs - rhs_dense) < 1e-10

    # the same right side through the generic machinery: operands are the
    # coordinate derivatives of the lift with inner sup norm over eta
    ops = [F.map_eps(lambda h, i=i: discrete_derivative(h, i)) for i in range(n)]
    spec = MixedNormSpec.cube(p, np.inf)
    generic = rademacher_avg(ops, p, spec).value
    assert abs(rep.rhs - generic) < 1e-10


def test_pointwise_gradient_bound_holds():
    excess = cx.talagrand_pointwise_bound(2**10, 100_000, seed=0)
    assert excess <= 0.0


def test_growth_separation_moderate_range():
    ns = [2**k for k in range(6, 13)]
    reports = cx.talagrand_sweep(ns, 2.0)
    lhs_curve = cx.GrowthCurve.fit(ns, [r.lhs for r in reports])
    # fixture floor 0.3 calibrated from the full-grid oracle run
    # (n = 2^8..2^20, 2026-08-10): fitted slope 0.5002, residual/range 0.02%
    assert lhs_curve.slope > 0.3
    ratio_curve = cx.GrowthCurve.fit(ns, [r.ratio for r in reports])
    assert ratio_curve.slope > 0.0
    rhs = np.array([r.rhs for r in reports])
    assert rhs.max() - rhs.min() < 0.2 * rhs.mean()


def test_growth_curve_validation():
    with pytest.raises(ValueError):
        cx.GrowthCurve.fit([4, 4, 8], [1.0, 2.0, 3.0])
    for ns in ([], [8]):  # a line through fewer than two points is arbitrary
        with pytest.raises(ValueError, match="at least two n"):
            cx.GrowthCurve.fit(ns, [1.0] * len(ns))
    curve = cx.GrowthCurve.fit([4, 8, 16], [1.0, 2.0, 3.0])
    assert set(curve.fit_record()) == {"slope", "intercept", "residual"}


def test_lamberton_closed_form_vs_dense():
    n, s = 10, 1.5
    f = cx.lamberton_point_mass(n).to_cube_function()
    grads = np.stack([g.values() for g in gradient(f)])
    dense = float((((np.sqrt((grads**2).sum(0))) ** s).mean()) ** (1 / s))
    assert abs(cx.lamberton_gradient_norm(n, s) - dense) < 1e-10


def test_lamberton_small_n_full_enumeration():
    n, s = 2, 1.5
    rep = cx.lamberton_ratio(n, s)
    # direct: f = 1_{eps=1} on 4 points, L^{1/2} f has coefficients sqrt(|A|)/4
    from cubeineq.cube import CubeFunction, frac_power
    from cubeineq.norms import lp_norm

    f = CubeFunction.from_values([1.0, 0.0, 0.0, 0.0])
    halflap = frac_power(f, -0.5)
    assert abs(rep.rhs - lp_norm(halflap, s)) < 1e-12
    grads = np.stack([g.values() for g in gradient(f)])
    dense_lhs = float((((np.sqrt((grads**2).sum(0))) ** s).mean()) ** (1 / s))
    assert abs(rep.lhs - dense_lhs) < 1e-12


def test_lamberton_ratio_strictly_increasing():
    ratios = [cx.lamberton_ratio(n, 1.5).ratio for n in range(6, 21)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_lamberton_regime_flag():
    assert "outside" in cx.lamberton_ratio(6, 2.5).mode
    assert cx.lamberton_ratio(6, 1.5).mode == "radial[failure-regime]"


def test_riesz_above_inner_norm_constant_in_eps(rng):
    # enumerate || sum_i delta_i D_i g(eps) ||_{L^s(eta)} at every eps directly
    n, s = 6, 1.5
    f = cx.lamberton_point_mass(n).to_cube_function()
    F = BiCubeFunction.from_translate(f)
    ops = [F.map_eps(lambda h, i=i: discrete_derivative(h, i)) for i in range(n)]
    delta = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    total = np.zeros_like(F.values)
    for d_i, op in zip(delta, ops):
        total += d_i * op.values
    inner = ((np.abs(total) ** s).mean(axis=1)) ** (1 / s)
    assert inner.std() < 1e-14 * max(1.0, inner.mean())


def test_riesz_above_shares_lamberton_components():
    n = 8
    rep = cx.riesz_above_vector_check(n, 3.0, 1.5)
    lam = cx.lamberton_ratio(n, 1.5)
    assert abs(rep.rhs - lam.rhs) < 1e-14


def test_riesz_above_lhs_matches_direct_delta_enumeration():
    n, p, s = 6, 3.0, 1.5
    rep = cx.riesz_above_vector_check(n, p, s)
    totals = []
    for mask in range(1 << n):
        ssum = abs(2 * bin(mask).count("1") - n)
        inner = 2.0 ** (-n - s) * (ssum**s + n)
        totals.append(inner ** (p / s))
    assert abs(rep.lhs - (np.mean(totals)) ** (1 / p)) < 1e-14


def test_riesz_above_growth():
    grow = [cx.riesz_above_vector_check(n, 3.0, 1.5).ratio for n in (6, 10, 14, 18)]
    assert all(b > a for a, b in zip(grow, grow[1:]))


def test_riesz_above_regime_validation():
    with pytest.raises(ValueError):
        cx.riesz_above_vector_check(6, 1.5, 1.5)
    with pytest.raises(ValueError):
        cx.riesz_above_vector_check(6, 3.0, 2.5)


def test_pisier_min_closed_form_at_one():
    pm = cx.pisier_min_constant(1)
    assert abs(pm.value - (3.0 + 2.0 * math.sqrt(2.0))) < 1e-9
    assert abs(pm.argmin - (math.sqrt(2.0) - 1.0)) < 1e-6


def test_pisier_min_stationarity_closed_form():
    # n r^2 + 2 r - n = 0  =>  r* = (sqrt(1+n^2) - 1)/n
    for n in (2, 7, 50, 1000):
        pm = cx.pisier_min_constant(n)
        r_star = (math.sqrt(1.0 + n * n) - 1.0) / n
        assert abs(pm.argmin - r_star) < 1e-7
        direct = r_star ** (-n) * (1 + r_star) / (1 - r_star)
        assert abs(pm.value - direct) < 1e-9 * direct


def test_pisier_min_dominates_probes():
    for n in (3, 20, 400):
        pm = cx.pisier_min_constant(n)
        for r in (0.3, 0.7, 1.0 - 1.0 / n if n > 1 else 0.5, 0.999):
            probe = math.exp(-n * math.log(r) + math.log1p(r) - math.log1p(-r))
            assert pm.value <= probe + 1e-9 * probe


def test_pisier_unimodality_on_grid():
    # discrete differences of log g change sign exactly once
    for n in (1, 10, 100):
        r = np.linspace(1e-6, 1 - 1e-6, 10_000)
        logg = -n * np.log(r) + np.log1p(r) - np.log1p(-r)
        signs = np.sign(np.diff(logg))
        changes = np.count_nonzero(np.diff(signs) != 0)
        assert changes == 1


def test_pisier_constant_bound_drift():
    # the log-corrected functional carries the log n + log log n growth
    drifts = []
    for n in (10**3, 10**4, 10**5, 10**6):
        v = cx.pisier_constant_bound(n).value
        drifts.append(v - math.log(n) - math.log(math.log(n)))
    assert max(drifts) - min(drifts) < 0.5


def _pisier_bound_oracle(n):
    """Value and argmin of min r^{-n} log((1+r)/(1-r)) by 50-digit bisection."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(200):
            r = (lo + hi) / 2
            if n * mpmath.log((1 + r) / (1 - r)) * (1 - r * r) > 2 * r:
                lo = r
            else:
                hi = r
        value = lo ** (-n) * mpmath.log((1 + lo) / (1 - lo))
        return float(value), float(lo)


@pytest.mark.parametrize("n", [2, 10, 10**3, 10**5, 10**6])
def test_pisier_constant_bound_matches_oracle(n):
    value, argmin = _pisier_bound_oracle(n)
    got = cx.pisier_constant_bound(n)
    assert got.value == pytest.approx(value, rel=1e-13, abs=0)
    assert got.argmin == pytest.approx(argmin, rel=1e-13, abs=0)


def test_pisier_displayed_functional_grows_linearly():
    # the un-logged display grows like ~2e n, not log n: the reason the
    # drift check above runs on the corrected functional
    v1 = cx.pisier_min_constant(1000).value
    v2 = cx.pisier_min_constant(2000).value
    assert v2 / v1 == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("n", [1, 10**5, 10**6])
def test_pisier_min_meets_closed_form_at_large_n(n):
    # a bounded scalar search missed the minimum here by 6e-8 and 1.6e-6 relative
    r = (math.sqrt(1.0 + n * n) - 1.0) / n
    closed = math.exp(-n * math.log(r) + math.log1p(r) - math.log1p(-r))
    pm = cx.pisier_min_constant(n)
    assert pm.value == pytest.approx(closed, rel=1e-10)
    assert pm.argmin == pytest.approx(r, rel=1e-12)
