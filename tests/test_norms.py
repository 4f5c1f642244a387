import math
import re
import tracemalloc
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubeineq.cube import (
    BiCubeFunction,
    CubeFunction,
    VectorCubeFunction,
    _dot,
    character,
    discrete_derivative,
    frac_power,
    random_function,
    walsh_transform,
)
from cubeineq.norms import (
    OPERANDS,
    MixedNormSpec,
    RademacherConfig,
    inner_kind,
    lp_norm,
    mixed_norm,
    rademacher_avg,
    radial_derivative_profiles,
    radial_sup_rademacher_moment,
    sign_total_window,
    sup_gradient_sum_by_sign_total,
)
from cubeineq.counterexamples import lamberton_point_mass, talagrand_profile
from cubeineq.radial import RadialProfile, binomial_weights
from cubeineq import norms
from cubeineq.norms import _BLOCK, _envelope_weights, _pattern_powers, _pow, _upper_chain
from conftest import (brute_sup_rademacher_moment, brute_upper_chain, pow_reference,
                      rademacher_reference, same_bytes, windowed_sup_reference)


def test_dictator_has_unit_norm_for_every_p():
    f = character(5, 0b1)
    for p in (1.0, 1.7, 2.0, 3.0, np.inf):
        assert abs(lp_norm(f, p) - 1.0) < 1e-12


def test_radial_agrees_with_dense(rng):
    n = 12
    prof = RadialProfile(n, rng.standard_normal(n + 1))
    assert abs(lp_norm(prof, 3.0) - lp_norm(prof.to_cube_function(), 3.0)) < 1e-10


def test_norm_monotone_in_p(rng):
    f = random_function(6, rng)
    ps = [1.0, 1.5, 2.0, 3.0, 5.0, np.inf]
    vals = [lp_norm(f, p) for p in ps]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_rejects_p_below_one(rng):
    with pytest.raises(ValueError):
        lp_norm(random_function(3, rng), 0.5)


def test_single_component_reduces_to_lp(rng):
    f = random_function(5, rng)
    F = VectorCubeFunction([f])
    for q in (1.0, 2.0, np.inf):
        assert abs(mixed_norm(F, MixedNormSpec.lq(3.0, q)) - lp_norm(f, 3.0)) < 1e-12


def test_translate_lift_sup_is_constant(rng):
    # F(eps, eta) = f(eps eta): the inner sup over eta equals max|f| at every eps
    f = random_function(4, rng)
    F = BiCubeFunction.from_translate(f)
    inner = np.abs(F.values).max(axis=1)
    assert np.max(np.abs(inner - np.abs(f.values()).max())) < 1e-12
    spec = MixedNormSpec.cube(3.0, np.inf)
    assert abs(mixed_norm(F, spec) - np.abs(f.values()).max()) < 1e-12


def test_mixed_norm_against_double_enumeration(rng):
    F = BiCubeFunction(4, 3, rng.standard_normal((16, 8)))
    p, q = 3.0, 1.5
    inner = ((np.abs(F.values) ** q).mean(axis=1)) ** (1 / q)
    brute = float(((inner**p).mean()) ** (1 / p))
    assert abs(mixed_norm(F, MixedNormSpec.cube(p, q)) - brute) < 1e-12


def test_mixed_norm_shape_mismatch(rng):
    F = VectorCubeFunction([random_function(3, rng)])
    with pytest.raises(ValueError):
        mixed_norm(F, MixedNormSpec.cube(2.0, 2.0))


@pytest.mark.parametrize("kind", list(OPERANDS))
def test_inner_kind_inverts_the_operand_table(kind):
    coeffs = np.arange(8.0) if kind == "scalar" else np.arange(16.0).reshape(2, 8)
    g = OPERANDS[kind].from_coeffs(3, coeffs)
    assert inner_kind(g) == kind and g.n == 3
    assert g.coeffs is coeffs  # the coefficients are taken as they are, not transformed
    # the one shape check of the operand base refuses every other layout
    cls = OPERANDS[kind]
    bad = [coeffs[..., :4], coeffs[None]]  # a wrong trailing length; an extra row axis
    if kind != "scalar":
        bad += [coeffs[0], coeffs[:0]]  # a missing row axis; zero rows
    if kind == "Lq":
        bad.append(np.zeros((3, 8)))  # a row count that is not a power of two
    elif kind == "lq":
        assert cls.from_coeffs(3, np.zeros((3, 8))).R == 3  # any R >= 1
    for c in bad:
        with pytest.raises(ValueError, match="coefficients for n=3"):
            cls.from_coeffs(3, c)
    for n in (0, 25):
        with pytest.raises(ValueError, match="dense cube dimension"):
            cls.from_coeffs(n, coeffs)


@pytest.mark.parametrize("inner, q, message", [
    ("scalar", 2.0, "the scalar space has no inner norm to read q=2.0"),
    ("lq", None, "inner norm lq needs an exponent q >= 1, got None"),
    ("Lq", 0.5, "inner norm Lq needs an exponent q >= 1, got 0.5"),
    ("Lq", float("nan"), "inner norm Lq needs an exponent q >= 1, got nan"),
    ("lp", 2.0, "unknown inner norm kind 'lp'; value spaces: scalar, lq, Lq"),
])
def test_spec_takes_q_exactly_when_its_inner_norm_reads_it(inner, q, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MixedNormSpec(3.0, inner, q)


def test_scalar_mixed_norm_allocates_no_more_than_lp_norm(rng):
    # the one transform's copy of the coefficients is the values, the only 2^n array
    f = random_function(18, rng)
    peaks = []
    for op in (lambda: lp_norm(f, 3.0), lambda: mixed_norm(f, MixedNormSpec.scalar(3.0))):
        op()  # warm any first-call caches
        tracemalloc.start()
        try:
            op()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] < 1.5 * f.coeffs.nbytes


def test_scalar_mixed_norm_is_lp_norm(rng):
    f = random_function(4, rng)
    operands = (f, VectorCubeFunction([f]), BiCubeFunction.from_translate(f), [f])
    assert [inner_kind(g) for g in operands] == ["scalar", "lq", "Lq", None]
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        assert mixed_norm(f, MixedNormSpec.scalar(p)) == lp_norm(f, p)


def test_khintchine_p2_identity():
    # scalars a, b: E|delta_1 a + delta_2 b|^2 = a^2 + b^2
    a, b = 1.3, -0.4
    consts = [CubeFunction(1, [a, 0.0]), CubeFunction(1, [b, 0.0])]
    out = rademacher_avg(consts, 2.0)
    assert abs(out.value - np.hypot(a, b)) < 1e-12


def test_rademacher_of_derivatives_is_halfpower(rng):
    f = random_function(6, rng, mean_zero=True)
    ops = [discrete_derivative(f, i) for i in range(6)]
    out = rademacher_avg(ops, 2.0)
    assert abs(out.value - lp_norm(frac_power(f, -0.5), 2.0)) < 1e-12


def test_monte_carlo_within_four_stderr(rng):
    ops = [random_function(4, rng) for _ in range(10)]
    exact = rademacher_avg(ops, 3.0).value
    mc = rademacher_avg(ops, 3.0, cfg=RademacherConfig("monte-carlo", samples=4000, seed=2))
    assert mc.stderr > 0
    assert abs(mc.value - exact) < 4 * mc.stderr


def test_exact_mode_cap():
    ops = [CubeFunction(1, [1.0, 0.0]) for _ in range(21)]
    with pytest.raises(ValueError):
        rademacher_avg(ops, 2.0)


def test_kahane_contraction(rng):
    ops = [random_function(4, rng) for _ in range(6)]
    for p in (1.0, 2.0, 3.0):
        base = rademacher_avg(ops, p).value
        lam = rng.uniform(-1.0, 1.0, size=6)
        scaled = [g * l for g, l in zip(ops, lam)]
        assert rademacher_avg(scaled, p).value <= base + 1e-12


def test_khintchine_envelopes(rng):
    ops = [random_function(3, rng) for _ in range(8)]
    m1 = rademacher_avg(ops, 1.0).value
    m2 = rademacher_avg(ops, 2.0).value
    m4 = rademacher_avg(ops, 4.0).value
    assert m1 <= m2 <= m4
    assert m1 >= m2 / np.sqrt(2) - 1e-12  # classical lower envelope
    assert m4 <= 3**0.25 * m2 + 1e-12  # fourth-moment envelope


def test_vector_rademacher_matches_brute(rng):
    ops = [VectorCubeFunction([random_function(3, rng) for _ in range(2)]) for _ in range(4)]
    spec = MixedNormSpec.lq(3.0, 2.0)
    out = rademacher_avg(ops, 3.0, spec).value
    vals = np.stack([o.values() for o in ops])  # (4, 2, 8)
    acc = []
    for mask in range(16):
        signs = 1 - 2.0 * ((mask >> np.arange(4)) & 1)
        s = np.tensordot(signs, vals, axes=(0, 0))
        inner = np.sqrt((s**2).sum(axis=0))
        acc.append(((inner**3.0).mean()) ** (1 / 3.0))
    brute = (np.mean(np.array(acc) ** 3.0)) ** (1 / 3.0)
    assert abs(out - brute) < 1e-12


def test_sup_moment_constant_profile_vanishes():
    prof = RadialProfile(40, np.full(41, 7.0))
    assert radial_sup_rademacher_moment(prof, 2.0) == 0.0


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_sup_moment_matches_brute_force(rng, n):
    prof = RadialProfile(n, rng.standard_normal(n + 1))
    f = prof.to_cube_function()
    for p in (1.0, 2.0, 3.0, np.inf):
        fast = radial_sup_rademacher_moment(prof, p)
        brute = brute_sup_rademacher_moment(f, p)
        assert abs(fast - brute) < 1e-10, (n, p)


def test_sign_total_window_is_exact_for_small_n():
    sv = sign_total_window(16)
    assert sv[0] == -16 and sv[-1] == 16  # full range: computation is exact
    assert all(s % 2 == 0 for s in sv)
    sv_odd = sign_total_window(15)
    assert all(s % 2 == 1 for s in sv_odd)  # parity matches n


def assert_sup_kernel_matches_reference(prof):
    svals = sign_total_window(prof.n).astype(np.float64)
    alpha, beta = radial_derivative_profiles(prof)
    expected = windowed_sup_reference(alpha, beta, prof.n, svals)
    assert np.array_equal(sup_gradient_sum_by_sign_total(prof, svals), expected), prof.n


@pytest.mark.parametrize("k", range(8, 15))
def test_sup_kernel_bitwise_on_talagrand_profile(k):
    assert_sup_kernel_matches_reference(talagrand_profile(1 << k))


@pytest.mark.parametrize("n", list(range(4, 41)) + [100, 257, 1000, 4096])
def test_sup_kernel_bitwise_on_random_profiles(rng, n):
    for _ in range(3):
        assert_sup_kernel_matches_reference(RadialProfile(n, rng.standard_normal(n + 1)))


def kept_off_band(prof):
    """How many off-band weights the envelope pick keeps for the full window."""
    smax = float(sign_total_window(prof.n)[-1])
    return _envelope_weights(*radial_derivative_profiles(prof), prof.n, smax).size


@pytest.mark.parametrize("n", [200, 1000, 1 << 16])
def test_sup_kernel_bitwise_on_degenerate_hulls(n):
    # constant: every off-band point is (0, 0); linear: all share one slope,
    # and v = d puts the off-band points exactly on one line, which the
    # monotone chain reduces to its two ends
    d = np.arange(n + 1, dtype=np.float64)
    if n < 1 << 16:  # at 2^16, see test_sup_kernel_on_a_constant_profile_evaluates_o_of_w_pairs
        assert_sup_kernel_matches_reference(RadialProfile(n, np.full(n + 1, 3.0)))
    for v in (d, 0.7 * d, 2.0 - 1.3 * d):
        assert_sup_kernel_matches_reference(RadialProfile(n, v))
        assert kept_off_band(RadialProfile(n, v)) <= 4


def counted_pairs(monkeypatch):
    """A list that collects the (s, d) pairs each kernel evaluation computes."""
    pairs = []
    evaluate = norms._pair_values

    def counting(s, cols, *rest):
        pairs.append(s.size * cols.shape[1])
        return evaluate(s, cols, *rest)

    monkeypatch.setattr(norms, "_pair_values", counting)
    return pairs


def test_sup_kernel_on_a_constant_profile_evaluates_o_of_w_pairs(monkeypatch):
    # every weight's lines and bounds are 0; the envelope kept all 63061 off-band
    # weights, and all 2477 x 65537 pairs were evaluated (0.9 s)
    n = 1 << 16
    prof = RadialProfile(n, np.full(n + 1, 3.0))
    assert kept_off_band(prof) == 0
    pairs = counted_pairs(monkeypatch)
    svals = sign_total_window(n)
    assert np.array_equal(sup_gradient_sum_by_sign_total(prof, svals), np.zeros(svals.size))
    assert sum(pairs) <= 10 * svals.size  # the seed weights' rows only
    assert radial_sup_rademacher_moment(prof, 2.0) == 0.0


def test_sup_kernel_prunes_the_talagrand_band(monkeypatch):
    # about 6.1e6 band pairs at n = 2^16; the bounds leave under 30 per sign total
    n = 1 << 16
    pairs = counted_pairs(monkeypatch)
    svals = sign_total_window(n)
    sup_gradient_sum_by_sign_total(talagrand_profile(n), svals)
    assert sum(pairs) < 30 * svals.size


def _sup_kernel_profiles(n):
    rng = np.random.default_rng(n)
    d = np.arange(n + 1, dtype=np.float64)
    return {"normal": rng.standard_normal(n + 1), "walk": np.cumsum(rng.standard_normal(n + 1)),
            "linear": n - 2.0 * d, "abs": np.abs(n - 2.0 * d), "quadratic": (d - n / 3.0) ** 2,
            "constant": np.full(n + 1, -2.5), "talagrand": talagrand_profile(n).v}


@pytest.mark.parametrize("kind", ["normal", "walk", "linear", "abs", "quadratic", "constant",
                                  "talagrand"])
@pytest.mark.parametrize("n", [7, 64, 101, 200, 1023, 1024, 4097])
def test_sup_kernel_bitwise_on_every_profile_kind(kind, n):
    assert_sup_kernel_matches_reference(RadialProfile(n, _sup_kernel_profiles(n)[kind]))


@pytest.mark.parametrize("k", range(8, 15))
def test_sup_kernel_bitwise_on_odd_talagrand_profiles(k):
    assert_sup_kernel_matches_reference(talagrand_profile((1 << k) + 1))


@pytest.mark.parametrize("kind", ["normal", "walk", "linear", "quadratic", "talagrand"])
@pytest.mark.parametrize("n", [200, 1001])
def test_sup_kernel_bitwise_on_one_sided_and_single_totals(kind, n):
    prof = RadialProfile(n, _sup_kernel_profiles(n)[kind])
    alpha, beta = radial_derivative_profiles(prof)
    window = sign_total_window(n).astype(np.float64)
    for svals in (window[window < 0], window[-3:], window[window.size // 2:][:1], window[::-7],
                  np.array([float(n)]), np.array([-float(n), float(n - 2)])):
        expected = windowed_sup_reference(alpha, beta, n, svals)
        assert np.array_equal(sup_gradient_sum_by_sign_total(prof, svals), expected), svals
    if n % 2 == 0:
        assert sup_gradient_sum_by_sign_total(prof, [0.0])[0] == windowed_sup_reference(
            alpha, beta, n, np.zeros(1))[0]


_small_profiles = st.integers(1, 64).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1),
    st.sampled_from([1.0, 0.1, 1e-3, 3.7, 2.0**-30]),
    st.one_of(st.lists(st.integers(0, n), min_size=1, max_size=24),
              st.tuples(st.integers(0, n), st.integers(0, n))
              .map(lambda ends: list(range(min(ends), max(ends) + 1))))))


@settings(max_examples=300, deadline=None)
@given(case=_small_profiles)
def test_sup_kernel_bitwise_on_small_profiles_and_sub_windows(case):
    # few-valued profiles tie often, and a sub-window is any set of sign totals
    n, levels, scale, ks = case
    prof = RadialProfile(n, np.array(levels, dtype=np.float64) * scale)
    svals = 2.0 * np.array(ks, dtype=np.float64) - n
    expected = windowed_sup_reference(*radial_derivative_profiles(prof), n, svals)
    assert np.array_equal(sup_gradient_sum_by_sign_total(prof, svals), expected)


@pytest.mark.parametrize("n", [9, 300, 4096])
def test_sup_kernel_values_are_even_in_the_sign_total(rng, n):
    prof = RadialProfile(n, np.cumsum(rng.standard_normal(n + 1)))
    alpha, beta = radial_derivative_profiles(prof)
    s = np.arange(n % 2, n + 1, 2, dtype=np.float64)
    ref = windowed_sup_reference(alpha, beta, n, s)
    assert np.array_equal(windowed_sup_reference(alpha, beta, n, -s), ref)
    assert np.array_equal(sup_gradient_sum_by_sign_total(prof, -s), ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sup_kernel_refuses_a_non_finite_profile(bad):
    # a nan profile returned an all-nan row with no warning
    v = np.arange(33, dtype=np.float64)
    v[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sup_gradient_sum_by_sign_total(RadialProfile(32, v), np.array([0.0, 2.0]))


@pytest.mark.parametrize("svals", [[np.nan, 2.0], [np.inf], [1.0], [2.5], [0.0, 34.0], [-34.0],
                                   [1e-300]])
def test_sup_kernel_refuses_what_is_not_a_sign_total(svals):
    # [nan, 2] returned [nan, 0.5]; an odd total at even n has no sign pattern
    prof = RadialProfile(32, np.arange(33, dtype=np.float64) ** 0.5)
    with pytest.raises(ValueError, match="sign totals"):
        sup_gradient_sum_by_sign_total(prof, np.array(svals))


def _descending(steps):
    """Points by ascending x with y descending, so that all of them lie on the
    Pareto front the chain walks; a zero step repeats an x or a y."""
    return [(sum(dx for dx, _ in steps[:i + 1]), 60 - sum(dy for _, dy in steps[:i + 1]))
            for i in range(len(steps))]


# small integer points: duplicates, equal x and equal y are common; then
# all-collinear sets of every slope sign; then whole fronts
_hull_points = st.one_of(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=30),
    st.builds(lambda ks, m, c: [(k, c + m * k) for k in ks],
              st.lists(st.integers(0, 8), min_size=1, max_size=12),
              st.integers(-3, 3), st.integers(0, 30)),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=20)
    .map(_descending))


@settings(max_examples=300, deadline=None)
@given(points=_hull_points)
@example(points=[(2, 5)])
@example(points=[(2, 5), (2, 5)])
@example(points=[(1, 5), (3, 5)])
@example(points=[(3, 1), (3, 4)])
@example(points=[(0, 4), (1, 3), (2, 2), (3, 1)])
@example(points=[(0, 6), (2, 4), (6, 3)])
def test_upper_chain_matches_brute_force_hull(points):
    x, y = (np.array(c, dtype=np.float64) for c in zip(*points))
    chain = _upper_chain(x, y)
    assert np.all(np.diff(x[chain]) > 0)
    assert list(zip(x[chain].tolist(), y[chain].tolist())) == brute_upper_chain(points)


@pytest.mark.parametrize("n", range(96, 111))
def test_sup_kernel_bitwise_just_past_the_band(rng, n):
    # the window stops covering every weight here: only a few lie off the band
    # (two up to n = 99, too few for a hull), and the point mass's sup is at d = 0
    assert sign_total_window(n)[-1] < n
    for v in (rng.standard_normal(n + 1), rng.integers(0, 3, n + 1).astype(np.float64)):
        assert_sup_kernel_matches_reference(RadialProfile(n, v))
    assert_sup_kernel_matches_reference(lamberton_point_mass(n))


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("shift", [600, -600])
def test_sup_moment_scales_exactly_by_powers_of_two(p, shift):
    # sups**p leaves the float64 range at 2^{+-600}: inf or 0.0 without a rescale
    prof = talagrand_profile(4096)
    base = radial_sup_rademacher_moment(prof, p)
    moved = radial_sup_rademacher_moment(RadialProfile(prof.n, np.ldexp(prof.v, shift)), p)
    assert 0.0 < base < np.inf
    assert moved == np.ldexp(base, shift)


def test_sup_moment_refuses_non_finite_profile():
    v = np.arange(33, dtype=np.float64)
    v[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        radial_sup_rademacher_moment(RadialProfile(32, v), 2.0)


def rademacher_operands(rng, inner, k):
    """k random operands of each value space, with the matching inner exponents."""
    if inner == "scalar":
        return [random_function(4, rng) for _ in range(k)]
    if inner == "lq":
        return [VectorCubeFunction([random_function(3, rng) for _ in range(3)]) for _ in range(k)]
    return [BiCubeFunction(3, 2, rng.standard_normal((8, 4))) for _ in range(k)]


def rademacher_specs(p):
    yield MixedNormSpec.scalar(p)
    for q in (1.0, 2.0, 3.0, np.inf):
        yield MixedNormSpec.lq(p, q)
        yield MixedNormSpec.cube(p, q)


@pytest.mark.parametrize("spec, shape", [(MixedNormSpec.scalar(3.0), (16, 2048)),
                                         (MixedNormSpec.lq(3.0, 3.0), (16, 2, 1024)),
                                         (MixedNormSpec.cube(3.0, 3.0), (16, 64, 32))])
def test_pattern_powers_square_into_scratch(rng, spec, shape):
    # the cube's squares go to the scratch block: the same bits, and no
    # block-sized temporary, which glibc would map and fault in for each block
    block = rng.standard_normal(shape)
    expected = _pattern_powers(block.copy(), spec)
    scratch = np.empty_like(block)
    tracemalloc.start()
    try:
        got = _pattern_powers(block, spec, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < block.nbytes


@pytest.mark.parametrize("e", [1, 3])
@pytest.mark.parametrize("inner, shape", [
    ("scalar", (3, _BLOCK + 17)), ("scalar", (64, 1024)), ("scalar", (5,)),
    ("lq", (2, 3, _BLOCK // 2 + 5)), ("lq", (40, 2, 8)),
    ("Lq", (2, 64, 1024)), ("Lq", (40, 4, 8)),
])
def test_fused_power_sums_match_the_powers(rng, e, inner, shape):
    # at integer p = q (or no q) each leading index is one fused row sum; rows
    # wider than _BLOCK add their pieces' sums in order, and scratch moves no bit
    spec = MixedNormSpec(p=float(e), inner=inner, q=None if inner == "scalar" else float(e))
    v = rng.standard_normal(shape)
    powers = np.abs(v) ** e
    expected = {"scalar": lambda: powers.mean(axis=-1),
                "lq": lambda: powers.sum(axis=-2).mean(axis=-1),
                "Lq": lambda: powers.mean(axis=(-2, -1))}[inner]()
    got = _pattern_powers(v.copy(), spec)
    assert np.shape(got) == expected.shape
    assert np.allclose(got, expected, rtol=1e-14, atol=0.0)
    assert same_bytes(np.asarray(_pattern_powers(v.copy(), spec, np.empty_like(v))),
                      np.asarray(got))


@pytest.mark.parametrize("block", [None, 37])
@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, np.inf])
@pytest.mark.parametrize("k", [1, 2, 5, 7])
def test_exact_rademacher_matches_full_enumeration(rng, monkeypatch, block, p, k):
    # half the patterns, p-th powers without roots, and (block = 37) many
    # small row blocks: the value still agrees with the root-then-power path
    if block is not None:
        monkeypatch.setattr(norms, "_BLOCK", block)
    for spec in rademacher_specs(p):
        ops = rademacher_operands(rng, spec.inner, k)
        value, _ = rademacher_reference(ops, p, spec)
        out = rademacher_avg(ops, p, spec)
        assert out.stderr == 0.0
        assert abs(out.value - value) <= 1e-12 * value, (spec, k)


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, np.inf])
def test_monte_carlo_rademacher_matches_reference_on_same_signs(rng, p):
    cfg = RademacherConfig("monte-carlo", samples=5000, seed=11, stream=3)  # two chunks
    for spec in rademacher_specs(p):
        ops = rademacher_operands(rng, spec.inner, 6)
        value, stderr = rademacher_reference(ops, p, spec, cfg)
        out = rademacher_avg(ops, p, spec, cfg)
        assert abs(out.value - value) <= 1e-12 * value, spec
        assert abs(out.stderr - stderr) <= 1e-9 * stderr + 1e-300, spec


@pytest.mark.parametrize("spec", [MixedNormSpec.scalar(3.0), MixedNormSpec.lq(3.0, 2.0),
                                  MixedNormSpec.cube(3.0, 2.0)])
def test_rademacher_avg_makes_one_batched_transform(rng, monkeypatch, spec):
    ops = rademacher_operands(rng, spec.inner, 5)
    # a BiCubeFunction's values as its (delta, eps) rows of eps-point values
    per_operand = np.stack([g.values.T if isinstance(g, BiCubeFunction) else g.values()
                            for g in ops])
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return walsh_transform(a)

    monkeypatch.setattr(norms, "walsh_transform", counted)
    assert np.array_equal(norms._operand_values(ops), per_operand)
    calls.clear()
    rademacher_avg(ops, 3.0, spec)
    assert calls == [per_operand.shape]


@pytest.mark.parametrize("make", [
    lambda rng, n: random_function(n, rng),
    lambda rng, n: VectorCubeFunction([random_function(3, rng)] * n),
    lambda rng, n: BiCubeFunction(3, n, rng.standard_normal((8, 1 << n))),
])
def test_rademacher_avg_refuses_operands_of_different_shapes(rng, make):
    # unchecked, np.stack failed with "all input arrays must have the same shape"
    ops = [make(rng, 1), make(rng, 2)]
    spec = MixedNormSpec(3.0, inner_kind(ops[0]), None if isinstance(ops[0], CubeFunction) else 2.0)
    first, second = (g.coeffs.shape for g in ops)
    with pytest.raises(ValueError, match=re.escape(f"operand shape {second} != {first}")):
        rademacher_avg(ops, 3.0, spec)


@pytest.mark.parametrize("e", [1, 2, 3, 0.5, 1.5, 2.25, 2000.0])
@pytest.mark.parametrize("shape", [(5,), (16, 2048), (3, _BLOCK + 17), (2, 2, _BLOCK)])
def test_pow_overwrites_its_input_with_the_reference_bits(rng, e, shape):
    a = np.abs(rng.standard_normal(shape))
    a.reshape(-1)[::7] = 0.0
    with np.errstate(over="ignore"):
        expected = pow_reference(a.copy(), e)
        for scratch in (None, np.empty_like(a)) if e == 3 else (None,):
            got = a.copy()
            assert _pow(got, e, scratch) is got
            assert same_bytes(got, expected)


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lp_norm_allocates_its_values_and_one_block(rng, n, p):
    # the powers go over the point values in place, a block at a time; the
    # transform that makes the values takes its own block buffer beside them
    f = random_function(n, rng)
    lp_norm(f, p)  # warm any first-call caches
    peaks = []
    for op in (f.values, lambda: lp_norm(f, p)):
        tracemalloc.start()
        try:
            op()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    values_peak, peak = peaks
    assert peak < max(values_peak, (1 << n) * 8 + _BLOCK * 8) + 4096


@pytest.mark.parametrize("value, p", [(1e-155, 2.0), (1e-162, 2.0), (1e-110, 3.0), (1e200, 2.0),
                                      (1e-300, 1.0), (1e300, 1.5), (3.0, 2000.0)])
def test_lp_norm_of_a_constant_outside_the_power_range(value, p):
    # |value|^p underflows or overflows: the values are scaled once by a power of two
    c = np.zeros(8)
    c[0] = -value
    assert lp_norm(CubeFunction(3, c), p) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("value", [1e-162, 1e200])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_radial_lp_norm_of_a_constant_outside_the_power_range(value, p):
    # binomial weights sum to one, so the norm of a constant profile is the constant;
    # unscaled, value^p underflowed to 0.0 or overflowed to inf with a warning
    with np.errstate(all="raise"):
        assert lp_norm(RadialProfile(3, np.full(4, value)), p) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, np.inf])
def test_radial_lp_norm_at_unit_scale_is_the_unscaled_binomial_mean(rng, p):
    prof = RadialProfile(40, rng.standard_normal(41))
    a = np.abs(prof.v)
    raw = a.max() if np.isinf(p) else _dot(binomial_weights(40), a**p) ** (1.0 / p)
    assert lp_norm(prof, p) == float(raw)  # no rescale at unit scale: the same bits


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.5, 2000.0])
@pytest.mark.parametrize("shift", [-1000, -400, 400, 1000])
def test_norms_scale_exactly_by_powers_of_two_at_every_p(rng, p, shift):
    f = random_function(5, rng)
    F = VectorCubeFunction([random_function(5, rng) for _ in range(3)])
    G = BiCubeFunction(3, 2, rng.standard_normal((8, 4)))

    def scaled(g):
        if isinstance(g, CubeFunction):
            return CubeFunction(g.n, np.ldexp(g.coeffs, shift))
        if isinstance(g, VectorCubeFunction):
            return VectorCubeFunction.from_coeffs(g.n, np.ldexp(g.coeffs, shift))
        return BiCubeFunction(g.n_eps, g.n_delta, np.ldexp(g.values, shift))

    pairs = [(lp_norm(f, p), lp_norm(scaled(f), p))]
    for g, spec in ((F, MixedNormSpec.lq(p, 2.0)), (F, MixedNormSpec.lq(p, np.inf)),
                    (G, MixedNormSpec.cube(p, 3.0))):
        pairs.append((mixed_norm(g, spec), mixed_norm(scaled(g), spec)))
    if p < 100:  # a sum of signed terms leaves the range at p = 2000 whatever the scale
        ops = [random_function(4, rng) for _ in range(3)]
        cfg = RademacherConfig(mode="monte-carlo", samples=64, seed=5)
        for c in (None, cfg):
            base = rademacher_avg(ops, p, cfg=c)
            moved = rademacher_avg([scaled(g) for g in ops], p, cfg=c)
            pairs += [(base.value, moved.value), (base.stderr, moved.stderr)]
    for base, moved in pairs:
        assert np.isfinite(base) and base > 0 or base == 0.0
        assert moved == pytest.approx(np.ldexp(base, shift), rel=1e-13)


@pytest.mark.parametrize("p", [2, 3, 7, 1000, 2000, 2090])
def test_root_scales_exactly_by_powers_of_two_at_integer_p(rng, p):
    # every normal mean and its shifts by 2^(p j) that stay normal; 2^p overflows past p = 1024
    for x in np.ldexp(rng.uniform(0.5, 1.0, 200), rng.integers(-1021, 1025, 200)).tolist():
        for j in (-3, -1, 1, 2):
            e = math.frexp(x)[1] + p * j
            if -1021 <= e <= 1024:
                assert norms._root(math.ldexp(x, p * j), p) == math.ldexp(norms._root(x, p), j)
        with mpmath.workdps(40):  # within two ulps of the exact root
            assert norms._root(x, p) == pytest.approx(float(mpmath.root(x, p)), rel=4.5e-16)
    for x in rng.uniform(1.0, 2.0 ** min(p, 1000), 200).tolist():
        assert norms._root(x, p) == x ** (1.0 / p)  # [1, 2^p): the bits of plain pow
    assert [norms._root(x, p) for x in (0.0, math.inf)] == [0.0, math.inf]
    assert math.isnan(norms._root(math.nan, p))


# -- the Hilbert path: p = 2 over a scalar, ell^2 or L^2 inner norm ----------------


def random_operands(rng, inner, n, k):
    """k random operands on n coordinates in one value space: 3 ell^2 rows, 4 L^2 rows."""
    rows = {"scalar": (), "lq": (3,), "Lq": (4,)}[inner]
    return [OPERANDS[inner].from_coeffs(n, rng.standard_normal((*rows, 1 << n))) for _ in range(k)]


def hilbert_spec(inner):
    return MixedNormSpec(2.0, inner, None if inner == "scalar" else 2.0)


@pytest.mark.parametrize("inner", list(OPERANDS))
@pytest.mark.parametrize("n", range(1, 13))
def test_hilbert_path_agrees_with_the_value_path(rng, monkeypatch, inner, n):
    # Parseval and the Gram matrix give what synthesis and the per-pattern powers give
    spec = hilbert_spec(inner)
    ops = random_operands(rng, inner, n, 5)
    cfgs = (RademacherConfig(), RademacherConfig("monte-carlo", samples=300, seed=n))

    def run():
        return [mixed_norm(ops[0], spec)] + [x for cfg in cfgs
                                            for x in astuple(rademacher_avg(ops, 2.0, spec, cfg))]

    hilbert = run()
    monkeypatch.setattr(norms, "_hilbert", lambda spec: False)
    for got, want in zip(hilbert, run(), strict=True):
        assert abs(got - want) <= 1e-13 * want or got == want == 0.0, (got, want)


@pytest.mark.parametrize("inner", list(OPERANDS))
def test_hilbert_path_of_nan_is_nan_and_of_zero_is_zero(rng, inner):
    spec = hilbert_spec(inner)
    mc = RademacherConfig("monte-carlo", samples=10)
    zero, bad = random_operands(rng, inner, 4, 2)
    zero.coeffs[...] = 0.0
    bad.coeffs.reshape(-1)[5] = np.nan
    assert mixed_norm(zero, spec) == 0.0
    assert np.isnan(mixed_norm(bad, spec))
    for cfg in (None, mc):
        assert rademacher_avg([zero, zero], 2.0, spec, cfg).value == 0.0
        assert np.isnan(rademacher_avg([zero, bad], 2.0, spec, cfg).value)
    assert lp_norm(CubeFunction(3, np.zeros(8)), 2.0) == 0.0


@pytest.mark.parametrize("spec, calls", [
    (MixedNormSpec.scalar(2.0), 0), (MixedNormSpec.lq(2.0, 2.0), 0),
    (MixedNormSpec.cube(2.0, 2.0), 0), (MixedNormSpec.lq(2.0, 3.0), 1),
    (MixedNormSpec.cube(2.0, np.inf), 1), (MixedNormSpec.scalar(3.0), 1),
])
def test_hilbert_specs_make_no_walsh_transform(rng, monkeypatch, spec, calls):
    ops = random_operands(rng, spec.inner, 4, 3)
    count = [0]

    def counted(a):
        count[0] += 1
        return walsh_transform(a)

    monkeypatch.setattr(norms, "walsh_transform", counted)
    runs = [lambda: mixed_norm(ops[0], spec)]
    runs += [lambda cfg=cfg: rademacher_avg(ops, spec.p, spec, cfg)
             for cfg in (None, RademacherConfig("monte-carlo", samples=50))]
    if spec.inner == "scalar":
        runs.append(lambda: lp_norm(ops[0], spec.p))
    for run in runs:
        count[0] = 0
        run()
        assert count[0] == calls


def test_p2_mixed_norm_allocates_no_value_array(rng):
    # Parseval reads the coefficients where they are: no copy unless they are rescaled
    for F, spec in ((random_function(18, rng), MixedNormSpec.scalar(2.0)),
                    (BiCubeFunction.from_coeffs(16, rng.standard_normal((4, 1 << 16))),
                     MixedNormSpec.cube(2.0, 2.0))):
        mixed_norm(F, spec)  # warm any first-call caches
        tracemalloc.start()
        try:
            mixed_norm(F, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * F.coeffs.nbytes


# -- capped sign averages: stop once the average is proven above the cap -------------


def _bits(result):
    return np.array([result.value, result.stderr]).tobytes(), result.pruned


CAPPED_SPECS = [MixedNormSpec.scalar(p) for p in (1.0, 2.5, 3.0, np.inf)]
CAPPED_SPECS += [MixedNormSpec.lq(p, q) for p, q in ((1.0, 3.0), (2.5, 1.5), (3.0, 3.0),
                                                     (np.inf, 2.0))]
CAPPED_SPECS += [MixedNormSpec.cube(p, q) for p, q in ((1.0, np.inf), (2.5, 2.0), (3.0, 3.0),
                                                       (np.inf, 1.5))]


@pytest.mark.parametrize("cfg", [RademacherConfig(),
                                 RademacherConfig("monte-carlo", samples=700, seed=3)],
                         ids=["exact", "monte-carlo"])
@pytest.mark.parametrize("spec", CAPPED_SPECS, ids=str)
def test_a_cap_above_the_average_changes_no_bit_and_one_below_flags_a_lower_bound(rng, spec,
                                                                                    cfg):
    ops = random_operands(rng, spec.inner, 5, 7)
    full = rademacher_avg(ops, spec.p, spec, cfg)
    assert not full.pruned
    for cap in (np.nextafter(full.value, math.inf), 1.5 * full.value, math.inf):
        assert _bits(rademacher_avg(ops, spec.p, spec, cfg, cap)) == _bits(full)
    for cap in (0.9 * full.value, 0.25 * full.value):
        capped = rademacher_avg(ops, spec.p, spec, cfg, cap)
        assert capped.pruned and capped.value == cap <= full.value
    # a cap that is not a positive normal float is no cap
    for cap in (0.0, -1.0, math.nan, 5e-324):
        assert _bits(rademacher_avg(ops, spec.p, spec, cfg, cap)) == _bits(full)


def test_a_capped_average_stops_at_the_first_block_that_passes_the_cap(rng, monkeypatch):
    # 2^9 patterns of 1024 values in 16 blocks; a cap far below the average stops at the first
    ops = random_operands(rng, "scalar", 10, 10)
    blocks = []
    power_blocks = norms._power_blocks

    def counted(*args):
        for block in power_blocks(*args):
            blocks.append(block.size)
            yield block

    monkeypatch.setattr(norms, "_power_blocks", counted)
    full = rademacher_avg(ops, 3.0)
    assert sum(blocks) == 1 << 9 and len(blocks) == 16
    blocks.clear()
    assert rademacher_avg(ops, 3.0, cap=0.1 * full.value).pruned
    assert len(blocks) == 1


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
@pytest.mark.parametrize("inner", ["scalar", "lq"])
def test_no_cap_prunes_where_its_pth_power_leaves_the_float_range(rng, inner, mode):
    # at p = 2000 the values are scaled to about 1 and the average lies within a
    # factor 3 k of their maximum, so a cap 8 times off has a power past 2^(+-1000)
    spec = MixedNormSpec(2000.0, inner, None if inner == "scalar" else 2000.0)
    cfg = RademacherConfig(mode, samples=300, seed=1)
    ops = random_operands(rng, inner, 4, 3)
    full = rademacher_avg(ops, spec.p, spec, cfg)
    for cap in (full.value / 8, 8 * full.value):
        assert _bits(rademacher_avg(ops, spec.p, spec, cfg, cap)) == _bits(full)
    assert norms._power_limit(0.5, 2000.0, 4, 0) == math.inf
    assert norms._power_limit(2.0, 2000.0, 4, 0) == math.inf
    assert 4.0 <= norms._power_limit(1.0, 2000.0, 4, 0) < 4.0 * (1 + 3e-6)


def test_a_cap_prunes_no_count_of_patterns_past_the_margin(rng):
    ops = random_operands(rng, "scalar", 3, 2)
    big = RademacherConfig("monte-carlo", samples=norms.MAX_CAP_PATTERNS + 1, seed=2)
    full = rademacher_avg(ops, 3.0, cfg=big)
    assert _bits(rademacher_avg(ops, 3.0, cfg=big, cap=full.value / 4)) == _bits(full)
