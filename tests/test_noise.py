import math
import tracemalloc

import numpy as np
import pytest

from cubeineq import cube
from cubeineq.cube import _BLOCK, CubeFunction, character, random_function, walsh_transform
from cubeineq.noise import (
    _noise_average,
    MCEstimate,
    NoiseParameter,
    SampleBatch,
    exact_noise_expectation,
    mc_noise_expectation,
    symmetrized_tail_integral,
    verify_derivative_representation,
    verify_heat_representation,
)
from cubeineq.radial import RadialProfile
from cubeineq.rng import stream_generator
from conftest import enumerated_noise_reference, mc_noise_reference


def test_noise_parameter_invariants():
    for t in (0.0, 0.05, 0.7, 3.0, 50.0):
        np_t = NoiseParameter(t)
        assert 0.5 <= np_t.p_plus <= 1.0
        assert abs(np_t.mean**2 + np_t.variance - 1.0) < 1e-15
    with pytest.raises(ValueError):
        NoiseParameter(-0.1)


def test_moment_identities_closed_form_and_sampled():
    t = 0.8
    par = NoiseParameter(t)
    rng = stream_generator(3)
    xi = np.where(rng.random(200_000) < par.p_plus, 1.0, -1.0)
    delta = (xi - par.mean) / math.sqrt(par.variance)
    se = 1.0 / math.sqrt(len(xi))
    assert abs(xi.mean() - math.exp(-t)) < 5 * se
    assert abs(xi.var() - (1 - math.exp(-2 * t))) < 5 * se
    assert abs(delta.mean()) < 5 * se
    assert abs((delta**2).mean() - 1.0) < 5 * se
    assert abs((delta * xi).mean() - math.sqrt(1 - math.exp(-2 * t))) < 5 * se


def test_character_noising():
    f = character(5, 0b01101)
    pair = exact_noise_expectation(f, 0.9)
    assert np.allclose(pair.spectral.coeffs, math.exp(-0.9 * 3) * f.coeffs)
    assert np.max(np.abs(pair.enumerative.coeffs - pair.spectral.coeffs)) < 1e-12


def test_zero_time_is_identity(rng):
    f = random_function(6, rng)
    pair = exact_noise_expectation(f, 0.0)
    assert np.max(np.abs(pair.spectral.coeffs - f.coeffs)) < 1e-15
    assert np.max(np.abs(pair.enumerative.coeffs - f.coeffs)) < 1e-12


def test_spectral_vs_enumerative_cross_check(rng):
    f = random_function(8, rng)
    assert verify_heat_representation(f, 0.7) < 1e-12


@pytest.mark.parametrize("n", [1, 8, 14])
def test_verify_heat_representation_makes_two_walsh_transforms(rng, monkeypatch, n):
    # the values of f and of its heat image; the noise average stays in values
    f = random_function(n, rng)
    count = [0]

    def counted(a):
        count[0] += 1
        return walsh_transform(a)

    monkeypatch.setattr(cube, "walsh_transform", counted)
    verify_heat_representation(f, 0.7)
    assert count[0] == 2


@pytest.mark.parametrize("n", range(1, 14))
def test_enumerator_matches_per_outcome_loop(rng, n):
    # heat weights, and derivative weights for a coordinate in each half:
    # the per-coordinate steps against the weighted sum over all 2^n outcomes
    values = rng.standard_normal(1 << n)
    noise = NoiseParameter(0.4)
    bits = np.arange(1 << n)
    down = np.bitwise_count(bits)
    heat_w = noise.p_plus ** (n - down) * (1.0 - noise.p_plus) ** down
    for j in [None, *{0, n - 1}]:
        w = heat_w if j is None else heat_w * ((1.0 - 2.0 * ((bits >> j) & 1)) - noise.mean) \
            / math.sqrt(noise.variance)
        ref = enumerated_noise_reference(values, w)
        got = _noise_average(values.copy(), noise, j)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(ref).max()


def test_enumeration_refused_above_cap():
    big = CubeFunction(15, np.zeros(1 << 15))
    with pytest.raises(ValueError):
        exact_noise_expectation(big, 0.5)
    with pytest.raises(ValueError, match="refused for n > 14"):
        verify_heat_representation(big, 0.5)
    with pytest.raises(ValueError):
        verify_derivative_representation(big, 0, 0.5)


def test_derivative_representation_characters():
    # j in A: closed-form moments make the two sides agree exactly
    f = character(6, 0b010110)
    for t in (0.3, 1.0):
        assert verify_derivative_representation(f, 1, t) < 1e-13
        # j not in A: both sides vanish
        assert verify_derivative_representation(f, 0, t) < 1e-15


def test_derivative_representation_random(rng):
    for t in (0.1, 1.0, 3.0):
        f = random_function(6, rng)
        assert verify_derivative_representation(f, 2, t) < 1e-12


def test_derivative_representation_grid(rng):
    for n in (2, 5, 8):
        f = random_function(n, rng)
        for t in (0.05, 0.3, 1.0, 2.0, 5.0):
            assert verify_derivative_representation(f, n - 1, t) < 1e-12


def test_derivative_rejects_t_zero(rng):
    with pytest.raises(ValueError):
        verify_derivative_representation(random_function(4, rng), 0, 0.0)


def test_mc_constant_has_zero_variance():
    f = CubeFunction(4, np.r_[3.0, np.zeros(15)])
    est = mc_noise_expectation(f, 0.5, SampleBatch(seed=1, count=500))
    assert est.value == 3.0
    assert est.stderr == 0.0


def test_mc_matches_spectral_truth():
    f = character(10, 0b1)
    est = mc_noise_expectation(f, 1.0, SampleBatch(seed=5, count=40_000))
    # at the all-ones base point the noised dictator averages to e^{-1}
    assert abs(est.value - math.exp(-1.0)) < 4 * est.stderr


def test_mc_radial_and_base_point():
    prof = RadialProfile(50, np.arange(51.0))
    batch = SampleBatch(seed=9, count=10_000, stream=3)
    at = np.ones(50)
    at[:10] = -1
    est = mc_noise_expectation(prof, 0.4, batch, at=at)
    # truth: E v(weight) with weight = stays_down + flips_up
    par = NoiseParameter(0.4)
    truth = 10 * par.p_plus + 40 * (1 - par.p_plus)
    assert abs(est.value - truth) < 4 * est.stderr


@pytest.mark.parametrize("at", [[1, 0, 7], [1, 1], [1, 1, 1, 1], [-1, -1, 2]])
def test_mc_bad_base_point_refused(at):
    batch = SampleBatch(seed=1, count=100)
    for f in (character(3, 0b1), RadialProfile(3, np.arange(4.0))):
        with pytest.raises(ValueError, match="sign vector"):
            mc_noise_expectation(f, 0.5, batch, at=at)


def test_mc_base_point_beyond_64_coordinates():
    # the radial branch counts -1 entries of a base point longer than an int64 bitmask
    n = 200
    prof = RadialProfile(n, np.arange(n + 1.0))
    at = np.ones(n)
    at[::3] = -1
    est = mc_noise_expectation(prof, 0.4, SampleBatch(seed=2, count=10_000), at=at)
    par = NoiseParameter(0.4)
    down = int(np.sum(at == -1))
    truth = down * par.p_plus + (n - down) * (1 - par.p_plus)
    assert abs(est.value - truth) < 4 * est.stderr


def test_mc_stderr_shrinks_like_root_count():
    f = character(10, 0b1)
    small = mc_noise_expectation(f, 1.0, SampleBatch(seed=4, count=4_000))
    large = mc_noise_expectation(f, 1.0, SampleBatch(seed=4, count=64_000))
    shrink = large.stderr / small.stderr
    assert 0.15 < shrink < 0.35  # expect 1/4 for a 16x batch


def test_mc_determinism():
    f = character(8, 0b11)
    a = mc_noise_expectation(f, 0.7, SampleBatch(seed=42, count=2048, stream=1))
    b = mc_noise_expectation(f, 0.7, SampleBatch(seed=42, count=2048, stream=1))
    assert a == b
    c = mc_noise_expectation(f, 0.7, SampleBatch(seed=42, count=2048, stream=2))
    assert a.value != c.value


def test_mc_zero_count_rejected():
    with pytest.raises(ValueError):
        SampleBatch(seed=1, count=0)


def test_distribution_invariance(rng):
    # for fixed xi, eps -> f(eps xi) is a rearrangement of f
    for n in (4, 7, 10):
        f = random_function(n, rng)
        vals = f.values()
        xi_mask = int(rng.integers(1 << n))
        shifted = vals[np.arange(1 << n) ^ xi_mask]
        assert np.array_equal(np.sort(shifted), np.sort(vals))


def test_tail_integral_limits():
    for r in (1.0, 1.5, 2.0, 4.0):
        assert abs(symmetrized_tail_integral(60.0, r) - 2.0 ** (1 - 1 / r)) < 1e-12
    for t in (0.1, 0.5, 2.0):
        assert abs(symmetrized_tail_integral(t, 1.0) - (1 - math.exp(-2 * t))) < 1e-15


def test_tail_integral_numeric_agreement():
    assert abs(
        symmetrized_tail_integral(0.5, 2.0)
        - symmetrized_tail_integral(0.5, 2.0, numeric=True)
    ) < 1e-12
    with pytest.raises(ValueError):
        symmetrized_tail_integral(0.5, 0.9)


def test_non_finite_times_are_refused():
    # at t = inf the heat multiplier exp(-t * 0) is nan, so only finite t is a noise time
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            NoiseParameter(t)
    with pytest.raises(ValueError, match="t >= 0"):
        symmetrized_tail_integral(math.nan, 2.0)
    # the tail integral's t = inf limit is finite and exact
    for numeric in (False, True):
        assert symmetrized_tail_integral(math.inf, 2.0, numeric=numeric) == pytest.approx(
            2.0 ** 0.5, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 7, 13, 17])
def test_mc_blocked_draws_match_one_whole_draw(n):
    # blocks hold _BLOCK // n samples; the counts straddle one or more block ends
    rows = _BLOCK // n
    f = random_function(n, stream_generator(n))
    f.coeffs[::3] = -0.0
    at = 1 - 2 * (np.arange(n) % 2)
    for count in (1, 5, rows - 1, rows, rows + 1, 2 * rows + 3, 30_000):
        for base in (None, at):
            batch = SampleBatch(seed=11, count=count, stream=n)
            est = mc_noise_expectation(f, 0.3, batch, at=base)
            assert tuple(est) == mc_noise_reference(f, 0.3, batch, at=base)


@pytest.mark.parametrize("n", [16, 20])
def test_mc_allocates_its_values_and_order_count(n):
    # beside the point values: the int64 masks, the samples and the variance's
    # temporaries (O(count)), and a block of uniforms with its comparisons
    f = random_function(n, stream_generator(n))
    count = 100_000
    batch = SampleBatch(seed=1, count=count)
    mc_noise_expectation(f, 0.5, batch)  # warm any first-call caches
    peaks = []
    for op in (f.values, lambda: mc_noise_expectation(f, 0.5, batch)):
        tracemalloc.start()
        try:
            op()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    values_peak, peak = peaks
    assert peak < max(values_peak, (1 << n) * 8 + 3 * count * 8 + 3 * _BLOCK * 8) + 4096
