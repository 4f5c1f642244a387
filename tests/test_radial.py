import mpmath
import numpy as np
import pytest

from cubeineq.cube import apply_multiplier
from cubeineq.radial import (
    RadialProfile,
    binomial_pmf,
    binomial_weights,
    krawtchouk,
    krawtchouk_table,
    radial_apply_multiplier,
)


def test_first_two_levels():
    n = 9
    for d in range(n + 1):
        assert krawtchouk(0, d, n) == 1.0
        assert krawtchouk(1, d, n) == n - 2 * d


def test_level_sum_detects_the_origin():
    # sum_k K_k(d) = prod_i (1 + eps_i) evaluated at weight d = 2^n 1_{d=0}
    for n in (3, 8, 14, 20):
        K = krawtchouk_table(n)
        sums = K.sum(axis=0)
        expect = np.zeros(n + 1)
        expect[0] = 2.0**n
        assert np.max(np.abs(sums - expect)) < 1e-6 * 2.0**n


def test_brute_force_enumeration_n4():
    n = 4
    K = krawtchouk_table(n)
    for k in range(n + 1):
        for d in range(n + 1):
            point = (1 << d) - 1  # any weight-d point; radial so pick the first
            s = sum(
                (-1) ** bin(point & A).count("1")
                for A in range(1 << n)
                if bin(A).count("1") == k
            )
            assert abs(K[k, d] - s) < 1e-12
            assert abs(krawtchouk(k, d, n) - s) < 1e-12


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        krawtchouk(5, 0, 4)
    with pytest.raises(ValueError):
        krawtchouk(0, -1, 4)


def test_identity_multiplier_is_identity(rng):
    prof = RadialProfile(8, rng.standard_normal(9))
    out = radial_apply_multiplier(prof, lambda k: 1.0)
    assert np.max(np.abs(out.v - prof.v)) < 1e-10


def test_constant_profile_fixed_by_heat():
    prof = RadialProfile(6, np.full(7, 2.5))
    out = radial_apply_multiplier(prof, lambda k: np.exp(-0.7 * k))
    assert np.max(np.abs(out.v - prof.v)) < 1e-12


def test_matches_dense_path(rng):
    n = 10
    prof = RadialProfile(n, rng.standard_normal(n + 1))
    table = np.sqrt(np.arange(n + 1, dtype=np.float64))
    radial = radial_apply_multiplier(prof, table)
    dense = apply_multiplier(prof.to_cube_function(), table)
    dvals = dense.values()
    w = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    for d in range(n + 1):
        assert abs(dvals[w == d][0] - radial.v[d]) < 1e-9


def test_level_coefficients_roundtrip(rng):
    n = 12
    prof = RadialProfile(n, rng.standard_normal(n + 1))
    w = prof.level_coefficients()
    back = RadialProfile.from_level_coefficients(n, w)
    assert np.max(np.abs(back.v - prof.v)) < 1e-9


def test_radial_projection_of_dense(rng):
    n = 6
    prof = RadialProfile(n, rng.standard_normal(n + 1))
    dense = prof.to_cube_function()
    assert np.max(np.abs(RadialProfile.from_cube_function(dense).v - prof.v)) < 1e-12
    # dense function of a radial profile has level-constant coefficients
    from cubeineq.cube import levels

    lev = levels(n)
    for k in range(n + 1):
        block = dense.coeffs[lev == k]
        assert np.max(np.abs(block - block[0])) < 1e-12


def test_binomial_weights_sum_to_one():
    for n in (5, 100, 2**16):
        assert abs(binomial_weights(n).sum() - 1.0) < 1e-10


def _exact_half_pmf(n):
    """C(n, k) 2^{-n} for k = n//2 down to the first value below 1e-300, from
    the exact central term by the ratio recurrence at 40 digits."""
    with mpmath.workdps(40):
        k = n // 2
        cur = mpmath.binomial(n, k) * mpmath.mpf(2) ** (-n)
        out = {}
        while k >= 0:
            out[k] = float(cur)
            if out[k] < 1e-300:
                break
            cur = cur * k / (n - k + 1)
            k -= 1
    ks = np.array(sorted(out))
    return ks, np.array([out[k] for k in ks])


@pytest.mark.parametrize("n", list(range(1, 18)) + [100, 501, 1000, 4097, 2**16, 2**20])
def test_binomial_pmf_matches_exact(n):
    ks, exact = _exact_half_pmf(n)
    keep = exact >= 1e-300
    w = binomial_weights(n)
    assert np.max(np.abs(w[ks][keep] / exact[keep] - 1.0)) <= 1e-12
    assert np.array_equal(binomial_pmf(n, ks), w[ks])
    assert np.array_equal(w, w[::-1])
    assert abs(w.sum() - 1.0) <= 1e-13


def test_binomial_pmf_refuses_outside_support():
    for k in (-1, 6, 2.5):
        with pytest.raises(ValueError):
            binomial_pmf(5, [0, k])


def test_level_coefficients_scale_by_power_of_two():
    # the 2^{-n} scaling after the division is bit-identical to dividing by C(n, k)
    n = 60
    v = np.random.default_rng(3).standard_normal(n + 1)
    pmf = binomial_weights(n)
    expect = (krawtchouk_table(n) @ (pmf * v)) / (pmf * 2.0**n)
    assert np.array_equal(RadialProfile(n, v).level_coefficients(), expect)


@pytest.mark.parametrize("n", [1024, 1100])
def test_level_coefficients_refuse_overflow(n):
    # 1/pmf(0) = 2^n overflows float64 from n = 1024: ValueError, not OverflowError
    prof = RadialProfile(n, np.ones(n + 1))
    with pytest.raises(ValueError, match="not finite"):
        prof.level_coefficients()
    with pytest.raises(ValueError, match="not finite"):
        radial_apply_multiplier(prof, np.ones(n + 1))


def test_from_level_coefficients_refuses_overflow():
    # sum_k K_k(d) overflows float64 at n = 1100: ValueError, not a nan profile
    with pytest.raises(ValueError, match="not finite"):
        RadialProfile.from_level_coefficients(1100, np.ones(1101))


def test_file_format():
    prof = RadialProfile(3, [0.0, 1.0, 2.0, 3.0])
    back = RadialProfile.from_json(prof.to_json())
    assert back.n == 3
    assert np.array_equal(back.v, prof.v)


def test_table_cap():
    with pytest.raises(ValueError):
        krawtchouk_table(5000)
