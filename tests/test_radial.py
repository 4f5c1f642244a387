import mpmath
import numpy as np
import pytest

from cubeineq.noise import SampleBatch, mc_noise_expectation
from cubeineq.norms import lp_norm
from cubeineq.radial import (
    RadialProfile,
    _log_binomial_pmf,
    binomial_pmf,
    binomial_weights,
    krawtchouk_table,
)
from conftest import exact_krawtchouk


def test_first_two_levels():
    n = 9
    K = krawtchouk_table(n)
    assert np.array_equal(K[0], np.ones(n + 1))
    assert np.array_equal(K[1], n - 2 * np.arange(n + 1.0))


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
    K, exact = krawtchouk_table(n), exact_krawtchouk(n)
    for k in range(n + 1):
        for d in range(n + 1):
            point = (1 << d) - 1  # any weight-d point; radial so pick the first
            s = sum(
                (-1) ** bin(point & A).count("1")
                for A in range(1 << n)
                if bin(A).count("1") == k
            )
            assert abs(K[k, d] - s) < 1e-12
            assert exact[k][d] == s


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


@pytest.mark.parametrize("n", [1100, 2**16, 2**21])
def test_log_binomial_pmf_is_finite_where_the_pmf_underflows(n):
    # binomial_weights(n)[0] is 0.0 past n = 1074; its log core is -n log 2
    ks = np.array([0, 1, 7, n // 3, n // 2, n - 1, n])
    exact = [float(mpmath.log(mpmath.binomial(n, int(k))) - n * mpmath.log(2)) for k in ks]
    got = _log_binomial_pmf(n, ks)
    assert np.all(np.abs(got - exact) <= 4e-16 * n)  # rounding of terms of size n log 2


def test_binomial_pmf_refuses_outside_support():
    for k in (-1, 6, 2.5):
        with pytest.raises(ValueError):
            binomial_pmf(5, [0, k])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_profile_is_refused_when_built(bad):
    # lp_norm, .mean and mc_noise_expectation of such a profile returned nan with no error
    v = [0.0, 1.0, bad, 2.0, 3.0]
    for use in (lambda p: lp_norm(p, 2), lambda p: p.mean,
                lambda p: mc_noise_expectation(p, 0.5, SampleBatch(0, 100))):
        with pytest.raises(ValueError, match="non-finite"):
            use(RadialProfile(4, v))
    with pytest.raises(ValueError, match="non-finite"):
        RadialProfile.from_json('{"n": 4, "v": [0, 1, NaN, 2, 3]}')


def test_file_format():
    prof = RadialProfile(3, [0.0, 1.0, 2.0, 3.0])
    back = RadialProfile.from_json(prof.to_json())
    assert back.n == 3
    assert np.array_equal(back.v, prof.v)


def test_table_cap():
    with pytest.raises(ValueError):
        krawtchouk_table(5000)
