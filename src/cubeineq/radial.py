"""Radial (permutation-invariant) cube functions, binomial weights and Krawtchouk values.

A radial function depends only on the Hamming distance d from the all-ones
point; storing the n+1 profile values makes dimensions up to about 10^6
workable.  Its Walsh coefficients are constant on levels, and the bridge
between profile and level coefficients is the Krawtchouk polynomial

    K_k(d) = value at any weight-d point of  sum_{|A|=k} eps^A
           = sum_j (-1)^j C(d,j) C(n-d,k-j).

`krawtchouk_table` gives the raw values by the three-term recurrence in k, a
small-n reference with no caller in the package: they grow like central
binomial coefficients and cancel in sums.  A radial profile reaches the
spectral calculus only through its dense cube function (`to_cube_function`,
n <= 24).

Binomial weights are Loader's saddle-point form of the pmf at p = 1/2 (C.
Loader, "Fast and accurate computation of binomial probabilities", 2000), in
numpy: the Stirling-formula error from a table up to 15 and its series above,
and the deviance by its series near the mean.  Every entry at least 1e-300 is
within 1e-12 relative of the exact binomial up to n = 2^20; the deep tail
keeps about 6e-13, so 1e-14 is not reached there.  A binomial mean
(`RadialProfile.mean`, and the radial norms of `norms`) is `cube._dot` of
the weights and the values, on one thread at any core count.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .cube import CubeFunction, _dot, levels

MAX_RADIAL_N = 1 << 21  # "up to ~10^6"; 2^20 workflows need a power of two
MAX_TABLE_N = 2048


def krawtchouk_table(n: int) -> np.ndarray:
    """(n+1, n+1) array K[k, d], all levels against all weights, O(n^2)."""
    if n > MAX_TABLE_N:
        raise ValueError(f"full Krawtchouk table capped at n={MAX_TABLE_N} (memory/precision)")
    d = np.arange(n + 1, dtype=np.float64)
    K = np.empty((n + 1, n + 1))
    K[0] = 1.0
    if n >= 1:
        K[1] = n - 2 * d
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            K[k + 1] = ((n - 2 * d) * K[k] - (n - k + 1) * K[k - 1]) / (k + 1)
    return K


# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 0..15 (k = 0 unused)
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr at integer k >= 1: the table up to 15, the Stirling series above."""
    out = _STIRLERR[np.minimum(k, 15).astype(np.intp)]
    big = k > 15
    kb = k[big]
    kk = kb * kb
    out[big] = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / kb
    return out


def _bd0(x: np.ndarray, m: float) -> np.ndarray:
    """The deviance x log(x/m) + m - x, by its series where |x - m| < 0.1 (x + m)."""
    near = np.abs(x - m) < 0.1 * (x + m)
    out = np.empty_like(x)
    xf = x[~near]
    out[~near] = xf * np.log(xf / m) + m - xf
    xn = x[near]
    v = (xn - m) / (xn + m)
    s = (xn - m) * v
    ej = 2.0 * xn * v
    v *= v
    for j in range(3, 200, 2):
        ej *= v
        s1 = s + ej / j
        if np.array_equal(s1, s):
            break
        s = s1
    out[near] = s
    return out


def _log_binomial_pmf(n: int, k) -> np.ndarray:
    """log(C(n, k) 2^{-n}) for integers 0 <= k <= n (Loader's lc - lf / 2), finite at every n."""
    k = np.asarray(k, dtype=np.float64)
    if not ((k >= 0) & (k <= n) & (k == np.floor(k))).all():
        raise ValueError(f"need integers 0 <= k <= n={n}")
    out = np.full(k.shape, -n * math.log(2.0))  # k = 0 and k = n
    inner = (k > 0) & (k < n)
    x = k[inner]
    m = n / 2.0
    lc = (_stirlerr(np.array([n], dtype=np.float64)) - _stirlerr(x) - _stirlerr(n - x)
          - _bd0(x, m) - _bd0(n - x, m))
    lf = math.log(2.0 * math.pi) + np.log(x) + np.log1p(-x / n)
    out[inner] = lc - 0.5 * lf
    return out


def binomial_pmf(n: int, k) -> np.ndarray:
    """C(n, k) 2^{-n} for integers 0 <= k <= n, by Loader's saddle-point form."""
    return np.where(np.isin(k, (0, n)), math.ldexp(1.0, -n), np.exp(_log_binomial_pmf(n, k)))


def binomial_weights(n: int) -> np.ndarray:
    """P(weight = d) under the uniform cube measure, d = 0..n, exactly symmetric."""
    half = binomial_pmf(n, np.arange(n // 2 + 1))
    w = np.empty(n + 1)
    w[:half.size] = half
    w[n + 1 - half.size:] = half[::-1]
    return w


class RadialProfile:
    """Function of the Hamming weight d alone, v[d] = value at any weight-d point.

    Non-finite values are refused here, once, so no consumer returns nan for them.
    """

    __slots__ = ("n", "v")

    def __init__(self, n: int, v):
        if not 1 <= n <= MAX_RADIAL_N:
            raise ValueError(f"radial dimension must be in [1, {MAX_RADIAL_N}]")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (n + 1,):
            raise ValueError(f"profile must have n+1={n + 1} entries")
        if not np.isfinite(v).all():
            raise ValueError("profile has non-finite values")
        self.n = n
        self.v = v

    @classmethod
    def from_cube_function(cls, f: CubeFunction) -> "RadialProfile":
        """Project a dense function onto its radial part (exact if invariant)."""
        vals = f.values()
        w = levels(f.n)
        sums = np.bincount(w, weights=vals, minlength=f.n + 1)
        counts = np.bincount(w, minlength=f.n + 1)
        return cls(f.n, sums / counts)

    def to_cube_function(self) -> CubeFunction:
        """Densify (n <= 24): value at x is v[popcount(x)]."""
        return CubeFunction.from_values(self.v[levels(self.n)])

    @property
    def mean(self) -> float:
        return _dot(binomial_weights(self.n), self.v)

    def to_dict(self) -> dict:
        return {"n": self.n, "v": self.v.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RadialProfile":
        return cls(int(d["n"]), np.asarray(d["v"], dtype=np.float64))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "RadialProfile":
        return cls.from_dict(json.loads(s))

    def __repr__(self):
        return f"RadialProfile(n={self.n})"
