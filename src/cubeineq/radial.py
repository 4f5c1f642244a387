"""Radial (permutation-invariant) cube functions and Krawtchouk synthesis.

A radial function depends only on the Hamming distance d from the all-ones
point; storing the n+1 profile values makes dimensions up to about 10^6
workable.  Its Walsh coefficients are constant on levels, and the bridge
between profile and level coefficients is the Krawtchouk polynomial

    K_k(d) = value at any weight-d point of  sum_{|A|=k} eps^A
           = sum_j (-1)^j C(d,j) C(n-d,k-j),

computed here by the three-term recurrence in k.  Entries grow like central
binomial coefficients, so for n beyond ~1000 the float64 table loses relative
precision and can overflow to inf near k = n/2; analysis/synthesis through
the table is therefore capped, while large-n workflows use profile-side
formulas that never touch the table.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.stats import binom

from .cube import CubeFunction, levels

MAX_RADIAL_N = 1 << 21  # "up to ~10^6"; 2^20 workflows need a power of two
MAX_TABLE_N = 2048


def krawtchouk(k: int, d: int, n: int) -> float:
    """K_k(d) for one pair, by the recurrence (j+1)K_{j+1} = (n-2d)K_j - (n-j+1)K_{j-1}."""
    if not (0 <= k <= n and 0 <= d <= n):
        raise ValueError(f"need 0 <= k,d <= n, got k={k}, d={d}, n={n}")
    prev, cur = 1.0, float(n - 2 * d)
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, ((n - 2 * d) * cur - (n - j + 1) * prev) / (j + 1)
    return cur


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


def binomial_weights(n: int) -> np.ndarray:
    """P(weight = d) under the uniform cube measure, d = 0..n."""
    return binom.pmf(np.arange(n + 1), n, 0.5)


class RadialProfile:
    """Function of the Hamming weight d alone, v[d] = value at any weight-d point."""

    __slots__ = ("n", "v")

    def __init__(self, n: int, v):
        if not 1 <= n <= MAX_RADIAL_N:
            raise ValueError(f"radial dimension must be in [1, {MAX_RADIAL_N}]")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (n + 1,):
            raise ValueError(f"profile must have n+1={n + 1} entries")
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

    def level_coefficients(self) -> np.ndarray:
        """w[k] such that v(d) = sum_k w[k] K_k(d); needs the Krawtchouk table."""
        K = krawtchouk_table(self.n)
        pmf = binomial_weights(self.n)
        return (K @ (pmf * self.v)) / _level_counts(self.n)

    @classmethod
    def from_level_coefficients(cls, n: int, w) -> "RadialProfile":
        K = krawtchouk_table(n)
        return cls(n, np.asarray(w, dtype=np.float64) @ K)

    @property
    def mean(self) -> float:
        return float(binomial_weights(self.n) @ self.v)

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


def _level_counts(n: int) -> np.ndarray:
    """C(n, k) for k = 0..n (float64)."""
    return binom.pmf(np.arange(n + 1), n, 0.5) * 2.0**n


def radial_apply_multiplier(p: RadialProfile, m) -> RadialProfile:
    """Radial counterpart of the spectral calculus: level k scaled by m(k).

    Analysis uses the orthogonality  sum_d C(n,d) K_k(d) K_l(d) = 2^n C(n,k)
    delta_{kl}, so the whole round trip is O(n^2) and agrees with the dense
    path wherever both exist.
    """
    n = p.n
    if callable(m):
        table = np.array([m(k) for k in range(n + 1)], dtype=np.float64)
    else:
        table = np.asarray(m, dtype=np.float64)
        if table.shape != (n + 1,):
            raise ValueError(f"multiplier table must have length n+1={n + 1}")
    K = krawtchouk_table(n)
    pmf = binomial_weights(n)
    w = (K @ (pmf * p.v)) / _level_counts(n)
    return RadialProfile(n, (table * w) @ K)
