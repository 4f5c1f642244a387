"""Radial (permutation-invariant) cube functions and the Krawtchouk calculus.

A radial function depends only on the Hamming distance d from the all-ones
point; storing the n+1 profile values makes dimensions up to about 10^6
workable.  Its Walsh coefficients are constant on levels, and the bridge
between profile and level coefficients is the Krawtchouk polynomial

    K_k(d) = value at any weight-d point of  sum_{|A|=k} eps^A
           = sum_j (-1)^j C(d,j) C(n-d,k-j).

`krawtchouk_table` gives the raw values by the three-term recurrence in k, a
small-n reference only: they grow like central binomial coefficients and
cancel in sums.  Its one sum in the package, the point mass's L^{1/2} in
`counterexamples`, is verified against an exact oracle up to n = 256 and
refuses larger n.  The calculus (level coefficients, synthesis, multipliers)
goes through the orthonormal Phi[k, d] = sqrt(pmf(d) / C(n, k)) K_k(d),
built by `np.linalg.eigh` in O(n^3) on the first call for each n and cached.
It is exact to rounding in the binomial-weighted l^2 norm (pointwise, see
`radial_apply_multiplier`), and refuses n > 1022, where pmf(0) = 2^-n is
subnormal, with ValueError before it allocates.

Binomial weights are Loader's saddle-point form of the pmf at p = 1/2 (C.
Loader, "Fast and accurate computation of binomial probabilities", 2000), in
numpy: the Stirling-formula error from a table up to 15 and its series above,
and the deviance by its series near the mean.  Every entry at least 1e-300 is
within 1e-12 relative of the exact binomial up to n = 2^20; the deep tail
keeps about 6e-13, so 1e-14 is not reached there.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .cube import CubeFunction, _multiplier_table, levels

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


def binomial_pmf(n: int, k) -> np.ndarray:
    """C(n, k) 2^{-n} for integers 0 <= k <= n, by Loader's saddle-point form."""
    k = np.asarray(k, dtype=np.float64)
    if not ((k >= 0) & (k <= n) & (k == np.floor(k))).all():
        raise ValueError(f"need integers 0 <= k <= n={n}")
    out = np.full(k.shape, math.ldexp(1.0, -n))  # k = 0 and k = n
    inner = (k > 0) & (k < n)
    x = k[inner]
    m = n / 2.0
    lc = (_stirlerr(np.array([n], dtype=np.float64)) - _stirlerr(x) - _stirlerr(n - x)
          - _bd0(x, m) - _bd0(n - x, m))
    lf = math.log(2.0 * math.pi) + np.log(x) + np.log1p(-x / n)
    out[inner] = np.exp(lc - 0.5 * lf)
    return out


def binomial_weights(n: int) -> np.ndarray:
    """P(weight = d) under the uniform cube measure, d = 0..n, exactly symmetric."""
    half = binomial_pmf(n, np.arange(n // 2 + 1))
    w = np.empty(n + 1)
    w[:half.size] = half
    w[n + 1 - half.size:] = half[::-1]
    return w


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
        """w[k] such that v(d) = sum_k w[k] K_k(d): Phi (sqrt(pmf) v) / sqrt(C(n, k))."""
        phi, pmf = _basis(self.n), binomial_weights(self.n)
        w = phi @ (np.sqrt(pmf) * self.v) / np.sqrt(np.ldexp(pmf, self.n))
        if not np.isfinite(w).all():
            raise ValueError(f"level coefficients at n={self.n} are not finite in float64")
        return w

    @classmethod
    def from_level_coefficients(cls, n: int, w) -> "RadialProfile":
        """v(d) = sum_k w[k] K_k(d): Phi^T (sqrt(C(n, k)) w) / sqrt(pmf); refused if not finite."""
        phi, pmf = _basis(n), binomial_weights(n)
        v = np.sqrt(np.ldexp(pmf, n)) * np.asarray(w, dtype=np.float64) @ phi / np.sqrt(pmf)
        if not np.isfinite(v).all():
            raise ValueError(f"radial profile at n={n} is not finite in float64")
        return cls(n, v)

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


@functools.lru_cache(maxsize=4)
def _basis(n: int) -> np.ndarray:
    """Read-only orthonormal, symmetric Phi[k, d] = sqrt(pmf(d) / C(n, k)) K_k(d).

    Column d is the eigenvector of eigenvalue n - 2d of the Kac matrix (zero
    diagonal, off-diagonal sqrt(k (n - k + 1))).  Column 0, sqrt(pmf), is made
    positive; column d+1 takes the sign that makes the dual recurrence in d
    hold, a positive product with (n - 2k) Phi[:, d] (the Phi[:, d-1] term is
    orthogonal to it).  Row 0 cannot set signs: it underflows at large n.
    """
    if n > 1022:
        raise ValueError(f"the radial calculus at n={n} > 1022 is not finite in float64")
    off = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0.0, -1))  # sqrt(k (n - k + 1))
    phi = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1][:, ::-1]
    dual = np.einsum("kd,k,kd->d", phi[:, 1:], n - 2.0 * np.arange(n + 1), phi[:, :-1])
    phi = phi * np.sign(np.concatenate(([phi[:, 0].sum()], dual))).cumprod()
    phi.setflags(write=False)
    return phi


def radial_apply_multiplier(p: RadialProfile, m) -> RadialProfile:
    """Radial counterpart of the spectral calculus: level k scaled by m(k).

    v' = Phi^T (m Phi (sqrt(pmf) v)) / sqrt(pmf), O(n^2) once the basis is
    cached; it equals the dense path wherever both exist, with an error of
    about eps max|m| ||v||_{2,pmf} in the binomial-weighted l^2 norm.  The
    value at weight d carries about that error over sqrt(pmf(d)), which at
    large n swamps the values near d = 0 or n: `lp_norm(., p > 2)` of a
    synthesised large-n profile inherits it.
    """
    table = _multiplier_table(m, p.n)
    return RadialProfile.from_level_coefficients(p.n, table * p.level_coefficients())
