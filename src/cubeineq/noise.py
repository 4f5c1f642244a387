"""The biased noise vector and the probabilistic heat-semigroup formulas.

For t >= 0 let xi(t) have i.i.d. +-1 coordinates with P{xi_i = 1} =
(1 + e^{-t})/2, so E xi_i = e^{-t} and Var xi_i = 1 - e^{-2t}, and let
delta_i(t) = (xi_i - e^{-t}) / sqrt(1 - e^{-2t}) be its standardization.
Two identities are verified numerically against the exact expectation over
xi, whose outcome weights are a product over coordinates, so it is one 2 x 2
averaging step per coordinate on the point values, O(n 2^n) in all:

    exp(-tL) f (eps)      =  E_xi[ f(eps * xi(t)) ],
    exp(-tL) D_j f (eps)  =  e^{-t} (1-e^{-2t})^{-1/2} E_xi[ delta_j(t) f(eps*xi(t)) ],

together with the symmetrized tail integral

    int_0^inf P{|xi_j(t) - xi_j'(t)| > s}^{1/r} ds = 2^{1-1/r} (1-e^{-2t})^{1/r}.

The exact expectation over the 2^n noise outcomes is refused above n = 14;
the Monte-Carlo estimator covers larger instances with a reported standard
error and (seed, stream)-deterministic sampling.  It draws its uniforms
`_BLOCK` at a time into one reused buffer and keeps only the int64 outcome
mask of each sample, so beside the point values it holds O(count) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cube import (_BLOCK, CubeFunction, _check_coord, _halves, discrete_derivative, heat,
                   signs_to_index)
from .radial import RadialProfile
from .rng import stream_generator

MAX_ENUM_N = 14


def _check_enum_n(f: CubeFunction) -> None:
    if f.n > MAX_ENUM_N:
        raise ValueError(f"enumerative path refused for n > {MAX_ENUM_N}")


@dataclass(frozen=True)
class NoiseParameter:
    """Time parameter of the biased noise vector xi(t)."""

    t: float

    def __post_init__(self):
        if not 0 <= self.t < math.inf:
            raise ValueError(f"noise time must be finite and >= 0, got {self.t}")

    @property
    def p_plus(self) -> float:
        return (1.0 + math.exp(-self.t)) / 2.0

    @property
    def mean(self) -> float:
        return math.exp(-self.t)

    @property
    def variance(self) -> float:
        return 1.0 - math.exp(-2.0 * self.t)


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible Monte-Carlo batch: (seed, stream, count) fixes the samples."""

    seed: int
    count: int
    stream: int = 0

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("sample count must be positive")

    def generator(self) -> np.random.Generator:
        return stream_generator(self.seed, self.stream)


def _as_noise(t) -> NoiseParameter:
    return t if isinstance(t, NoiseParameter) else NoiseParameter(float(t))


def _noise_average(values: np.ndarray, noise: NoiseParameter, j: int | None = None) -> np.ndarray:
    """out[x] = E_xi[w_j(xi) values[x xor b(xi)]], with bit i of b(xi) marking
    xi_i = -1 and w_j = delta_j(t) (1 when j is None), written over `values`.

    The outcome weights are a product over coordinates, so the expectation is
    one 2 x 2 averaging step per coordinate (`_halves`): O(n 2^n) in all.
    """
    pp = noise.p_plus
    for i in range(values.size.bit_length() - 1):
        a, b = pp, 1.0 - pp
        if i == j:  # delta_j is (1 - e)/sd at xi_j = 1, (-1 - e)/sd at xi_j = -1
            sd = math.sqrt(noise.variance)
            a, b = a * (1.0 - noise.mean) / sd, b * (-1.0 - noise.mean) / sd
        lo, hi = _halves(values, i)
        lo[...], hi[...] = a * lo + b * hi, a * hi + b * lo
    return values


class NoisePair(NamedTuple):
    """Spectral and enumerative computations of the same noise expectation."""

    spectral: CubeFunction
    enumerative: CubeFunction


def exact_noise_expectation(f: CubeFunction, t) -> NoisePair:
    """E_xi[f(eps xi(t))] two independent ways, for cross-checking.

    The spectral path multiplies level k by exp(-tk); the enumerative path
    averages the point values over the outcomes of xi one coordinate at a
    time (refused for n > 14).
    """
    noise = _as_noise(t)
    _check_enum_n(f)
    spectral = heat(f, noise.t)
    return NoisePair(spectral, CubeFunction.from_values(_noise_average(f.values(), noise)))


def verify_heat_representation(f: CubeFunction, t) -> float:
    """Max pointwise gap between exp(-tL)f and the enumerated noise average
    (refused for n > 14), both read as point values: two Walsh transforms."""
    noise = _as_noise(t)
    _check_enum_n(f)
    gap = heat(f, noise.t).values() - _noise_average(f.values(), noise)
    return float(np.max(np.abs(gap)))


def verify_derivative_representation(f: CubeFunction, j: int, t) -> float:
    """Max pointwise gap in the derivative representation at coordinate j.

    Both sides of  exp(-tL) D_j f = e^{-t}(1-e^{-2t})^{-1/2} E[delta_j f(eps xi)]
    are computed exactly (the right side as an expectation over xi); t = 0 is
    rejected because the standardization degenerates.
    """
    noise = _as_noise(t)
    if noise.t <= 0:
        raise ValueError("derivative representation needs t > 0")
    _check_enum_n(f)
    _check_coord(f, j)
    lhs = heat(discrete_derivative(f, j), noise.t).values()

    rhs = _noise_average(f.values(), noise, j)
    rhs *= noise.mean / math.sqrt(noise.variance)
    return float(np.max(np.abs(lhs - rhs)))


class MCEstimate(NamedTuple):
    value: float
    stderr: float
    count: int


def mc_noise_expectation(f, t, batch: SampleBatch, at=None) -> MCEstimate:
    """Monte-Carlo estimate of E_xi[f(eps xi(t))] at the base point `at`.

    `f` may be a CubeFunction or a RadialProfile; `at` defaults to the
    all-ones point.  Unbiased, with the sample standard error reported;
    identical (seed, stream, count) gives bit-identical output.
    """
    noise = _as_noise(t)
    rng = batch.generator()
    if isinstance(f, RadialProfile):
        n = f.n
        base_down = 0 if at is None else signs_to_index(at, n).bit_count()
        # weight of eps*xi = (flips among +1 coords) + (non-flips among -1 coords)
        flips_up = rng.binomial(n - base_down, 1.0 - noise.p_plus, size=batch.count)
        stays_down = rng.binomial(base_down, noise.p_plus, size=batch.count)
        samples = f.v[flips_up + stays_down]
    elif isinstance(f, CubeFunction):
        n = f.n
        vals = f.values()
        base = 0 if at is None else signs_to_index(at, n)
        flip_p, bits = 1.0 - noise.p_plus, 1 << np.arange(n)
        masks = np.empty(batch.count, dtype=np.int64)
        rows = max(1, _BLOCK // n)
        # the doubles are drawn in the order of one (count, n) draw
        draws = np.empty((min(rows, batch.count), n))
        for lo in range(0, batch.count, rows):
            part = masks[lo:lo + rows]
            block = draws[:part.size]
            rng.random(out=block)
            np.matmul(block < flip_p, bits, out=part)
        samples = vals[np.bitwise_xor(masks, base, out=masks)]
    else:
        raise TypeError(f"unsupported operand {type(f).__name__}")
    value = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(batch.count)) if batch.count > 1 else 0.0
    return MCEstimate(value, stderr, batch.count)


def symmetrized_tail_integral(t: float, r: float, numeric: bool = False) -> float:
    """int_0^inf P{|xi_j(t) - xi_j'(t)| > s}^{1/r} ds for an independent copy xi'.

    The difference is 0 or +-2 with P{xi != xi'} = (1 - e^{-2t})/2, so the
    closed form is 2^{1-1/r} (1-e^{-2t})^{1/r}.  With numeric=True the same
    quantity is integrated over s in [0, 2) on a fine midpoint grid instead.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if not t >= 0:  # t = inf is the limit 2^{1-1/r}, finite
        raise ValueError(f"need t >= 0, got {t}")
    p_diff = (1.0 - math.exp(-2.0 * t)) / 2.0
    if not numeric:
        return 2.0 ** (1.0 - 1.0 / r) * (1.0 - math.exp(-2.0 * t)) ** (1.0 / r)
    # midpoint rule on [0, 4]; the tail probability is p_diff on [0, 2), 0 beyond
    grid = np.linspace(0.0, 4.0, 4001)
    mid = (grid[:-1] + grid[1:]) / 2.0
    tail = np.where(mid < 2.0, p_diff, 0.0)
    return float(np.sum(tail ** (1.0 / r) * np.diff(grid)))
