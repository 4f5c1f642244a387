"""Walsh-Fourier representation of functions on the sign cube {-1,1}^n.

A function f on the cube is a multilinear polynomial

    f(eps) = sum_A  fhat(A) * prod_{i in A} eps_i,

indexed by subsets A of {0,..,n-1}.  We store the coefficient vector fhat
over subset bitmasks (bit i of the mask <-> coordinate i, little-endian).
The three operand classes share one base, `_CoeffArray`: one validated array
`coeffs` with fhat on its last axis, shaped (2^n,) for a CubeFunction, (R, 2^n)
for the R components of a VectorCubeFunction, and (2^n_delta, 2^n) for a
BiCubeFunction F(eps, delta), one eps-coefficient row per point delta.  Every
operator below acts on that last axis and returns the same class.  The
coordinate operators act on the halves of that axis split by bit i (`_halves`,
the one place that knows the layout): D_i keeps the terms with i in A,
partial_i moves them onto A\\{i}, and a translation flips their signs.
Only the level multipliers go through `levels`:

    Laplacian  L        multiplies level k by k          (L = sum_i D_i),
    heat       P_t      multiplies level k by exp(-t*k),
    frac_power L^{-a}   multiplies level k by k^{-a}, kills the mean,
    Riesz      R_i      = D_i L^{-1/2}.

Above `_BLOCK` coefficients a level multiplier gathers its table a block at a
time into one reused buffer, so it makes no 2^n temporary beside its result.
Values and coefficients are one `walsh_transform` apart.  Its 15 low stages
run in constant geometry (Pease's ordering): each writes the sums and the
differences of the even and odd positions to the two halves of a second
buffer, pairing the values of the textbook in-place stages in the same
operand order; its high stages pair whole rows of `_BLOCK` values in place.
It holds one block buffer beside its output.

Point values use the index convention eps_i(x) = +1 if bit i of x is 0 and
-1 otherwise, so the bitmask of -1 coordinates is the point index and the
Hamming weight of x equals dist(eps, all-ones).

The sign convention is fixed once: L is the *positive* operator with
eigenvalue |A| on the character of A, and the heat semigroup is exp(-t*L).
"""

from __future__ import annotations

import functools
import json

import numpy as np

MAX_DENSE_N = 24
# numpy 2.4 (2-core x86) ran ~6x slower per element on temporaries >= 512 KiB
_BLOCK = 1 << 15  # float64 values per cache-resident block (256 KiB)


def _dot(x: np.ndarray, y: np.ndarray):
    """sum_i x[i] y[i] of two 1-D arrays as a Python scalar, by numpy's own loop on
    one thread: OpenBLAS runs a dot of over 10^4 entries on all its threads, in an
    order that depends on their count, and leaves a worker spinning after it."""
    return np.einsum("i,i->", x, y).item()


def _check_dense_n(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_N:
        raise ValueError(f"dense cube dimension must be in [1, {MAX_DENSE_N}], got {n}")


def _stages(src: np.ndarray, out: np.ndarray, buf: np.ndarray, k: int) -> None:
    """The k Walsh stages along axis 0 of a (2^k, width) array `src`, written to
    `out`, which is `src` itself or does not overlap it; `buf`, of the same
    shape and overlapping neither, holds the stages between.

    Each stage (constant geometry) reads the even and the odd positions of axis 0
    and writes their sums (a0 + a1) to the first half of the other array and
    their differences (a0 - a1) to its second half.  That rotates the index bits
    right by one, so stage s pairs what was bit s, and after the k-th stage the
    order is natural.  The destinations alternate between `out` and `buf` so
    that the last is `out`; when the first would then be `src`, it starts from
    a copy of `src` in `buf`.
    """
    if k & 1 and np.may_share_memory(src, out):
        buf[...] = src
        src = buf
    elif not k:
        out[...] = src
    dst, other = (out, buf) if k & 1 else (buf, out)
    half = len(src) // 2
    for _ in range(k):
        even, odd = src[0::2], src[1::2]
        np.add(even, odd, out=dst[:half])
        np.subtract(even, odd, out=dst[half:])
        src, dst, other = dst, other, dst


def walsh_transform(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis,
    out[..., k] = sum_x a[..., x] * (-1)^|x&k|.

    The last axis must have power-of-two length 2^n; cost O(n 2^n) per row.
    Self-inverse up to the factor 2^n.  Rows of at most `_BLOCK` values run
    their stages in constant geometry (`_stages`) in groups, from the input to
    the output through one block buffer.  On a longer last axis, high stage
    s = 0, 1, ... then pairs the rows h = 2^s apart in place, holding the sums
    in that buffer.  Each value gets the additions of the stage-by-stage
    transform in the same order, so the output is bit-identical to it, and a
    batched call equals row-by-row calls.  A C-contiguous float64 array is
    read, never written; any other input is copied to one, and the copy is the output.
    """
    copied = not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous)
    src = np.array(a, dtype=np.float64, order="C") if copied else np.asarray(a)
    m = src.shape[-1]
    if m == 0 or m & (m - 1):
        raise ValueError(f"length must be a power of two, got {m}")
    n = m.bit_length() - 1
    out = src if copied else np.empty(src.shape)
    lo = min(n, _BLOCK.bit_length() - 1)
    rows, dest = src.reshape(-1, 1 << lo), out.reshape(-1, 1 << lo)
    buf = np.empty(min(out.size, _BLOCK))
    step = _BLOCK >> lo
    for r in range(0, len(rows), step):
        part = dest[r:r + step]
        _stages(rows[r:r + step].T, part.T, buf[:part.size].reshape(part.shape).T, lo)
    for s in range(n - lo):
        for group in dest.reshape(-1, 2, 1 << s, 1 << lo):  # 2h rows of one lead row
            for a0, a1 in zip(*group):
                np.add(a0, a1, out=buf)
                np.subtract(a0, a1, out=a1)
                a0[...] = buf
    return out


@functools.lru_cache(maxsize=16)
def _xor_grid(n: int) -> np.ndarray:
    """Read-only 2^n x 2^n table of x xor y."""
    idx = np.arange(1 << n)
    grid = np.bitwise_xor.outer(idx, idx)
    grid.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=16)
def levels(n: int) -> np.ndarray:
    """Read-only uint8 |A| for every subset bitmask A of {0..n-1}, in index order."""
    lev = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    lev.setflags(write=False)
    return lev


def sign_table(masks, k: int) -> np.ndarray:
    """(len(masks), k) table of +-1: entry [r, i] is +1 if bit i of masks[r] is clear, -1 if set."""
    return 1.0 - 2.0 * (np.asarray(masks)[:, None] >> np.arange(k) & 1)


def signs_to_index(eta, n: int) -> int:
    """Bitmask of the -1 coordinates of a sign vector of length n with entries +-1."""
    eta = np.asarray(eta)
    down = eta == -1
    if eta.shape != (n,) or not np.all(down | (eta == 1)):
        raise ValueError(f"expected a sign vector of length {n} with entries +-1")
    return int.from_bytes(np.packbits(down, bitorder="little").tobytes(), "little")


class _CoeffArray:
    """The one coefficient array of every operand class: Walsh coefficients on
    the last axis of `coeffs`, shaped (2^n,) for a CubeFunction and (rows, 2^n)
    for the rows of a VectorCubeFunction or a BiCubeFunction."""

    __slots__ = ("n", "coeffs")
    _ROWS = None  # no row axis; else the name of the row count, a power of two unless "R"

    def _set(self, n: int, coeffs) -> None:
        """Check the coefficient shape and store the fields: the one shape check."""
        _check_dense_n(n)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        rows = coeffs.shape[:-1]  # () or (count,)
        if (coeffs.shape[-1:] != (1 << n,) or len(rows) != (self._ROWS is not None)
                or rows and (rows[0] < 1 or self._ROWS != "R" and rows[0] & (rows[0] - 1))):
            want = 1 << n if self._ROWS is None else f"({self._ROWS}, {1 << n})"
            raise ValueError(f"expected {want} coefficients for n={n}, got {coeffs.shape}")
        self.n, self.coeffs = n, coeffs

    @classmethod
    def from_coeffs(cls, n: int, coeffs):
        """The operand with Walsh coefficients `coeffs` (row r: coeffs[r]), taken as they are."""
        F = cls.__new__(cls)
        F._set(n, coeffs)
        return F

    def _with(self, coeffs):
        return self.from_coeffs(self.n, coeffs)

    def values(self) -> np.ndarray:
        """Point values, the Walsh synthesis of each row of `coeffs`."""
        return walsh_transform(self.coeffs)

    def __add__(self, other):
        if type(other) is not type(self) or self.coeffs.shape != other.coeffs.shape:
            raise ValueError(f"shape mismatch: {type(self).__name__} {self.coeffs.shape} + "
                             f"{type(other).__name__} {np.shape(getattr(other, 'coeffs', None))}")
        return self._with(self.coeffs + other.coeffs)

    def __mul__(self, scalar):
        return self._with(self.coeffs * float(scalar))

    __rmul__ = __mul__


class CubeFunction(_CoeffArray):
    """Real-valued function on {-1,1}^n stored by Walsh coefficients.

    `coeffs[A]` is the coefficient of prod_{i in A} eps_i for the subset
    bitmask A.
    """

    __slots__ = ()

    def __init__(self, n: int, coeffs):
        self._set(n, coeffs)

    # -- construction / evaluation ------------------------------------------

    @classmethod
    def from_values(cls, values) -> "CubeFunction":
        coeffs = walsh_transform(values)
        m = coeffs.shape[-1]
        return cls(m.bit_length() - 1, coeffs / m)

    def __call__(self, eps) -> float:
        return float(self.values()[signs_to_index(eps, self.n)])

    @property
    def mean(self) -> float:
        return float(self.coeffs[0])

    # -- arithmetic: a scalar adds to the mean, a product is pointwise ------

    def __add__(self, other):
        if isinstance(other, CubeFunction):
            return super().__add__(other)
        out = self.coeffs.copy()
        out[0] += float(other)
        return self._with(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if not isinstance(other, CubeFunction):
            return super().__mul__(other)
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return CubeFunction.from_values(self.values() * other.values())

    __rmul__ = __mul__

    # -- file format ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"n": self.n, "basis": "walsh-bitmask-le", "coeffs": self.coeffs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "CubeFunction":
        if d.get("basis") != "walsh-bitmask-le":
            raise ValueError(f"unsupported basis {d.get('basis')!r}")
        return cls(int(d["n"]), np.asarray(d["coeffs"], dtype=np.float64))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "CubeFunction":
        return cls.from_dict(json.loads(s))

    def __repr__(self):
        return f"CubeFunction(n={self.n})"


def character(n: int, mask: int) -> CubeFunction:
    """The Walsh character prod_{i in mask} eps_i."""
    c = np.zeros(1 << n)
    c[mask] = 1.0
    return CubeFunction(n, c)


def fwht(values) -> CubeFunction:
    """Analysis: point values -> Walsh coefficients (normalized by 2^n)."""
    return CubeFunction.from_values(values)


def random_function(n: int, rng: np.random.Generator, mean_zero: bool = False) -> CubeFunction:
    """Standard-normal random coefficients (unit-scale generic test input)."""
    c = rng.standard_normal(1 << n)
    if mean_zero:
        c[0] = 0.0
    return CubeFunction(n, c)


# -- operators ---------------------------------------------------------------


def _halves(a: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the entries of `a` whose last-axis index has bit i clear, and set."""
    x = a.reshape(*a.shape[:-1], -1, 2, 1 << i)  # splitting one axis never copies
    return x[..., 0, :], x[..., 1, :]


def partial_derivative(f: CubeFunction, i: int) -> CubeFunction:
    """partial_i: moves the coefficient of A onto A\\{i} for every A containing i."""
    _check_coord(f, i)
    out = np.zeros_like(f.coeffs)
    _halves(out, i)[0][...] = _halves(f.coeffs, i)[1]
    return f._with(out)


def discrete_derivative(f: CubeFunction, i: int) -> CubeFunction:
    """D_i = eps_i * partial_i: keeps exactly the coefficients of A containing i."""
    _check_coord(f, i)
    out = f.coeffs.copy()
    lo, _ = _halves(out, i)
    lo *= 0.0  # not = 0.0: x * 0.0 keeps the sign of a negative x
    return f._with(out)


def _check_coord(f: CubeFunction, i: int) -> None:
    if not 0 <= i < f.n:
        raise ValueError(f"coordinate {i} out of range for n={f.n}")


def _times_levels(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """coeffs[..., A] * table[|A|] for every mask A, in a new array."""
    lev = levels(coeffs.shape[-1].bit_length() - 1)
    if lev.size <= _BLOCK:
        # take, not table[...]: numpy gathers by a uint8 index array much slower
        return coeffs * table.take(lev)
    out = np.empty(coeffs.shape)
    buf = np.empty(_BLOCK)
    for lo in range(0, lev.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        # mode="raise" (the default) would buffer the whole output of take(out=)
        np.multiply(coeffs[..., part], table.take(lev[part], out=buf, mode="clip"),
                    out=out[..., part])
    return out


def apply_multiplier(f: CubeFunction, m) -> CubeFunction:
    """Spectral calculus: fhat(A) -> m[|A|] * fhat(A), for an array `m` of length n+1.

    Any other length is refused with ValueError; a callable is not an array of
    numbers, and numpy refuses it with TypeError.
    """
    table = np.asarray(m, dtype=np.float64)
    if table.shape != (f.n + 1,):
        raise ValueError(f"multiplier table must have length n+1={f.n + 1}")
    return f._with(_times_levels(f.coeffs, table))


def laplacian(f: CubeFunction) -> CubeFunction:
    """L = sum_i D_i, the positive cube Laplacian with eigenvalue |A|."""
    return apply_multiplier(f, np.arange(f.n + 1, dtype=np.float64))


def heat(f: CubeFunction, t: float) -> CubeFunction:
    """Heat semigroup exp(-t L); multiplies level k by exp(-t k)."""
    if not 0 <= t < np.inf:  # at t = inf, exp(-t * 0) is nan
        raise ValueError(f"heat flow needs a finite t >= 0, got {t}")
    return apply_multiplier(f, np.exp(-t * np.arange(f.n + 1)))


def _frac_table(n: int, a: float) -> np.ndarray:
    """The level table of L^{-a}: k^{-a} for k >= 1 and 0 at level 0."""
    table = np.arange(n + 1, dtype=np.float64)
    table[1:] = table[1:] ** (-a)
    table[0] = 0.0
    return table


def frac_power(f: CubeFunction, a: float) -> CubeFunction:
    """L^{-a} on f - E f: multiplies level k >= 1 by k^{-a} and level 0 by 0.

    Any mean is dropped, whatever the sign of a, so frac_power(f, 0.0) is
    f - E f.
    """
    return apply_multiplier(f, _frac_table(f.n, a))


def riesz(f: CubeFunction, i: int) -> CubeFunction:
    """Riesz transform R_i = D_i L^{-1/2}, as one multiply.

    The bit-clear half of the product is zeroed in place by `* 0.0`; since
    every k^{-1/2} >= 0 this gives the bits of D_i applied first or last,
    signed zeros included.
    """
    _check_coord(f, i)
    out = _times_levels(f.coeffs, _frac_table(f.n, 0.5))
    lo, _ = _halves(out, i)
    lo *= 0.0
    return f._with(out)


def gradient(f: CubeFunction) -> list[CubeFunction]:
    return [partial_derivative(f, i) for i in range(f.n)]


def group_translate(f: CubeFunction, eta) -> CubeFunction:
    """f_eta(eps) = f(eps * eta); in coefficients fhat(A) -> eta^A fhat(A).

    Commutes with every spectral operator (translation is a cube symmetry).
    """
    h = signs_to_index(eta, f.n)
    out = f.coeffs.copy()
    for i in range(f.n):
        if h >> i & 1:
            _, hi = _halves(out, i)
            hi *= -1.0
    return f._with(out)


def permute_coordinates(f: CubeFunction, perm) -> CubeFunction:
    """Relabel coordinate i as perm[i]; fhat(A) moves to the relabeled mask."""
    perm = np.asarray(perm)
    if (perm.dtype.kind not in "iu" or perm.shape != (f.n,)
            or not np.array_equal(np.sort(perm), np.arange(f.n))):
        raise ValueError("perm must be a permutation of 0..n-1")
    # as a (2,)*n array, axis k holds bit n-1-k; output bit perm[i] reads input bit i
    lead = f.coeffs.shape[:-1]
    axes = (*range(len(lead)), *(len(lead) + f.n - 1 - np.argsort(perm)[::-1]))
    return f._with(f.coeffs.reshape(*lead, *(2,) * f.n).transpose(axes).reshape(f.coeffs.shape))


# -- vector- and two-variable functions ---------------------------------------


class VectorCubeFunction(_CoeffArray):
    """An ell^q_R-valued function on {-1,1}^n: row r of `coeffs` holds the Walsh
    coefficients of component r."""

    __slots__ = ()
    _ROWS = "R"

    def __init__(self, components):
        components = list(components)
        if not components or any(c.n != components[0].n for c in components):
            raise ValueError("need one or more components, all with the same n")
        self._set(components[0].n, np.stack([c.coeffs for c in components]))

    R = property(lambda self: self.coeffs.shape[0])

    @property
    def components(self) -> list[CubeFunction]:
        """The R components, each viewing one row of `coeffs`."""
        return [CubeFunction(self.n, row) for row in self.coeffs]


class BiCubeFunction(_CoeffArray):
    """Real function F(eps, delta) on a product cube, whose row delta of `coeffs`
    holds the eps-Walsh coefficients of F(., delta); so `n` is n_eps.  The
    constructor takes, and `values` gives, the (eps, delta) value grid."""

    __slots__ = ()
    _ROWS = "2^n_delta"

    def __init__(self, n_eps: int, n_delta: int, values):
        _check_dense_n(n_eps)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (1 << n_eps, 1 << n_delta):
            raise ValueError(f"value grid must be 2^{n_eps} x 2^{n_delta}")
        self._set(n_eps, walsh_transform(values.T) / (1 << n_eps))

    R = property(lambda self: self.coeffs.shape[0])
    n_eps = property(lambda self: self.n)
    n_delta = property(lambda self: self.R.bit_length() - 1)

    @property
    def values(self) -> np.ndarray:
        """The (2^n_eps, 2^n_delta) grid of values F(eps, delta)."""
        return walsh_transform(self.coeffs).T

    @classmethod
    def from_sign_family(cls, family) -> "BiCubeFunction":
        """F(eps, delta) = sum_j delta_j f_j(eps) from cube functions f_j, summed in j order."""
        rows = np.stack([fj.coeffs for fj in family])
        coeffs = np.zeros((1, rows.shape[1]))
        for row in rows:  # the rows with bit j of delta clear add f_j, the others subtract it
            coeffs = np.concatenate([coeffs + row, coeffs - row])
        return cls.from_coeffs(rows.shape[1].bit_length() - 1, coeffs)

    @classmethod
    def from_translate(cls, f: CubeFunction) -> "BiCubeFunction":
        """F(eps, eta) = f(eps * eta): row eta holds fhat(A) eta^A, a Walsh matrix entry."""
        return cls.from_coeffs(f.n, walsh_transform(np.eye(1 << f.n)) * f.coeffs)

    def marginal(self, j: int) -> CubeFunction:
        """F_j(eps) = E_delta[ delta_j F(eps, delta) ]."""
        if not 0 <= j < self.n_delta:
            raise ValueError(f"coordinate {j} out of range for n_delta={self.n_delta}")
        plus, minus = _halves(self.coeffs.T, j)  # the rows with delta_j = +1, and -1
        return CubeFunction(self.n, (plus.sum(axis=(-2, -1)) - minus.sum(axis=(-2, -1))) / self.R)

    def marginals(self) -> list[CubeFunction]:
        return [self.marginal(j) for j in range(self.n_delta)]

    def map_eps(self, op) -> "BiCubeFunction":
        """op(self): kept as the L^q layer's name in `perfbench`; the package never calls it."""
        return op(self)
