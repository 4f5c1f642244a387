"""Pauli-word matrix model of the cube and its kernel-integral calculus.

Scalar cube functions embed into 2^n x 2^n matrices through

    T_f = sum_A fhat(A) Q_A,      (T_f)[y, x] = fhat(y xor x),

where Q_A flips the bits of A.  Under the normalized trace tr = Tr / 2^n
the embedding is an L^p isometry onto a commutative subalgebra: the
eigenvalue multiset of T_f is exactly the value multiset of f.  Around it
live the anticommuting partners P_j, the projection back onto the Q-span
(a Schatten-norm contraction, taken through the word coefficients and
checked against `project_by_conjugation`, the conjugated diagonal
restriction), and the rotation group

    rotate(T, theta) = A_theta^* T A_theta,  A_theta = diag(1, e^{i theta})^{(x) n},

which turns Q_j into cos(theta) Q_j + sin(theta) P_j and preserves every
Schatten norm.  The singular kernel sgn(theta)/sqrt(-log cos theta) on
(-pi/2, pi/2) integrates the rotated derivation back into the half-power
of the Laplacian:

    T_{D_j L^{-1/2} f} = (1/c) proj_Q  int  K(theta) rotate(P_j d_j T_f, -theta) dtheta,

with c the kernel's own normalization integral, taken on one fixed 192-node
rule (`QuadratureRule`) that meets the kernel's moment law to about 1e-15
because its denominator is computed without cancellation (`kernel_t`).
Note the inverse rotation inside the integral: with the rotation oriented as
above (the convention that also matches the generator sum_j P_j d_j), the
forward rotation would flip the sign of the identity.

A rotation scales entry [y, x] by a phase in the level gap |x| - |y|, so the
rotation and the kernel integral are both (2n+1)-entry level-gap multipliers
read through one shared index table.

Every matrix is a plain complex 2^n x 2^n numpy array, n <= 10, checked
once per public call that takes one (`_square`); all Schatten norms go
through SVD.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cube import (CubeFunction, VectorCubeFunction, _check_coord, _halves, _xor_grid,
                   character, frac_power, levels, partial_derivative, riesz)
from .inequalities import InequalityInstance, RatioReport
from .norms import MixedNormSpec, _rescale, _unscale
from . import inequalities

MAX_QUBITS = 10
MAX_FORMULA_QUBITS = 6

Q2 = np.array([[0, 1], [1, 0]], dtype=complex)
P2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
U2 = 1j * (Q2 @ P2)
I2 = np.eye(2, dtype=complex)
_LETTERS = {"I": I2, "Q": Q2, "P": P2, "U": U2}


class QuadratureAccuracyError(RuntimeError):
    pass


def _check_qubits(n: int, cap: int = MAX_QUBITS) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"qubit count must be in [1, {cap}], got {n}")


def _square(T) -> tuple[np.ndarray, int]:
    """T as a complex 2^n x 2^n array, and its n: the one check of every matrix
    argument.  The shape (2-D, square, 2^n with 1 <= n <= MAX_QUBITS) is checked
    before any entry is read, then the entries must be finite; ValueError otherwise."""
    mat = np.asarray(T)
    m = mat.shape[0] if mat.ndim == 2 else 0
    n = m.bit_length() - 1
    if mat.shape != (m, m) or not 1 <= n <= MAX_QUBITS or m != 1 << n:
        raise ValueError(f"expected a 2^n x 2^n matrix with 1 <= n <= {MAX_QUBITS}, "
                         f"got shape {mat.shape}")
    mat = mat.astype(complex, copy=False)
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat, n


@dataclass(frozen=True)
class PauliWord:
    """One letter from {I, Q, P, U} per coordinate (coordinate 0 first)."""

    letters: tuple

    def __post_init__(self):
        if not self.letters or any(c not in _LETTERS for c in self.letters):
            raise ValueError("letters must be a nonempty sequence over I, Q, P, U")

    @property
    def n(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        """The dense 2^n x 2^n matrix of the word."""
        _check_qubits(self.n)  # before the kron products
        # coordinate i owns bit i of the index, so factor order is reversed
        return functools.reduce(np.kron, [_LETTERS[c] for c in reversed(self.letters)])


# -- the commutative embedding -------------------------------------------------


def embed(f: CubeFunction) -> np.ndarray:
    """T_f = sum_A fhat(A) Q_A, assembled entrywise as fhat(y xor x)."""
    _check_qubits(f.n)
    return f.coeffs[_xor_grid(f.n)].astype(complex)


def extract_q_coefficients(T) -> np.ndarray:
    """Coefficients of T on the Q-words: c(A) = tr(Q_A T) = mean_x T[x xor A, x]."""
    mat, n = _square(T)
    idx = np.arange(1 << n)
    return mat[_xor_grid(n), idx[None, :]].mean(axis=1)


def schatten_norms(T, ps, normalizer: int | None = None) -> list[float]:
    """sigma_p norms (tr[(T^* T)^{p/2}])^{1/p}, tr = Tr / normalizer, for each p
    in `ps`, all from one spectrum (one `svd(compute_uv=False)`).

    The normalizer defaults to the column count, which is the cube factor
    2^n both for square observables and for column-stacked blocks; pass it
    explicitly for other block shapes.  p = inf is the operator norm.  Out of
    the float range of s^p, s is scaled by a power of two as in `lp_norm`.
    """
    ps = list(ps)
    for p in ps:
        if not p >= 1:
            raise ValueError(f"exponent must be in [1, inf], got {p}")
    mat = np.asarray(T, dtype=complex)
    s = np.linalg.svd(mat, compute_uv=False)
    d = normalizer if normalizer is not None else mat.shape[1]
    scaled = [_rescale(s, MixedNormSpec.scalar(p), copy=True) for p in ps]  # k = 0 at p = inf
    return [float(a[0]) if np.isinf(p) else _unscale(((a**p).sum() / d) ** (1.0 / p), k)
            for p, (a, k) in zip(ps, scaled)]


def schatten_norm(T, p: float, normalizer: int | None = None) -> float:
    """The one sigma_p norm of `schatten_norms`."""
    return schatten_norms(T, [p], normalizer)[0]


# -- projection onto the Q-span -------------------------------------------------


@functools.lru_cache(maxsize=16)
def rho_matrix(n: int) -> np.ndarray:
    """The unitary r^{(x) n} with r = [[1,1],[-1,1]]/sqrt(2) conjugating
    the Q-span onto the diagonal."""
    r = np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2)
    return functools.reduce(np.kron, [r] * n)


def project_Q(T) -> np.ndarray:
    """Orthogonal projection onto span{Q_A}, through the word coefficients;
    a contraction in every sigma_p."""
    c = extract_q_coefficients(T)
    return c[_xor_grid(c.size.bit_length() - 1)]


def project_by_conjugation(T) -> np.ndarray:
    """project_Q as the dense rho Diag(rho^* T rho) rho^*: the reference that
    `cubeineq quantum projection` and the tests compare project_Q against."""
    mat, n = _square(T)
    rho = rho_matrix(n)
    return rho @ np.diag(np.diag(rho.conj().T @ mat @ rho)) @ rho.conj().T


# -- rotation group and derivation ---------------------------------------------


@functools.lru_cache(maxsize=16)
def _level_gap(n: int) -> np.ndarray:
    """Read-only 2^n x 2^n table [y, x] -> |x| - |y| + n: the index of an
    entry's level gap into a multiplier over the gaps -n..n."""
    lev = levels(n).astype(np.intp)
    gap = lev[None, :] - lev[:, None] + n
    gap.setflags(write=False)
    return gap


def rotate(T, theta: float) -> np.ndarray:
    """A_theta^* T A_theta with A_theta = diag(1, e^{i theta})^{(x) n}.

    Sends Q_j to cos(theta) Q_j + sin(theta) P_j and P_j to
    cos(theta) P_j - sin(theta) Q_j; an isometry of every sigma_p.
    """
    mat, n = _square(T)
    return mat * np.exp(1j * theta * np.arange(-n, n + 1))[_level_gap(n)]


def apply_p_left(M, j: int) -> np.ndarray:
    """Left-multiply by P_j without forming it: row y picks i(-1)^{y_j} M[y xor e_j]."""
    mat, _ = _square(M)
    out = np.empty(mat.shape, dtype=complex)
    (out_lo, out_hi), (lo, hi) = _halves(out.T, j), _halves(mat.T, j)
    np.multiply(1j, hi, out=out_lo)
    np.multiply(-1j, lo, out=out_hi)
    return out


def derivation(f: CubeFunction) -> np.ndarray:
    """D(T_f) = sum_j P_j d_j T_f, the generator of the rotation group."""
    return sum(apply_p_left(embed(partial_derivative(f, j)), j) for j in range(f.n))


# -- singular kernel quadrature --------------------------------------------------


def kernel_t(theta) -> np.ndarray:
    """t(theta) = sqrt(-log cos theta), the kernel's denominator, computed as
    sqrt(-log1p(-2 sin^2(theta/2))): log(cos theta) would cancel against
    cos theta ~ 1 near 0 and lose up to half the digits there."""
    return np.sqrt(-np.log1p(-2.0 * np.sin(theta / 2.0) ** 2))


class QuadratureRule:
    """Nodes and kernel-inclusive weights for int K(theta) F(theta) dtheta.

    K(theta) = sgn(theta)/t(theta) is odd and blows up like sqrt(2)/|theta|
    at zero, so the rule stores positive nodes only and evaluates the exact
    odd part, sum_k w_k (F(theta_k) - F(-theta_k)); the admissible
    integrands vanish linearly at 0, making the products analytic there.
    Three 24-node Gauss-Legendre panels cover [0, 1]; beyond, the
    substitution u = -log cos theta turns the endpoint into a smooth
    exponential tail integrated on six 20-node geometric panels: 192 nodes
    in all.  With the cancellation-free `kernel_t` the rule meets the
    kernel's own moment law to about 1e-15; `declared_accuracy` is that
    verified precision, checked against the moment law before the
    normalization integral is handed out (it is measured, never assumed).
    """

    _THETA_PANELS = (0.0, 0.25, 0.5, 1.0)
    _U_OFFSETS = (0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0)
    declared_accuracy = 1e-13

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.nodes = np.asarray(nodes, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self._norm_const: float | None = None

    @classmethod
    def build(cls) -> "QuadratureRule":
        gx, gw = np.polynomial.legendre.leggauss(24)
        nodes, weights = [], []
        for a, b in zip(cls._THETA_PANELS, cls._THETA_PANELS[1:]):
            x = (b - a) / 2 * gx + (a + b) / 2
            nodes.append(x)
            weights.append((b - a) / 2 * gw / kernel_t(x))
        u_lo = -math.log(math.cos(cls._THETA_PANELS[-1]))
        gx, gw = np.polynomial.legendre.leggauss(20)
        u_panels = [u_lo + off for off in cls._U_OFFSETS]
        for a, b in zip(u_panels, u_panels[1:]):
            u = (b - a) / 2 * gx + (a + b) / 2
            jac = np.exp(-u) / np.sqrt(1.0 - np.exp(-2.0 * u))
            nodes.append(np.arccos(np.exp(-u)))
            weights.append((b - a) / 2 * gw * jac / np.sqrt(u))
        return cls(np.concatenate(nodes), np.concatenate(weights))

    def integrate(self, F) -> np.ndarray:
        """sum_k w_k (F(theta_k) - F(-theta_k)), in fixed node order."""
        total = None
        for theta, w in zip(self.nodes, self.weights):
            term = w * (F(theta) - F(-theta))
            total = term if total is None else total + term
        return total

    def moment(self, m: int) -> float:
        """int cos^m(theta) sin(theta) K(theta) dtheta (decays like (m+1)^{-1/2})."""
        if m < 0:
            raise ValueError(f"need m >= 0, got {m}")
        c, s = np.cos(self.nodes), np.sin(self.nodes)
        return float(2.0 * np.sum(self.weights * c**m * s))

    def constancy_defect(self, max_m: int = 64) -> float:
        """Max deviation of moment(m) * sqrt(m+1) from its mean over m <= max_m."""
        prods = np.array([self.moment(m) * math.sqrt(m + 1) for m in range(max_m + 1)])
        return float(np.max(np.abs(prods - prods.mean())))

    def normalizing_constant(self) -> float:
        """c = moment(0), with the moment law checked at the declared accuracy."""
        if self._norm_const is None:
            defect = self.constancy_defect()
            if defect > self.declared_accuracy:
                raise QuadratureAccuracyError(
                    f"kernel moment law violated by {defect:.3e} "
                    f"(declared {self.declared_accuracy:.1e})")
            self._norm_const = self.moment(0)
        return self._norm_const


def kernel_transform(G, quad: QuadratureRule) -> np.ndarray:
    """int K(theta) rotate(G, -theta) dtheta (the orientation under which the
    half-power representation below holds with a positive constant):
    G * kappa[|x| - |y|] with kappa(delta) = -2i sum_k w_k sin(theta_k delta).
    """
    mat, n = _square(G)
    gaps = np.arange(-n, n + 1)
    # integrate's odd sum over every node at once; reducing axis 0 adds the
    # node rows in node order, so kappa has integrate's bits
    theta = quad.nodes[:, None]
    terms = quad.weights[:, None] * (np.exp(-1j * theta * gaps) - np.exp(-1j * -theta * gaps))
    kappa = np.add.reduce(terms, axis=0)
    return mat * kappa[_level_gap(n)]


_QA_THETAS = (0.3, 0.9, 1.4)  # the rotation angles qa_word_defect samples


@functools.lru_cache(maxsize=32)
def qa_word_defect(n: int, j: int) -> float:
    """Max defect of proj_Q(rotate(P_j d_j Q_A, -theta)) = cos^{|A|-1} sin(theta) Q_A
    over every basis word A and the sampled rotation angles; cached, as no
    function enters it."""
    _check_qubits(n, MAX_FORMULA_QUBITS)
    worst = 0.0
    for A in range(1 << n):
        if not (A >> j) & 1:
            continue
        g = apply_p_left(embed(character(n, A ^ (1 << j))), j)
        q_a, k = embed(character(n, A)), int(levels(n)[A]) - 1
        for theta in _QA_THETAS:
            lhs = project_Q(rotate(g, -theta))
            expect = q_a * (math.cos(theta) ** k * math.sin(theta))
            worst = max(worst, float(np.max(np.abs(lhs - expect))))
    return worst


def verify_qa_formula(f: CubeFunction, j: int, quad: QuadratureRule) -> float:
    """Residual of the kernel-integral representation of D_j L^{-1/2}.

    Compares T_{D_j L^{-1/2} f} with (1/c) proj_Q int K rotate(P_j d_j T_f, -theta),
    and folds in the per-word rotation identity defect.
    """
    _check_qubits(f.n, MAX_FORMULA_QUBITS)
    _check_coord(f, j)
    c = quad.normalizing_constant()
    lhs = embed(riesz(f, j))
    g = apply_p_left(embed(partial_derivative(f, j)), j)
    rhs = project_Q(kernel_transform(g, quad)) / c
    residual = float(np.max(np.abs(lhs - rhs)))
    return max(residual, qa_word_defect(f.n, j))


def verify_elpF(f: CubeFunction, quad: QuadratureRule) -> float:
    """Residual of T_{L^{1/2} f} = (1/c) proj_Q int K rotate(D(T_f), -theta) dtheta
    for mean-zero f (the derivation sums the per-coordinate integrands)."""
    _check_qubits(f.n, MAX_FORMULA_QUBITS)
    if abs(f.mean) > 1e-12:
        raise ValueError("the half-power representation needs a mean-zero function")
    c = quad.normalizing_constant()
    lhs = embed(frac_power(f, -0.5))
    rhs = project_Q(kernel_transform(derivation(f), quad)) / c
    return float(np.max(np.abs(lhs - rhs)))


# -- vector-valued block embeddings ----------------------------------------------


def block_column(F: VectorCubeFunction) -> np.ndarray:
    """C_F: the T_{f^r} stacked vertically; sigma_p of it is the L^p(ell^2) norm."""
    _check_block(F.n, F.R)
    return np.vstack([embed(c) for c in F.components])


def block_diag(F: VectorCubeFunction) -> np.ndarray:
    """D_F: the T_{f^r} on the diagonal; sigma_p of it (cube-normalized)
    is the L^p(ell^p) norm."""
    _check_block(F.n, F.R)
    m, r = 1 << F.n, np.arange(F.R)
    out = np.zeros((F.R, m, F.R, m), dtype=complex)
    out[r, :, r, :] = [embed(c) for c in F.components]  # block (r, r) is T_{f^r}
    return out.reshape(F.R * m, F.R * m)


def block_column_norm(F: VectorCubeFunction, p: float) -> float:
    return schatten_norm(block_column(F), p, normalizer=1 << F.n)


def block_diag_norm(F: VectorCubeFunction, p: float) -> float:
    return schatten_norm(block_diag(F), p, normalizer=1 << F.n)


def _check_block(n: int, R: int) -> None:
    if n > 8 or R > 8:
        raise ValueError(f"block embeddings capped at n <= 8, R <= 8; got n={n}, R={R}")


def epi_quantum_ratio(family, p: float) -> RatioReport:
    """|| sum_j D_j L^{-1/2} f_j ||_p against the square-function norm.

    The matrix proof bounds this ratio by C p^{3/2}; the evaluator itself is
    a cube-side computation (catalog entry EPI), exposed here beside the
    machinery that proves it.
    """
    family = list(family)
    if not family:
        raise ValueError("epi needs a family of n >= 1 functions")
    if p < 2:
        raise ValueError(f"the endpoint estimate concerns p >= 2, got {p}")
    instance = InequalityInstance("EPI", n=family[0].n, p=p)
    return inequalities.evaluate(instance, family)
