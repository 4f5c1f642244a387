import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubeineq.quantum as qt
from cubeineq.cube import (
    CubeFunction,
    VectorCubeFunction,
    character,
    discrete_derivative,
    partial_derivative,
    random_function,
)
from cubeineq.norms import MixedNormSpec, lp_norm, mixed_norm
from cubeineq.rng import stream_generator

from conftest import (apply_p_left_reference, conjugate_nu, conjugate_nu_inv,
                      kernel_transform_reference, p_word, pauli_inner, pauli_word, q_word,
                      qa_word_defect_reference, rotate_reference, same_bytes)


@pytest.fixture(scope="module")
def quad():
    return qt.QuadratureRule.build()


def test_base_matrices():
    assert np.allclose(qt.U2, np.diag([1.0, -1.0]))
    assert np.max(np.abs(qt.Q2 @ qt.P2 + qt.P2 @ qt.Q2)) == 0.0


def test_word_orthonormality_and_completeness():
    n = 3
    words = [qt.PauliWord(w) for w in itertools.product("IQPU", repeat=n)]
    mats = [w.matrix() for w in words]
    for i, X in enumerate(mats):
        for k, Y in enumerate(mats):
            inner = pauli_inner(X, Y)
            expect = 1.0 if i == k else 0.0
            assert abs(inner - expect) < 1e-12
    # 4^n orthonormal elements span the full matrix algebra
    assert len(mats) == (1 << n) ** 2


def test_word_matrix_checks_the_qubit_cap_first():
    with pytest.raises(ValueError, match=r"qubit count must be in \[1, 10\]"):
        pauli_word("I" * 11).matrix()


def test_embed_two_by_two():
    f = CubeFunction(1, [0.7, -0.3])  # a + b eps
    T = qt.embed(f)
    assert np.allclose(T, 0.7 * np.eye(2) - 0.3 * qt.Q2)
    assert sorted(np.linalg.eigvalsh(T)) == pytest.approx([0.4, 1.0])


def test_embedding_isometry(rng):
    for _ in range(5):
        f = random_function(4, rng)
        T = qt.embed(f)
        assert np.max(np.abs(T - T.conj().T)) == 0.0
        # eigendecomposition oracle: the singular values are the |values|
        sv = np.linalg.svd(T, compute_uv=False)
        assert np.allclose(np.sort(sv), np.sort(np.abs(f.values())))
        for p in (1.0, 2.0, 3.0, np.inf):
            assert abs(qt.schatten_norm(T, p) - lp_norm(f, p)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       p=st.one_of(st.floats(1.0, 8.0), st.just(math.inf)))
def test_embedding_isometry_property(n, seed, p):
    f = random_function(n, stream_generator(seed))
    norm = lp_norm(f, p)
    assert abs(qt.schatten_norm(qt.embed(f), p) - norm) <= 1e-10 * norm


def test_embedding_is_algebra_map(rng):
    f, g = random_function(3, rng), random_function(3, rng)
    assert np.max(np.abs(qt.embed(f * g) - qt.embed(f) @ qt.embed(g))) < 1e-12


def test_schatten_basics(rng):
    n = 3
    eye = np.eye(1 << n)
    for p in (1.0, 1.7, 2.0, np.inf):
        assert abs(qt.schatten_norm(eye, p) - 1.0) < 1e-14
    word = pauli_word("QPU").matrix()
    assert abs(qt.schatten_norm(word, 2.0) - 1.0) < 1e-12
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ps = [1.0, 1.5, 2.0, 3.0, 6.0, np.inf]
    vals = [qt.schatten_norm(M, p) for p in ps]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


@pytest.mark.parametrize("shape, normalizer", [((8, 8), None), ((16, 16), None), ((24, 8), 8),
                                               ((12, 12), 3)])
def test_schatten_norms_are_the_one_p_norms_of_one_spectrum(rng, shape, normalizer):
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ps = (1.0, 1.5, 2.0, 3.0, 6.0, np.inf)
    s = np.linalg.svd(M, compute_uv=False)
    d = normalizer if normalizer is not None else shape[1]
    spelled = [float(s[0]) if np.isinf(p) else float(((s**p).sum() / d) ** (1.0 / p)) for p in ps]
    norms = qt.schatten_norms(M, ps, normalizer)
    assert norms == spelled == [qt.schatten_norm(M, p, normalizer) for p in ps]
    assert np.array(norms).tobytes() == np.array(spelled).tobytes()
    with pytest.raises(ValueError, match="exponent"):
        qt.schatten_norms(M, (2.0, 0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 10.0, 1e3])
def test_schatten_norm_of_an_embedding_outside_the_power_range(rng, n, scale):
    # s^p leaves the float range at most of these scales and p: the spectrum
    # is scaled by a power of two, so the isometry with lp_norm holds, silently
    f = random_function(n, rng) * scale
    T = qt.embed(f)
    for p in (150.0, 300.0, 1000.0, 2000.0):
        norm = lp_norm(f, p)
        assert abs(qt.schatten_norm(T, p) - norm) <= 1e-12 * norm


def test_projection_basis_action():
    n = 2
    qa = pauli_word("QQ").matrix()
    assert np.max(np.abs(qt.project_Q(qa) - qa)) < 1e-12
    pj = pauli_word("IP").matrix()
    assert np.max(np.abs(qt.project_Q(pj))) < 1e-12
    qp = pauli_word("QP").matrix()
    assert np.max(np.abs(qt.project_Q(qp))) < 1e-12


def test_projection_idempotent_and_consistent(rng):
    m = 16
    for _ in range(10):
        M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        by_words = qt.project_Q(M)
        by_conj = qt.project_by_conjugation(M)
        assert np.max(np.abs(by_words - by_conj)) < 1e-12
        again = qt.project_Q(by_words)
        assert np.max(np.abs(again - by_words)) < 1e-12


@pytest.mark.parametrize("bad, message", [
    (np.zeros((4, 8), dtype=complex), r"2\^n x 2\^n"),
    (np.full((6, 6), np.nan), r"2\^n x 2\^n"),  # the shape is read before the entries
    (np.diag([1.0, np.inf, 0.0, 0.0]), "finite"),
    (np.broadcast_to(0j, (2048, 2048)), r"2\^n x 2\^n"),  # n = 11, no 64 MiB array
], ids=["non-square", "6x6", "non-finite", "oversize"])
@pytest.mark.parametrize("entry", [
    "extract_q_coefficients", "project_Q", "project_by_conjugation", "rotate",
    "apply_p_left", "kernel_transform", "pauli_inner-X", "pauli_inner-Y"])
def test_every_matrix_argument_is_checked(quad, entry, bad, message):
    call = {"rotate": lambda T: qt.rotate(T, 0.3),
            "apply_p_left": lambda T: qt.apply_p_left(T, 0),
            "kernel_transform": lambda T: qt.kernel_transform(T, quad),
            "pauli_inner-X": lambda T: pauli_inner(T, np.eye(4)),
            "pauli_inner-Y": lambda T: pauli_inner(np.eye(4), T)}.get(entry)
    with pytest.raises(ValueError, match=message):
        (call or getattr(qt, entry))(bad)


def test_projection_contracts_every_schatten_norm(rng):
    violations = 0
    for _ in range(100):
        M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        PM = qt.project_Q(M)
        for p in (1.0, 1.5, 2.0, 3.0, np.inf):
            if qt.schatten_norm(PM, p) > qt.schatten_norm(M, p) + 1e-12:
                violations += 1
    assert violations == 0


def test_rotation_identity_and_closed_form():
    n = 2
    f = character(n, 0b01)
    T = qt.embed(f)
    assert np.max(np.abs(qt.rotate(T, 0.0) - T)) < 1e-15
    theta = 0.7
    RQ = qt.rotate(T, theta)
    Q0 = pauli_word("QI").matrix()
    P0 = pauli_word("PI").matrix()
    assert np.max(np.abs(RQ - (math.cos(theta) * Q0 + math.sin(theta) * P0))) < 1e-12
    # P rotates against Q
    RP = qt.rotate(P0, theta)
    assert np.max(np.abs(RP - (math.cos(theta) * P0 - math.sin(theta) * Q0))) < 1e-12


def test_rotation_equals_level_formula_bitwise(rng):
    for n in (1, 3, 6):
        m = 1 << n
        M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for theta in (0.0, 0.3, -0.9, 1.4, 2.5, -math.pi):
            assert np.array_equal(qt.rotate(M, theta), rotate_reference(M, theta))


def test_rotation_generator_first_order(rng):
    f = random_function(3, rng)
    T = qt.embed(f)
    D = qt.derivation(f)
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        diff = (qt.rotate(T, h) - T) / h
        errs.append(np.max(np.abs(diff - D)))
    # first-order convergence: error shrinks linearly in h
    assert errs[1] < 0.15 * errs[0]
    assert errs[2] < 0.15 * errs[1]


def test_rotation_is_schatten_isometry(rng):
    f = random_function(4, rng)
    T = qt.embed(f)
    for theta in (0.3, 1.2, 2.9):
        RT = qt.rotate(T, theta)
        for p in (1.0, 2.0, 3.0, np.inf):
            assert abs(qt.schatten_norm(RT, p) - qt.schatten_norm(T, p)) < 1e-10


def test_kernel_moment_law(quad):
    c = quad.moment(0)
    # the substitution u = -log cos theta evaluates every moment as
    # 2 Gamma(1/2) / sqrt(m+1); the constant was confirmed by an independent
    # adaptive quadrature before freezing
    assert abs(c - 2.0 * math.sqrt(math.pi)) < 1e-14
    prods = [quad.moment(m) * math.sqrt(m + 1.0) for m in range(65)]
    assert max(prods) - min(prods) < 1e-13
    assert abs(quad.moment(3) - c / 2.0) < 1e-14
    assert quad.constancy_defect() <= quad.declared_accuracy <= 1e-13


@pytest.mark.parametrize("theta", [4e-5, 1e-3, 1e-2, 0.1, 0.5, 1.0])
def test_kernel_t_matches_a_30_digit_oracle(theta):
    # the naive sqrt(-log(cos theta)) cancels near 0: 2.8e-8 relative at 4e-5
    with mpmath.workdps(30):
        ref = mpmath.sqrt(-mpmath.log(mpmath.cos(mpmath.mpf(theta))))
        assert abs(float((qt.kernel_t(theta) - ref) / ref)) <= 1e-15


def _kappa_closed_form(delta):
    """kappa(delta) = -2 sqrt(pi) sum_m [U_{delta-1}]_m (m+1)^{-1/2}, from
    sin(delta theta) = sin(theta) U_{delta-1}(cos theta) and the moment law;
    summed in mpmath, as the Chebyshev coefficients alternate in sign."""
    prev, cur = [0], [1]  # coefficients of U_{-1} and U_0
    for _ in range(delta - 1):
        prev, cur = cur, [2 * a - b for a, b in
                          itertools.zip_longest([0] + cur, prev, fillvalue=0)]
    return -2 * mpmath.sqrt(mpmath.pi) * mpmath.fsum(
        c / mpmath.sqrt(m + 1) for m, c in enumerate(cur))


def test_kernel_transform_multiplier_matches_its_closed_form(quad):
    n = 10
    # entry [0, 2^delta - 1] sits at level gap delta
    kappa = qt.kernel_transform(np.ones((1 << n, 1 << n), dtype=complex), quad)[0]
    with mpmath.workdps(30):
        for delta in range(1, 11):
            ref = float(_kappa_closed_form(delta))
            assert kappa[(1 << delta) - 1].real == 0.0
            assert abs(kappa[(1 << delta) - 1].imag - ref) <= 1e-14 * abs(ref)


# the transform is linear and carries no absolute floor, so the match is
# relative at any input magnitude; these are far below the O(1) entries
@pytest.mark.parametrize("scale", [1e-8, 1e-10])
def test_kernel_transform_matches_per_node_rotation(rng, quad, scale):
    for n in range(1, 8):
        m = 1 << n
        G = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        ref = kernel_transform_reference(G, quad)
        gap = np.max(np.abs(qt.kernel_transform(G, quad) - ref))
        assert gap <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("scale", [1e-6, 1e-8, 1e-10])
def test_kernel_transform_multiplier_has_the_node_loop_bits(quad, scale):
    # a constant input of any magnitude comes back as that constant times the
    # node loop's multiplier, with one rounding per entry
    for n in range(1, 11):
        gaps = np.arange(-n, n + 1)
        kappa = quad.integrate(lambda t: np.exp(-1j * t * gaps))
        const = np.full((1 << n, 1 << n), scale, dtype=complex)
        assert np.array_equal(qt.kernel_transform(const, quad), scale * kappa[qt._level_gap(n)])


def test_library_projects_through_words_only(monkeypatch, rng, quad):
    from cubeineq.cli import main

    def refuse(n):
        raise RuntimeError("conjugation path reached")

    monkeypatch.setattr(qt, "rho_matrix", refuse)
    qt.qa_word_defect.cache_clear()
    f = random_function(3, rng, mean_zero=True)
    for j in range(3):
        assert qt.verify_qa_formula(f, j, quad) < 1e-12
    assert qt.verify_elpF(f, quad) < 1e-12
    # the CLI projection check is the cross-check, so it does reach rho
    with pytest.raises(RuntimeError, match="conjugation path reached"):
        main(["quantum", "projection", "--n", "3"])


def test_kernel_is_odd_completion(quad):
    # integrating an even function against the odd kernel gives zero exactly
    val = quad.integrate(lambda th: math.cos(th) ** 2)
    assert val == 0.0


def test_qa_characters(quad):
    n = 4
    # j not in A: both sides vanish
    f = character(n, 0b1010)
    g = qt.apply_p_left(qt.embed(partial_derivative(f, 0)), 0)
    assert np.max(np.abs(g)) == 0.0
    assert qt.verify_qa_formula(f, 0, quad) < 1e-12
    # j in A: the representation returns |A|^{-1/2} Q_A
    c = quad.normalizing_constant()
    g = qt.apply_p_left(qt.embed(partial_derivative(f, 1)), 1)
    rhs = qt.project_Q(qt.kernel_transform(g, quad)) / c
    qa_mat = qt.embed(character(n, 0b1010)) / math.sqrt(2.0)
    assert np.max(np.abs(rhs - qa_mat)) < 1e-12


@pytest.mark.parametrize("n", range(1, qt.MAX_FORMULA_QUBITS + 1))
def test_apply_p_left_and_qa_word_defect_match_references(rng, n):
    m = 1 << n
    M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    M.real[rng.integers(0, 3, size=(m, m)) == 0] = -0.0
    M.imag[rng.integers(0, 3, size=(m, m)) == 0] = -0.0
    strided = (rng.standard_normal((2 * m, 2 * m)) + 0j)[::2, 1::2].T
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    for j in range(n):
        for G in (M, strided, qt.embed(random_function(n, rng))):
            assert same_bytes(qt.apply_p_left(G, j), apply_p_left_reference(G, j))
        ref = qa_word_defect_reference(n, j)
        assert np.float64(qt.qa_word_defect(n, j)).tobytes() == np.float64(ref).tobytes()


def test_qa_random(rng, quad):
    f = random_function(5, rng)
    assert qt.verify_qa_formula(f, 2, quad) < 1e-12


def test_elpf_dictator(quad):
    f = character(3, 0b001)
    assert qt.verify_elpF(f, quad) < 1e-12


def test_elpf_additivity_and_random(rng, quad):
    f = random_function(4, rng, mean_zero=True)
    total = np.zeros((16, 16), dtype=complex)
    for j in range(4):
        g = qt.apply_p_left(qt.embed(partial_derivative(f, j)), j)
        total += qt.kernel_transform(g, quad)
    combined = qt.kernel_transform(qt.derivation(f), quad)
    assert np.max(np.abs(total - combined)) < 1e-10
    assert qt.verify_elpF(f, quad) < 1e-12


def test_elpf_requires_mean_zero(rng, quad):
    f = random_function(3, rng)
    f.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        qt.verify_elpF(f, quad)


def test_shifted_kernel_equality(rng, quad):
    # shifting the rotation angle inside the integral never moves the norm
    f = random_function(3, rng, mean_zero=True)
    G = qt.derivation(f)
    base = qt.kernel_transform(G, quad)
    for p in (1.0, 2.0, 3.0):
        ref = qt.schatten_norm(base, p)
        vals = []
        for psi in np.linspace(-math.pi, math.pi, 9):
            shifted = quad.integrate(
                lambda th: qt.rotate(G, -(th - psi)))
            vals.append(qt.schatten_norm(shifted, p) ** p)
        avg = (np.mean(vals)) ** (1 / p)
        assert abs(avg - ref) < 1e-8 * max(1.0, ref)


def test_conjugation_table():
    n = 2
    for j in range(n):
        qj = q_word(1 << j, n).matrix()
        pj = p_word(1 << j, n).matrix()
        uj = qt.PauliWord(tuple("U" if i == j else "I" for i in range(n))).matrix()
        assert np.max(np.abs(conjugate_nu_inv(uj) - qj)) < 1e-12
        # nu^{-1}(Q_j) = -U_j = -i Q_j P_j (the product order matters:
        # -i P_j Q_j is +U_j)
        assert np.max(np.abs(conjugate_nu_inv(qj) + uj)) < 1e-12
        assert np.max(np.abs(-1j * (qj @ pj) + uj)) < 1e-12
        assert np.max(np.abs(conjugate_nu_inv(pj) - pj)) < 1e-12
    # and nu nu^{-1} = id
    M = np.arange(16.0).reshape(4, 4) + 0j
    assert np.max(np.abs(conjugate_nu(conjugate_nu_inv(M)) - M)) < 1e-12


def test_anticommutation_transport(rng):
    # conjugating the derivation sum by Q_k flips exactly the k-th term
    n = 3
    fams = [random_function(n, rng) for _ in range(n)]
    terms = [qt.apply_p_left(qt.embed(partial_derivative(fams[j], j)), j)
             for j in range(n)]
    total = sum(terms)
    for k in range(n):
        qk = q_word(1 << k, n).matrix()
        transported = qk @ total @ qk
        signed = sum((-1.0 if j == k else 1.0) * terms[j] for j in range(n))
        assert np.max(np.abs(transported - signed)) < 1e-12


def test_block_isometries(rng):
    # single component reduces to the scalar embedding
    f = random_function(3, rng)
    F1 = VectorCubeFunction([f])
    for p in (2.0, 3.0):
        assert abs(qt.block_column_norm(F1, p) - lp_norm(f, p)) < 1e-12
        assert abs(qt.block_diag_norm(F1, p) - lp_norm(f, p)) < 1e-12
    F = VectorCubeFunction([random_function(3, rng) for _ in range(3)])
    for p in (2.0, 3.0):
        assert abs(qt.block_column_norm(F, p)
                   - mixed_norm(F, MixedNormSpec.lq(p, 2.0))) < 1e-10
        assert abs(qt.block_diag_norm(F, p)
                   - mixed_norm(F, MixedNormSpec.lq(p, p))) < 1e-10
    # p = 2: both collapse to the Frobenius combination
    frob = math.sqrt(sum(lp_norm(c, 2.0) ** 2 for c in F.components))
    assert abs(qt.block_column_norm(F, 2.0) - frob) < 1e-12
    assert abs(qt.block_diag_norm(F, 2.0) - frob) < 1e-12


def test_block_caps():
    with pytest.raises(ValueError):
        qt.block_column(VectorCubeFunction([character(9, 0)]))


def test_epi_quantum_ratio(rng):
    n = 4
    fam = [character(n, 0b0011) for _ in range(n)]
    rep = qt.epi_quantum_ratio(fam, 3.0)
    assert abs(rep.ratio - 1.0) < 1e-12
    with pytest.raises(ValueError):
        qt.epi_quantum_ratio(fam, 1.5)
    # searched ratio at p = 4 dominates the dictator witness
    from cubeineq.inequalities import InequalityInstance, SearchConfig, evaluate, search_max_ratio

    inst = InequalityInstance("EPI", n=4, p=4.0)
    dictator = [character(4, 1 << i) for i in range(4)]
    base = evaluate(inst, dictator).ratio
    rep, _ = search_max_ratio(inst, SearchConfig(trials=15, restarts=1,
                                                 ascent_steps=40, seed=8))
    assert rep.ratio >= base - 1e-12


def test_quadrature_accuracy_guard():
    # a deliberately coarse rule must refuse to hand out its constant
    coarse = qt.QuadratureRule(np.array([0.5, 1.2]), np.array([0.4, 0.3]))
    with pytest.raises(qt.QuadratureAccuracyError):
        coarse.normalizing_constant()
