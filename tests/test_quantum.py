import itertools
import math

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
                      kernel_transform_reference, qa_word_defect_reference, rotate_reference,
                      same_bytes)


@pytest.fixture(scope="module")
def quad():
    return qt.QuadratureRule.build(1e-8)


def test_base_matrices():
    assert np.allclose(qt.U2, np.diag([1.0, -1.0]))
    assert np.max(np.abs(qt.Q2 @ qt.P2 + qt.P2 @ qt.Q2)) == 0.0


def test_word_orthonormality_and_completeness():
    n = 3
    words = [qt.PauliWord(w) for w in itertools.product("IQPU", repeat=n)]
    mats = [w.matrix() for w in words]
    for i, X in enumerate(mats):
        for k, Y in enumerate(mats):
            inner = qt.pauli_inner(X, Y, n)
            expect = 1.0 if i == k else 0.0
            assert abs(inner - expect) < 1e-12
    # 4^n orthonormal elements span the full matrix algebra
    assert len(mats) == (1 << n) ** 2


def test_embed_two_by_two():
    f = CubeFunction(1, [0.7, -0.3])  # a + b eps
    T = qt.embed(f)
    assert np.allclose(T.mat, 0.7 * np.eye(2) - 0.3 * qt.Q2)
    assert sorted(np.linalg.eigvalsh(T.mat)) == pytest.approx([0.4, 1.0])


def test_embedding_isometry(rng):
    for _ in range(5):
        f = random_function(4, rng)
        T = qt.embed(f)
        assert T.is_hermitian()
        # eigendecomposition oracle: the singular values are the |values|
        sv = np.linalg.svd(T.mat, compute_uv=False)
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
    assert np.max(np.abs(qt.embed(f * g).mat - qt.embed(f).mat @ qt.embed(g).mat)) < 1e-12


def test_schatten_basics(rng):
    n = 3
    eye = qt.MatrixObservable(n, np.eye(1 << n))
    for p in (1.0, 1.7, 2.0, np.inf):
        assert abs(qt.schatten_norm(eye, p) - 1.0) < 1e-14
    word = qt.pauli_build(qt.PauliWord.from_string("QPU"))
    assert abs(qt.schatten_norm(word, 2.0) - 1.0) < 1e-12
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ps = [1.0, 1.5, 2.0, 3.0, 6.0, np.inf]
    vals = [qt.schatten_norm(M, p) for p in ps]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_projection_basis_action():
    n = 2
    qa = qt.pauli_build(qt.PauliWord.from_string("QQ"))
    assert np.max(np.abs(qt.project_Q(qa.mat).mat - qa.mat)) < 1e-12
    pj = qt.pauli_build(qt.PauliWord.from_string("IP"))
    assert np.max(np.abs(qt.project_Q(pj.mat).mat)) < 1e-12
    qp = qt.pauli_build(qt.PauliWord.from_string("QP"))
    assert np.max(np.abs(qt.project_Q(qp.mat).mat)) < 1e-12


def test_projection_idempotent_and_consistent(rng):
    m = 16
    for _ in range(10):
        M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        by_words = qt.project_Q(M, method="words").mat
        by_conj = qt.project_Q(M, method="conjugation").mat
        assert np.max(np.abs(by_words - by_conj)) < 1e-12
        again = qt.project_Q(by_words).mat
        assert np.max(np.abs(again - by_words)) < 1e-12


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
    assert np.max(np.abs(qt.rotate(T, 0.0).mat - T.mat)) < 1e-15
    theta = 0.7
    RQ = qt.rotate(T, theta).mat
    Q0 = qt.pauli_build(qt.PauliWord.from_string("QI")).mat
    P0 = qt.pauli_build(qt.PauliWord.from_string("PI")).mat
    assert np.max(np.abs(RQ - (math.cos(theta) * Q0 + math.sin(theta) * P0))) < 1e-12
    # P rotates against Q
    RP = qt.rotate(qt.MatrixObservable(n, P0), theta).mat
    assert np.max(np.abs(RP - (math.cos(theta) * P0 - math.sin(theta) * Q0))) < 1e-12


def test_rotation_equals_level_formula_bitwise(rng):
    for n in (1, 3, 6):
        m = 1 << n
        M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for theta in (0.0, 0.3, -0.9, 1.4, 2.5, -math.pi):
            assert np.array_equal(qt.rotate(M, theta).mat, rotate_reference(M, theta))


def test_rotation_generator_first_order(rng):
    f = random_function(3, rng)
    T = qt.embed(f)
    D = qt.derivation(f).mat
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        diff = (qt.rotate(T, h).mat - T.mat) / h
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
    assert abs(c - 2.0 * math.sqrt(math.pi)) < 1e-9
    prods = [quad.moment(m) * math.sqrt(m + 1.0) for m in range(65)]
    assert max(prods) - min(prods) < 1e-8
    assert abs(quad.moment(3) - c / 2.0) < 1e-9
    assert quad.constancy_defect() < 1e-8


@pytest.mark.parametrize("accuracy", [1e-8, 1e-10])
def test_kernel_transform_matches_per_node_rotation(rng, accuracy):
    quad = qt.QuadratureRule.build(accuracy)
    for n in range(1, 8):
        m = 1 << n
        G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        ref = kernel_transform_reference(G, quad)
        gap = np.max(np.abs(qt.kernel_transform(G, quad).mat - ref))
        assert gap <= 1e-13 * np.max(np.abs(ref))


def test_library_projects_through_words_only(monkeypatch, rng, quad):
    from cubeineq.cli import main

    def refuse(n):
        raise RuntimeError("conjugation path reached")

    monkeypatch.setattr(qt, "rho_matrix", refuse)
    qt.qa_word_defect.cache_clear()
    f = random_function(3, rng, mean_zero=True)
    for j in range(3):
        assert qt.verify_qa_formula(f, j, quad) < 1e-6
    assert qt.verify_elpF(f, quad) < 1e-6
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
    g = qt.apply_p_left(qt.embed(partial_derivative(f, 0)).mat, 0)
    assert np.max(np.abs(g)) == 0.0
    assert qt.verify_qa_formula(f, 0, quad) < 1e-8
    # j in A: the representation returns |A|^{-1/2} Q_A
    c = quad.normalizing_constant()
    g = qt.apply_p_left(qt.embed(partial_derivative(f, 1)).mat, 1)
    rhs = qt.project_Q(qt.kernel_transform(g, quad).mat).mat / c
    qa_mat = qt.embed(character(n, 0b1010)).mat / math.sqrt(2.0)
    assert np.max(np.abs(rhs - qa_mat)) < 1e-9


@pytest.mark.parametrize("n", range(1, qt.MAX_FORMULA_QUBITS + 1))
def test_apply_p_left_and_qa_word_defect_match_references(rng, n):
    m = 1 << n
    M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    M.real[rng.integers(0, 3, size=(m, m)) == 0] = -0.0
    M.imag[rng.integers(0, 3, size=(m, m)) == 0] = -0.0
    strided = (rng.standard_normal((2 * m, 2 * m)) + 0j)[::2, 1::2].T
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    for j in range(n):
        for G in (M, strided, qt.embed(random_function(n, rng)).mat):
            assert same_bytes(qt.apply_p_left(G, j), apply_p_left_reference(G, j))
        ref = qa_word_defect_reference(n, j)
        assert np.float64(qt.qa_word_defect(n, j)).tobytes() == np.float64(ref).tobytes()


def test_qa_random(rng, quad):
    f = random_function(5, rng)
    assert qt.verify_qa_formula(f, 2, quad) < 1e-6


def test_elpf_dictator(quad):
    f = character(3, 0b001)
    assert qt.verify_elpF(f, quad) < 1e-9


def test_elpf_additivity_and_random(rng, quad):
    f = random_function(4, rng, mean_zero=True)
    total = np.zeros((16, 16), dtype=complex)
    for j in range(4):
        g = qt.apply_p_left(qt.embed(partial_derivative(f, j)).mat, j)
        total += qt.kernel_transform(g, quad).mat
    combined = qt.kernel_transform(qt.derivation(f).mat, quad).mat
    assert np.max(np.abs(total - combined)) < 1e-10
    assert qt.verify_elpF(f, quad) < 1e-6


def test_elpf_requires_mean_zero(rng, quad):
    f = random_function(3, rng)
    f.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        qt.verify_elpF(f, quad)


def test_shifted_kernel_equality(rng, quad):
    # shifting the rotation angle inside the integral never moves the norm
    f = random_function(3, rng, mean_zero=True)
    G = qt.derivation(f).mat
    base = qt.kernel_transform(G, quad).mat
    for p in (1.0, 2.0, 3.0):
        ref = qt.schatten_norm(base, p)
        vals = []
        for psi in np.linspace(-math.pi, math.pi, 9):
            shifted = quad.integrate(
                lambda th: qt.rotate(G, -(th - psi)).mat)
            vals.append(qt.schatten_norm(shifted, p) ** p)
        avg = (np.mean(vals)) ** (1 / p)
        assert abs(avg - ref) < 1e-8 * max(1.0, ref)


def test_conjugation_table():
    n = 2
    for j in range(n):
        qj = qt.pauli_build(qt.PauliWord.q_word(1 << j, n)).mat
        pj = qt.pauli_build(qt.PauliWord.p_word(1 << j, n)).mat
        uj = qt.pauli_build(
            qt.PauliWord(tuple("U" if i == j else "I" for i in range(n)))).mat
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
    terms = [qt.apply_p_left(qt.embed(partial_derivative(fams[j], j)).mat, j)
             for j in range(n)]
    total = sum(terms)
    for k in range(n):
        qk = qt.pauli_build(qt.PauliWord.q_word(1 << k, n)).mat
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
    coarse = qt.QuadratureRule(np.array([0.5, 1.2]), np.array([0.4, 0.3]),
                               declared_accuracy=1e-10)
    with pytest.raises(qt.QuadratureAccuracyError):
        coarse.normalizing_constant()
