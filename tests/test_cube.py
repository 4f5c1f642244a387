import json
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubeineq.cube import (
    _xor_grid,
    BiCubeFunction,
    CubeFunction,
    VectorCubeFunction,
    apply_multiplier,
    character,
    discrete_derivative,
    frac_power,
    fwht,
    group_translate,
    heat,
    laplacian,
    levels,
    partial_derivative,
    permute_coordinates,
    random_function,
    riesz,
    sign_table,
    signs_to_index,
    walsh_transform,
)
from cubeineq.cube import _BLOCK
from cubeineq.rng import stream_generator
from conftest import (apply_multiplier_reference, brute_walsh_coefficients,
                      derivative_value_matrix, discrete_derivative_reference,
                      group_translate_reference, partial_derivative_reference,
                      per_column_reference, per_component_reference,
                      permute_coordinates_reference, riesz_reference, same_bytes,
                      walsh_reference)


def test_two_point_expansion():
    f = fwht([1.0, 0.0])  # f = (1 + eps)/2
    assert np.allclose(f.coeffs, [0.5, 0.5])


def test_roundtrip_is_identity(rng):
    for n in (1, 3, 6, 9):
        f = random_function(n, rng)
        back = CubeFunction.from_values(f.values())
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * max(1, np.abs(f.coeffs).max())


def test_brute_force_character_sums(rng):
    f = random_function(3, rng)
    assert np.max(np.abs(brute_walsh_coefficients(f.values()) - f.coeffs)) < 1e-12


def test_parseval(rng):
    f = random_function(7, rng)
    vals = f.values()
    assert abs((vals**2).mean() - (f.coeffs**2).sum()) < 1e-10


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        walsh_transform(np.ones(6))
    with pytest.raises(ValueError):
        CubeFunction.from_values(np.ones(12))


def test_derivative_character_action():
    f = character(3, 0b011)  # eps_1 eps_2 in coordinates 0,1
    assert np.allclose(discrete_derivative(f, 0).coeffs, f.coeffs)
    assert np.allclose(discrete_derivative(f, 2).coeffs, 0.0)


def test_derivative_pointwise_oracle(rng):
    f = random_function(4, rng)
    G = derivative_value_matrix(f)
    for i in range(4):
        assert np.max(np.abs(discrete_derivative(f, i).values() - G[i])) < 1e-12


def test_derivative_idempotent(rng):
    f = random_function(5, rng)
    for i in range(5):
        once = discrete_derivative(f, i)
        twice = discrete_derivative(once, i)
        assert np.array_equal(once.coeffs, twice.coeffs)


def test_partial_strips_the_variable(rng):
    f = character(3, 0b101)
    out = partial_derivative(f, 2)
    assert np.allclose(out.coeffs, character(3, 0b001).coeffs)
    assert np.allclose(partial_derivative(f, 1).coeffs, 0.0)


def test_coordinate_out_of_range(rng):
    f = random_function(3, rng)
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            discrete_derivative(f, bad)
        with pytest.raises(ValueError):
            partial_derivative(f, bad)


def test_heat_spectral_action():
    f = character(5, 0b10110)
    t = 0.8
    out = heat(f, t)
    assert np.allclose(out.coeffs, np.exp(-3 * t) * f.coeffs)
    assert np.array_equal(heat(f, 0.0).coeffs, f.coeffs)


def test_semigroup_law(rng):
    f = random_function(6, rng)
    lhs = heat(heat(f, 0.3), 1.1)
    rhs = heat(f, 1.4)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_heat_contracts_with_spectral_gap(rng):
    from cubeineq.norms import lp_norm

    f = random_function(6, rng, mean_zero=True)
    for t in (0.2, 1.0, 3.0):
        assert lp_norm(heat(f, t), 2) <= np.exp(-t) * lp_norm(f, 2) + 1e-12


def test_riesz_on_characters():
    f = character(4, 0b0111)
    ri = riesz(f, 1)
    assert np.allclose(ri.coeffs, f.coeffs / np.sqrt(3))
    assert np.allclose(riesz(f, 3).coeffs, 0.0)


def test_sum_of_derivatives_is_laplacian(rng):
    f = random_function(6, rng)
    total = sum((discrete_derivative(f, i) for i in range(6)), character(6, 0) * 0.0)
    assert np.max(np.abs(total.coeffs - laplacian(f).coeffs)) < 1e-12


def test_halfpower_parseval_identity(rng):
    # ||L^{1/2} f||_2^2 = sum_A |A| fhat(A)^2 = sum_i ||D_i f||_2^2
    from cubeineq.cube import levels
    from cubeineq.norms import lp_norm

    f = random_function(6, rng, mean_zero=True)
    lhs = lp_norm(frac_power(f, -0.5), 2) ** 2
    spectral = float((levels(6) * f.coeffs**2).sum())
    via_derivatives = sum(lp_norm(discrete_derivative(f, i), 2) ** 2 for i in range(6))
    assert abs(lhs - spectral) < 1e-12
    assert abs(lhs - via_derivatives) < 1e-12


def test_laplacian_pointwise_oracle(rng):
    # L f(eps) = sum_i (f(eps) - f(eps with bit i flipped)) / 2
    f = random_function(5, rng)
    vals = f.values()
    idx = np.arange(1 << 5)
    acc = np.zeros_like(vals)
    for i in range(5):
        acc += (vals - vals[idx ^ (1 << i)]) / 2.0
    assert np.max(np.abs(laplacian(f).values() - acc)) < 1e-12


def test_frac_power_heat_integral_oracle(rng):
    # L^{-a} = (1/Gamma(a)) int_0^inf t^{a-1} exp(-tL) dt on mean-zero input;
    # checked by quadrature, which also pins the Gamma normalization that the
    # spectral definition absorbs
    f = random_function(4, rng, mean_zero=True)
    a = 0.6
    target = frac_power(f, a).values()
    numeric = np.zeros_like(target)
    for x in range(1 << 4):
        numeric[x] = mpmath.quad(
            lambda t, x=x: t ** (a - 1) * heat(f, float(t)).values()[x],
            [0, 1, 60]) / mpmath.gamma(a)
    assert np.max(np.abs(numeric - target)) < 1e-8


def test_frac_power_composes_and_drops_the_mean(rng):
    f = random_function(5, rng, mean_zero=True)
    ab = frac_power(frac_power(f, 0.3), 0.5)
    merged = frac_power(f, 0.8)
    assert np.max(np.abs(ab.coeffs - merged.coeffs)) < 1e-12

    g = random_function(5, rng)
    g.coeffs[0] = 2.0
    # L^{-a} acts on g - E g for every a, so L^0 is the projection off the mean
    for a in (0.5, 0.0, -0.5):
        assert frac_power(g, a).coeffs[0] == 0.0
    assert np.array_equal(frac_power(g, 0.0).coeffs, (g - g.mean).coeffs)


def test_bicube_sum_is_the_value_sum(rng):
    ga, gb = rng.standard_normal((2, 4, 8))
    a, b = BiCubeFunction(2, 3, ga), BiCubeFunction(2, 3, gb)
    # the sum adds the stored eps-coefficient rows, which are linear in the values
    assert same_bytes((a + b).coeffs, a.coeffs + b.coeffs)
    assert np.max(np.abs((a + b).values - (ga + gb))) < 1e-14
    with pytest.raises(ValueError, match="shape mismatch"):
        a + BiCubeFunction(2, 0, rng.standard_normal((4, 1)))
    with pytest.raises(ValueError, match="shape mismatch"):
        a + VectorCubeFunction.from_coeffs(2, a.coeffs)  # another value space


def test_bicube_stores_eps_coefficient_rows(rng):
    grid = rng.standard_normal((8, 4))
    F = BiCubeFunction(3, 2, grid)
    assert (F.n, F.n_eps, F.n_delta, F.R) == (3, 3, 2, 4)
    for delta in range(4):
        assert np.max(np.abs(F.coeffs[delta] - fwht(grid[:, delta]).coeffs)) < 1e-15
    assert np.max(np.abs(F.values - grid)) < 1e-14
    again = BiCubeFunction.from_coeffs(3, F.coeffs)
    assert type(again) is BiCubeFunction and again.values.shape == (8, 4)
    for bad in (np.zeros((3, 8)), np.zeros(8), np.zeros((4, 4))):
        with pytest.raises(ValueError, match="2\\^n_delta"):
            BiCubeFunction.from_coeffs(3, bad)


def test_apply_multiplier_table_and_callable(rng):
    # only a table of length n+1 is a multiplier; the callable form is refused by numpy
    f = random_function(4, rng)
    with pytest.raises(ValueError, match=r"length n\+1=5"):
        apply_multiplier(f, np.ones(3))
    with pytest.raises(TypeError):
        apply_multiplier(f, lambda k: k)


def test_levels_cached_and_read_only():
    lev = levels(6)
    assert lev is levels(6) and not lev.flags.writeable
    assert lev.tolist() == [bin(A).count("1") for A in range(1 << 6)]


def test_signs_to_index_matches_bit_sum():
    rng = np.random.default_rng(3)
    for n in (1, 7, 64, 200):
        eta = 1 - 2 * rng.integers(0, 2, size=n)
        assert signs_to_index(eta, n) == sum(1 << i for i in range(n) if eta[i] == -1)


@pytest.mark.parametrize("masks, k", [(np.arange(16), 4), (np.arange(5, 37), 6),
                                      ([0, 1023, 512], 10), (np.arange(8), 1)])
def test_sign_table_matches_a_per_bit_loop(masks, k):
    table = sign_table(masks, k)
    expected = [[-1.0 if x >> i & 1 else 1.0 for i in range(k)] for x in masks]
    assert table.dtype == np.float64 and table.tolist() == expected


@pytest.mark.parametrize("eta", [[1, 1], [1, 1, 1, 1], [1, 0, 7], [1, -1, 0.5], [[1, 1, 1]]])
def test_bad_sign_vectors_refused(eta):
    f = random_function(3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sign vector"):
        signs_to_index(eta, 3)
    with pytest.raises(ValueError, match="sign vector"):
        f(eta)
    with pytest.raises(ValueError, match="sign vector"):
        group_translate(f, eta)


def test_call_reads_point_value(rng):
    f = random_function(3, rng)
    assert f([1, -1, -1]) == f.values()[0b110]


def test_translate_identity_and_point_mass():
    n = 4
    ones = np.ones(n)
    f = CubeFunction.from_values(np.eye(1 << n)[0])  # 1_{eps = all-ones}
    assert np.allclose(group_translate(f, ones).coeffs, f.coeffs)
    eta = np.array([1, -1, 1, -1])
    shifted = group_translate(f, eta)
    vals = shifted.values()
    # 1_{eps = eta}: eta has -1 at coordinates 1 and 3 -> index 0b1010
    expect = np.zeros(1 << n)
    expect[0b1010] = 1.0
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_translate_commutes_with_derivatives(rng):
    f = random_function(5, rng)
    eta = 1 - 2 * rng.integers(0, 2, size=5)
    for i in range(5):
        a = discrete_derivative(group_translate(f, eta), i)
        b = group_translate(discrete_derivative(f, i), eta)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def test_file_format_roundtrip(rng):
    f = random_function(4, rng)
    d = json.loads(f.to_json())
    assert d["basis"] == "walsh-bitmask-le"
    assert d["n"] == 4
    back = CubeFunction.from_json(f.to_json())
    assert np.array_equal(back.coeffs, f.coeffs)
    with pytest.raises(ValueError):
        CubeFunction.from_dict({"n": 2, "basis": "other", "coeffs": [0, 0, 0, 0]})


def test_permute_coordinates(rng):
    f = random_function(3, rng)
    g = permute_coordinates(f, [2, 0, 1])
    # value at a permuted point must match
    vals_f = f.values()
    vals_g = g.values()
    # point eps with eps_i = s_i maps as g(eps') = f(eps) when eps'_{perm[i]} = eps_i
    for x in range(8):
        y = 0
        for i in range(3):
            if (x >> i) & 1:
                y |= 1 << [2, 0, 1][i]
        assert abs(vals_g[y] - vals_f[x]) < 1e-12
    for bad in ([2.0, 0.0, 1.0], [0, 1], [[0, 1, 2]], [0, 0, 1], [True, False, True]):
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            permute_coordinates(f, bad)


def _signed_zero_coeffs(n, rng, *lead):
    """Standard-normal coefficients with a quarter of them -0.0 and a quarter +0.0."""
    c = rng.standard_normal((*lead, 1 << n))
    pick = rng.integers(0, 4, size=c.shape)
    c[pick == 0] = -0.0
    c[pick == 1] = 0.0
    return c


@pytest.mark.parametrize("n", range(1, 13))
def test_coordinate_operators_match_index_array_references(rng, n):
    # byte equality keeps the -0.0 that D_i's x * 0.0 and a sign flip of -0.0 give;
    # the second operand holds a strided view, which the halves read in place
    c = _signed_zero_coeffs(n + 1, rng)
    for f in (CubeFunction(n, c[:1 << n]), CubeFunction(n, c[::2])):
        for i in range(n):
            assert same_bytes(discrete_derivative(f, i).coeffs,
                              discrete_derivative_reference(f.coeffs, i))
            assert same_bytes(partial_derivative(f, i).coeffs,
                              partial_derivative_reference(f.coeffs, i))
        for _ in range(4):
            eta = 1 - 2 * rng.integers(0, 2, size=n)
            assert same_bytes(group_translate(f, eta).coeffs,
                              group_translate_reference(f.coeffs, signs_to_index(eta, n)))
            perm = rng.permutation(n)
            assert same_bytes(permute_coordinates(f, perm).coeffs,
                              permute_coordinates_reference(f.coeffs, perm))


def test_permutation_round_trip_at_n16(rng):
    n = 16
    f = CubeFunction(n, _signed_zero_coeffs(n, rng))
    perm = rng.permutation(n)
    g = permute_coordinates(f, perm)
    assert same_bytes(permute_coordinates(g, np.argsort(perm)).coeffs, f.coeffs)
    # the character of a mask moves to the character of the relabeled mask
    mask = 0b1010_0110_0001_1001
    moved = sum(1 << int(perm[i]) for i in range(n) if mask >> i & 1)
    assert permute_coordinates(character(n, mask), perm).coeffs[moved] == 1.0


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("op", [
    lambda f: discrete_derivative(f, 7),
    lambda f: partial_derivative(f, 7),
    lambda f: group_translate(f, np.ones(f.n) - 2 * (np.arange(f.n) % 2)),
])
def test_coordinate_operators_allocate_only_their_output(rng, op, n):
    # besides the output, an in-place ufunc on a strided half may take numpy's
    # iterator buffer, np.getbufsize() doubles for each of two operands (128 KiB)
    f = random_function(n, rng)
    op(f)  # warm any first-call caches
    tracemalloc.start()
    try:
        op(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << n) * 8 + 2 * np.getbufsize() * 8 + 4096


def test_vector_cube_function(rng):
    F = VectorCubeFunction([random_function(4, rng) for _ in range(3)])
    assert F.R == 3 and F.n == 4 and F.coeffs.shape == (3, 16)
    smoothed = heat(F, 0.5)
    assert type(smoothed) is VectorCubeFunction
    assert np.allclose(smoothed.components[1].coeffs, heat(F.components[1], 0.5).coeffs)
    assert np.shares_memory(F.components[1].coeffs, F.coeffs[1])  # a view of the row
    with pytest.raises(ValueError):
        VectorCubeFunction([random_function(3, rng), random_function(4, rng)])
    with pytest.raises(ValueError):
        VectorCubeFunction([])
    for bad in (np.zeros(16), np.zeros((0, 16)), np.zeros((2, 8))):
        with pytest.raises(ValueError):
            VectorCubeFunction.from_coeffs(4, bad)


@pytest.mark.parametrize("left, right", [((1, 3), (3, 3)), ((3, 3), (1, 3)), ((2, 3), (2, 4))])
def test_vector_sum_refuses_a_component_count_or_dimension_mismatch(rng, left, right):
    # (1, m) + (3, m) would broadcast silently if the coefficient arrays were added unchecked
    F, G = (VectorCubeFunction.from_coeffs(n, rng.standard_normal((R, 1 << n)))
            for R, n in (left, right))
    with pytest.raises(ValueError, match="mismatch"):
        F + G


def test_vector_sum_and_scaling_are_per_component(rng):
    F, G = (VectorCubeFunction([random_function(3, rng) for _ in range(3)]) for _ in range(2))
    assert same_bytes((F + G).coeffs, np.stack([(a + b).coeffs for a, b in
                                                zip(F.components, G.components)]))
    assert same_bytes((2.5 * F).coeffs, np.stack([(2.5 * a).coeffs for a in F.components]))
    with pytest.raises(ValueError, match="mismatch"):
        F + F.components[0]


_BATCHED_OPERATORS = {
    "discrete_derivative": lambda f: discrete_derivative(f, f.n - 1),
    "partial_derivative": lambda f: partial_derivative(f, f.n // 2),
    "apply_multiplier": lambda f: apply_multiplier(f, np.linspace(-1.0, 2.0, f.n + 1)),
    "laplacian": laplacian,
    "heat": lambda f: heat(f, 0.3),
    "frac_power": lambda f: frac_power(f, 0.5),
    "riesz": lambda f: riesz(f, f.n // 2),
    "group_translate": lambda f: group_translate(f, 1 - 2 * (np.arange(f.n) % 2)),
    "permute_coordinates": lambda f: permute_coordinates(f, np.roll(np.arange(f.n), 1)),
}


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("n", range(1, 18))
def test_batched_operators_equal_per_component_calls(rng, n, R):
    # n = 16 and 17 take the level multipliers past one _BLOCK of values; a quarter
    # of the coefficients are -0.0, and D_i turns negative ones into -0.0 too
    F = VectorCubeFunction.from_coeffs(n, _signed_zero_coeffs(n, rng, R))
    for name, op in _BATCHED_OPERATORS.items():
        out = op(F)
        assert type(out) is VectorCubeFunction and out.n == n, name
        assert same_bytes(out.coeffs, per_component_reference(op, F)), name


def test_bicube_marginals_and_reembedding(rng):
    family = [random_function(3, rng) for _ in range(4)]
    F = BiCubeFunction.from_sign_family(family)
    # extraction recovers the family
    for j, fj in enumerate(family):
        assert np.max(np.abs(F.marginal(j).coeffs - fj.coeffs)) < 1e-12
    # re-embedding the marginals reproduces a degree-one multilinear F
    again = BiCubeFunction.from_sign_family(F.marginals())
    assert np.max(np.abs(again.values - F.values)) < 1e-12


def test_bicube_translate_lift(rng):
    f = random_function(3, rng)
    F = BiCubeFunction.from_translate(f)
    vals = f.values()
    for e in range(8):
        for h in range(8):
            assert abs(F.values[e, h] - vals[e ^ h]) < 1e-12


def test_batched_walsh_transform_matches_rows(rng):
    a = rng.standard_normal((3, 5, 1 << 6))
    rows = np.stack([[walsh_transform(row) for row in block] for block in a])
    assert np.array_equal(walsh_transform(a), rows)
    assert np.array_equal(walsh_transform(a[0].T.copy().T), rows[0])  # strided input
    F = VectorCubeFunction([random_function(4, rng) for _ in range(3)])
    assert np.array_equal(F.values(), np.stack([c.values() for c in F.components]))


@pytest.mark.parametrize("n_eps,n_delta", [(1, 1), (3, 2), (5, 4)])
def test_map_eps_matches_per_column_loop(rng, n_eps, n_delta):
    grid = rng.standard_normal((1 << n_eps, 1 << n_delta))
    F = BiCubeFunction(n_eps, n_delta, grid)
    for op in (lambda h: frac_power(discrete_derivative(h, 0), 0.5),
               lambda h: heat(h, 0.3), lambda h: riesz(h, n_eps - 1)):
        loop = per_column_reference(op, grid)
        calls = []

        def counted(h, op=op):
            calls.append(h)
            return op(h)

        out = F.map_eps(counted)
        assert np.max(np.abs(out.values - loop)) < 1e-12
        # map_eps is one call of the operator on the function itself
        assert len(calls) == 1 and calls[0] is F
        assert same_bytes(out.coeffs, op(F).coeffs)


@pytest.mark.parametrize("n_eps,n_delta", [(1, 1), (3, 2), (5, 4)])
def test_operators_act_in_eps_on_a_bicube_function(rng, n_eps, n_delta):
    grid = rng.standard_normal((1 << n_eps, 1 << n_delta))
    grid[:, 0] += 1.0  # a column with a mean, for frac_power to drop
    F = BiCubeFunction(n_eps, n_delta, grid)
    for name, op in _BATCHED_OPERATORS.items():
        out = op(F)
        loop = per_column_reference(op, grid)
        assert type(out) is BiCubeFunction, name
        assert (out.n_eps, out.n_delta) == (n_eps, n_delta), name
        assert np.max(np.abs(out.values - loop)) < 1e-12, name


def _spread(rng, shape):
    """Signed values whose magnitudes span 1e-5 to 1e5."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)


@pytest.mark.parametrize("shape", [(1 << n,) for n in (0, 1, 15, 16, 17, 20, 22)]
                         + [(3, 1 << 16), (2, 3, 1 << 17)]
                         + [(1 << n,) for n in (*range(2, 15), 18, 19)]
                         + [(5, 1 << 14), (3, 1 << 13), (2, 1 << 19), (3, 1 << 18)])
def test_walsh_transform_bit_identical_to_stage_by_stage(rng, shape):
    # every n to 19: both parities of the row stage count, 1-4 row-pair stages,
    # the 2^22 size, row groups over several blocks (the last short), and an
    # odd number of lead rows whose row pairs must stay inside each lead row
    a = _spread(rng, shape)
    before = a.copy()
    assert np.array_equal(walsh_transform(a), walsh_reference(a))
    assert np.array_equal(a, before)


@pytest.mark.parametrize("n", [3, 4, 15, 17])
@pytest.mark.parametrize("make", [
    lambda rng, n: rng.integers(-1000, 1000, (2, 1 << n)),
    lambda rng, n: _spread(rng, (2, 1 << n)).astype(np.float32),
    lambda rng, n: np.asfortranarray(_spread(rng, (3, 1 << n))),
    lambda rng, n: _spread(rng, (2, 1 << (n + 1)))[:, ::2],
    lambda rng, n: _spread(rng, (4, 1 << n))[::2],
    lambda rng, n: list(_spread(rng, (2, 1 << n))),
], ids=["int", "float32", "fortran", "strided", "row-strided", "list"])
def test_walsh_transform_of_any_input_equals_the_float64_reference(rng, make, n):
    # each is copied once and transformed in that copy, through both stage parities
    a = make(rng, n)
    before = np.array(a)
    out = walsh_transform(a)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, walsh_reference(np.asarray(a, dtype=np.float64)))
    assert np.array_equal(np.asarray(a), before)


@pytest.mark.parametrize("n", [16, 20])
def test_walsh_transform_holds_one_block_beside_its_output(rng, n):
    # the one block buffer: the low stages run through it a row group at a
    # time, and each high-stage row pair holds its sums there; that pair's
    # operands are whole contiguous rows, which take no iterator buffers
    f = random_function(n, rng)
    f.values()  # warm any first-call caches
    tracemalloc.start()
    try:
        f.values()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << n) * 8 + 1.5 * _BLOCK * 8


@settings(max_examples=25, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=2), n=st.integers(0, 17),
       seed=st.integers(0, 2**32 - 1))
def test_walsh_transform_property(lead, n, seed):
    a = _spread(np.random.default_rng(seed), (*lead, 1 << n))
    out = walsh_transform(a)
    assert np.array_equal(out, walsh_reference(a))
    m = 1 << n
    assert np.max(np.abs(walsh_transform(out) - m * a)) <= 1e-12 * m * np.abs(a).max()


def test_xor_grid_is_cached_and_read_only():
    grid = _xor_grid(4)
    assert grid is _xor_grid(4)
    idx = np.arange(16)
    assert np.array_equal(grid, idx[:, None] ^ idx[None, :])
    with pytest.raises(ValueError):
        grid[0, 0] = 1


@pytest.mark.parametrize("t", [np.nan, np.inf, -0.5])
def test_heat_refuses_a_time_outside_zero_to_infinity(t):
    with pytest.raises(ValueError, match="finite t >= 0"):
        heat(character(3, 0b101), t)


def test_character_of_one_coordinate_is_its_sign_column():
    for n in range(1, 11):
        idx = np.arange(1 << n)
        for j in range(n):
            assert np.array_equal(character(n, 1 << j).values(), 1.0 - 2.0 * ((idx >> j) & 1))


# -- properties over random functions (n <= 6) ---------------------------------

_functions = st.builds(lambda n, seed: random_function(n, stream_generator(seed)),
                       st.integers(1, 6), st.integers(0, 2**32 - 1))
_times = st.floats(0.0, 5.0)


def _close_coeffs(a, b, rel=1e-12):
    return np.max(np.abs(a.coeffs - b.coeffs)) <= rel * max(1.0, np.abs(b.coeffs).max())


@settings(max_examples=30, deadline=None)
@given(f=_functions, s=_times, t=_times)
def test_heat_semigroup_law_property(f, s, t):
    assert _close_coeffs(heat(heat(f, s), t), heat(f, s + t))


@settings(max_examples=30, deadline=None)
@given(f=_functions, data=st.data())
def test_translation_commutes_with_multipliers_property(f, data):
    table = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=f.n + 1,
                                        max_size=f.n + 1)))
    eta = 1 - 2 * np.array(data.draw(st.lists(st.integers(0, 1), min_size=f.n, max_size=f.n)))
    assert _close_coeffs(group_translate(apply_multiplier(f, table), eta),
                         apply_multiplier(group_translate(f, eta), table))


@settings(max_examples=30, deadline=None)
@given(f=_functions)
def test_parseval_property(f):
    energy = float(np.sum(f.coeffs**2))
    assert abs(float(np.mean(f.values()**2)) - energy) <= 1e-12 * energy


@pytest.mark.parametrize("n", range(1, 18))
def test_streamed_kernels_match_whole_array_references(rng, n):
    # n = 16 and 17 take two and four blocks of _BLOCK values; the second operand
    # is a strided view, and a quarter of the coefficients are -0.0
    assert 1 << 16 == 2 * _BLOCK
    c = _signed_zero_coeffs(n + 1, rng)
    table = rng.standard_normal(n + 1)
    for f in (CubeFunction(n, c[:1 << n]), CubeFunction(n, c[::2])):
        assert same_bytes(apply_multiplier(f, table).coeffs,
                          apply_multiplier_reference(f.coeffs, table))
        for i in sorted({0, n // 2, n - 1}):
            assert same_bytes(riesz(f, i).coeffs, riesz_reference(f.coeffs, i))


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("op", [
    lambda f: heat(f, 0.5),
    lambda f: frac_power(f, 0.5),
    lambda f: riesz(f, 7),
])
def test_level_multipliers_allocate_their_output_and_two_blocks(rng, op, n):
    # one block of gathered table entries, and the intp copy of its levels that take makes
    f = random_function(n, rng)
    op(f)  # warm the cached levels table
    tracemalloc.start()
    try:
        op(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << n) * 8 + 2 * _BLOCK * 8 + 4096
