import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubeineq.cube import (
    BiCubeFunction,
    CubeFunction,
    character,
    discrete_derivative,
    frac_power,
    heat,
    permute_coordinates,
    random_function,
)
from cubeineq.inequalities import (
    ALIASES,
    CATALOG,
    MAX_INPUT_COEFFS,
    InequalityInstance,
    RatioReport,
    SearchConfig,
    evaluate,
    random_inputs,
    ratio_row,
    rows_to_csv,
    search_max_ratio,
    sweep,
    SWEEP_COLUMNS,
    _build_inputs,
    _canonical_thetas,
    _input_dim,
)
from cubeineq.norms import lp_norm, rademacher_avg
from cubeineq.rng import stream_generator


def test_dictator_riesz_lower_ratio_is_one():
    for p in (1.0, 2.0, 3.5):
        inst = InequalityInstance("RIESZ_LOWER", n=4, p=p)
        rep = evaluate(inst, character(4, 0b1))
        assert abs(rep.ratio - 1.0) < 1e-12


def test_p2_riesz_lower_is_parseval_identity(rng):
    inst = InequalityInstance("RIESZ_LOWER", n=6, p=2)
    for _ in range(10):
        rep = evaluate(inst, random_function(6, rng))
        assert abs(rep.ratio - 1.0) < 1e-12


def test_f1_on_sign_family_equals_delta_fi(rng):
    n = 4
    family = [random_function(n, rng) for _ in range(n)]
    F = BiCubeFunction.from_sign_family(family)
    rep_f1 = evaluate(InequalityInstance("F1", n=n, p=3.0), F)
    rep_delta = evaluate(InequalityInstance("DELTA_FI", n=n, p=3.0, a=1.0), family)
    assert abs(rep_f1.lhs - rep_delta.lhs) < 1e-12
    assert abs(rep_f1.rhs - rep_delta.rhs) < 1e-12


def test_search_respects_p2_identity():
    inst = InequalityInstance("RIESZ_LOWER", n=5, p=2)
    rep, _ = search_max_ratio(inst, SearchConfig(trials=40, restarts=2, ascent_steps=60, seed=1))
    assert abs(rep.ratio - 1.0) < 1e-9


def test_search_dominates_fixed_witness(rng):
    inst = InequalityInstance("DELTA_FI", n=6, p=4.0, a=1.0)
    dictator_family = [character(6, 1 << i) for i in range(6)]
    base = evaluate(inst, dictator_family).ratio
    rep, _ = search_max_ratio(inst, SearchConfig(trials=30, restarts=2, ascent_steps=80, seed=4))
    assert rep.ratio >= base - 1e-12


def test_search_monotone_in_budget():
    inst = InequalityInstance("PISIER", n=4, p=3.0)
    small, _ = search_max_ratio(inst, SearchConfig(trials=10, restarts=1, ascent_steps=0, seed=9))
    large, _ = search_max_ratio(inst, SearchConfig(trials=40, restarts=1, ascent_steps=0, seed=9))
    # same seed: the larger budget replays the smaller one's draws first
    assert large.ratio >= small.ratio - 1e-15


def test_homogeneity(rng):
    inst = InequalityInstance("R_BELOW", n=4, p=3.0, a=0.5)
    family = [random_function(4, rng) for _ in range(4)]
    rep1 = evaluate(inst, family)
    rep2 = evaluate(inst, [f * 4.0 for f in family])
    assert abs(rep1.ratio - rep2.ratio) < 1e-12 * max(1.0, rep1.ratio)


def test_permutation_invariance(rng):
    inst = InequalityInstance("RIESZ_LOWER", n=5, p=3.0)
    f = random_function(5, rng)
    perm = [3, 0, 4, 1, 2]
    rep1 = evaluate(inst, f)
    rep2 = evaluate(inst, permute_coordinates(f, perm))
    assert abs(rep1.ratio - rep2.ratio) < 1e-12


def test_duality_spot_check(rng):
    # p = 2, F = sum_j delta_j F_j with F_j = L^{-1} D_j g
    n = 4
    g = random_function(n, rng, mean_zero=True)
    family = [frac_power(discrete_derivative(g, j), 1.0) for j in range(n)]
    F = BiCubeFunction.from_sign_family(family)
    rep_f1 = evaluate(InequalityInstance("F1", n=n, p=2.0), F)
    rep_df = evaluate(InequalityInstance("DF", n=n, p=2.0), g)
    # shared quantity: DF's Rademacher side equals F1's right side on this pair
    assert abs(rep_df.lhs - rep_f1.rhs) < 1e-9
    # adjointness of the pairing: <sum_j L^{-1} D_j F_j, g> = E[F * sum_j delta_j L^{-1} D_j g]
    lhs_fn = sum(
        (frac_power(discrete_derivative(Fj, j), 1.0) for j, Fj in enumerate(family)),
        character(n, 0) * 0.0,
    )
    pair_lhs = float((lhs_fn.values() * g.values()).mean())
    G = BiCubeFunction.from_sign_family(
        [frac_power(discrete_derivative(g, j), 1.0) for j in range(n)])
    pair_rhs = float((F.values * G.values).mean())
    assert abs(pair_lhs - pair_rhs) < 1e-9


def test_odd_family_restriction_consistency(rng):
    # for f_i odd in eps_i (i.e. D_i f_i = f_i) the two right-hand sides agree
    n = 5
    family = [discrete_derivative(random_function(n, rng), i) for i in range(n)]
    with_d = evaluate(InequalityInstance("R_BELOW", n=n, p=3.0, a=0.5), family)
    without = evaluate(InequalityInstance("R_BELOW_NOD", n=n, p=3.0, a=0.5), family)
    assert abs(with_d.lhs - without.lhs) < 1e-12
    assert abs(with_d.rhs - without.rhs) < 1e-12
    assert abs(with_d.ratio - without.ratio) < 1e-12


def test_pt_deriv_single_character_closed_form():
    # f_i = eps^B for all i, |B| = k: lhs = k e^{-kt}, rhs = sqrt(k/(e^{2t}-1))
    n, t, k = 3, 0.6, 3
    family = [character(n, 0b111) for _ in range(n)]
    rep = evaluate(InequalityInstance("PT_DERIV", n=n, p=2.0, t=t), family)
    expect = math.sqrt(k) * math.exp(-k * t) * math.sqrt(math.exp(2 * t) - 1.0)
    assert abs(rep.ratio - expect) < 1e-12


def test_pt_deriv_matches_unscaled_sides_and_stays_finite_at_large_t(rng):
    n = 4
    family = [random_function(n, rng) for _ in range(n)]

    def ratio(t):
        return evaluate(InequalityInstance("PT_DERIV", n=n, p=2.0, t=t), family).ratio

    lhs = lp_norm(sum((discrete_derivative(heat(f, 0.5), i) for i, f in enumerate(family)),
                      0.0), 2.0)
    rad = rademacher_avg([discrete_derivative(f, i) for i, f in enumerate(family)], 2.0).value
    unscaled = lhs / (rad / math.sqrt(math.exp(1.0) - 1.0))
    assert abs(ratio(0.5) - unscaled) <= 1e-12 * unscaled
    # unscaled, exp(2t) overflows past t ~ 355 and the e^{-t} lhs terms underflow when squared
    far, farther = ratio(400.0), ratio(800.0)
    assert math.isfinite(far) and far > 0
    assert abs(far - farther) <= 1e-12 * far


def test_epi_trivial_and_reduction(rng):
    n = 4
    fam = [character(n, 0b0110) for _ in range(n)]
    rep = evaluate(InequalityInstance("EPI", n=n, p=3.0), fam)
    assert abs(rep.ratio - 1.0) < 1e-12
    # f_i = D_i f folds the display into ||L^{1/2} f||_p vs the gradient norm
    f = random_function(n, rng, mean_zero=True)
    fam2 = [discrete_derivative(f, i) for i in range(n)]
    rep2 = evaluate(InequalityInstance("EPI", n=n, p=3.0), fam2)
    assert abs(rep2.lhs - lp_norm(frac_power(f, -0.5), 3.0)) < 1e-12
    grads = np.stack([discrete_derivative(f, i).values() for i in range(n)])
    sq = float(((np.sqrt((grads**2).sum(0)) ** 3.0).mean()) ** (1 / 3.0))
    assert abs(rep2.rhs - sq) < 1e-12


def test_instance_validation():
    with pytest.raises(ValueError, match="catalog"):
        InequalityInstance("NOT_AN_ID", n=4, p=2.0)
    with pytest.raises(ValueError):
        InequalityInstance("R_BELOW", n=4, p=2.0, a=1.5)
    with pytest.raises(ValueError):
        InequalityInstance("GAMMA_BELOW", n=4, p=2.0, gamma=0.5)
    with pytest.raises(ValueError):
        InequalityInstance("PT_DERIV", n=4, p=2.0, t=0.0)
    with pytest.raises(ValueError):
        InequalityInstance("RIESZ_LOWER", n=4, p=np.inf)
    with pytest.raises(ValueError):
        InequalityInstance("GRAD_L1P", n=4, p=2.5)
    # documented aliases
    assert InequalityInstance("R_ABOVE_DUAL", n=4, p=2.0).ineq_id == "F1"
    assert InequalityInstance("DELTA_FI", n=4, p=2.0, a=1.0).ineq_id == "R_BELOW_NOD"
    assert InequalityInstance("RIESZ_FULL_BELOW", n=4, p=2.0).ineq_id == "RIESZ_LOWER"
    assert len(CATALOG) == 11 and len(ALIASES) == 3
    assert not set(ALIASES) & set(CATALOG) and set(ALIASES.values()) <= set(CATALOG)


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_alias_evaluates_bit_equal_to_its_target(alias):
    target = ALIASES[alias]
    params = dict(n=4, p=3.0, a=0.5)
    via_alias = InequalityInstance(alias, **params)
    direct = InequalityInstance(target, **params)
    inputs = random_inputs(direct, stream_generator(21, 0))
    assert evaluate(via_alias, inputs) == evaluate(direct, inputs)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("inner", ["scalar", "lq"])
def test_r_above_p2_identity(n, inner):
    # p = 2: rad{R_i f}^2 = sum_i ||R_i f||_2^2 = sum_{A != 0} fhat(A)^2 = ||f - Ef||_2^2
    inst = InequalityInstance("R_ABOVE", n=n, p=2.0, q=2.0 if inner == "lq" else None,
                              inner=inner)
    rng = stream_generator(n, 1)
    f = random_inputs(inst, rng)
    parts = [f] if inner == "scalar" else f.components
    total = math.sqrt(sum(float(np.sum(g.coeffs**2)) for g in parts))
    centred = math.sqrt(sum(float(np.sum(g.coeffs[1:]**2)) for g in parts))
    assert abs(evaluate(inst, f).ratio - centred / total) < 1e-12
    for g in parts:
        g.coeffs[0] = 0.0
    assert abs(evaluate(inst, f).ratio - 1.0) < 1e-12


def _catalog_instance(ineq, inner="scalar", **overrides):
    params = dict(n=3, p=1.5 if ineq == "GRAD_L1P" else 3.0, a=0.5, gamma=0.25, t=0.5,
                  inner=inner, q=None if inner == "scalar" else 3.0)
    return InequalityInstance(ineq, **{**params, **overrides})


@pytest.mark.parametrize("ineq", list(CATALOG))
def test_catalog_entry_contract(ineq):
    entry = CATALOG[ineq]
    if entry.needs is not None:
        with pytest.raises(ValueError, match=f"{ineq} needs"):
            _catalog_instance(ineq, **{entry.needs: None})
    inners = ["scalar"] if entry.scalar_only else ["scalar", "lq", "Lq"]
    if entry.scalar_only:
        with pytest.raises(ValueError, match="scalar values only"):
            _catalog_instance(ineq, inner="lq")
    for inner in inners:
        inst = _catalog_instance(ineq, inner)
        assert inst.input_kind == entry.kind
        rep = evaluate(inst, random_inputs(inst, stream_generator(5, 0)))
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)


@pytest.mark.parametrize("ineq", list(CATALOG))
def test_ratio_row_echoes_only_the_parameter_the_entry_reads(ineq):
    # the instance carries a, gamma and t; the row names the one in `needs`
    needs = CATALOG[ineq].needs
    row = ratio_row(_catalog_instance(ineq), RatioReport(1.0, 1.0, 1.0), seed=0)
    assert row["a_or_gamma"] == {"a": 0.5, "gamma": 0.25}.get(needs, "")
    assert row["t"] == (0.5 if needs == "t" else "")


def _close(value, expected):
    return abs(value - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_norm_sides_match_their_explicit_formulas(n, p):
    rng = stream_generator(n, 2)
    # EPI: || (sum_i |D_i f_i|^2)^{1/2} ||_p
    inst = InequalityInstance("EPI", n=n, p=p)
    family = random_inputs(inst, rng)
    grads = np.stack([discrete_derivative(f, i).values() for i, f in enumerate(family)])
    assert _close(evaluate(inst, family).rhs,
                  float((np.sqrt((grads**2).sum(0)) ** p).mean() ** (1 / p)))
    # F1: || F ||_p over the product cube
    inst = InequalityInstance("F1", n=n, p=p)
    F = random_inputs(inst, rng)
    assert _close(evaluate(inst, F).rhs, float((np.abs(F.values) ** p).mean() ** (1 / p)))
    # PISIER with L^q values: || F - E_eps F ||, centred in the first variable
    inst = InequalityInstance("PISIER", n=n, p=p, q=2.5, inner="Lq")
    F = random_inputs(inst, rng)
    centred = F.values - F.values.mean(axis=0)
    inner = (np.abs(centred) ** 2.5).mean(axis=1) ** (1 / 2.5)
    assert _close(evaluate(inst, F).lhs, float((inner**p).mean() ** (1 / p)))


def test_operand_of_the_wrong_value_space_refused(rng):
    f = random_function(3, rng)
    with pytest.raises(ValueError, match="RIESZ_LOWER expects lq operands, got CubeFunction"):
        evaluate(InequalityInstance("RIESZ_LOWER", n=3, p=2.0, q=2.0, inner="lq"), f)
    with pytest.raises(ValueError, match="F1 expects Lq operands, got CubeFunction"):
        evaluate(InequalityInstance("F1", n=3, p=2.0), f)
    with pytest.raises(ValueError, match="expects scalar operands, got list"):
        evaluate(InequalityInstance("PISIER", n=3, p=2.0), [f])
    with pytest.raises(ValueError, match="operand dimension 4"):
        evaluate(InequalityInstance("F1", n=3, p=2.0),
                 BiCubeFunction(4, 3, np.zeros((16, 8))))


@pytest.mark.parametrize("n_delta", [1, 4])
def test_f1_refuses_a_second_cube_of_another_dimension(rng, n_delta):
    # one marginal (n_delta = 1) gave a finite ratio; four ran D_3 on an n = 3 function
    F = BiCubeFunction(3, n_delta, rng.standard_normal((8, 1 << n_delta)))
    with pytest.raises(ValueError, match=f"F1 needs n_eps = n_delta = n=3, "
                                         f"got n_eps=3, n_delta={n_delta}"):
        evaluate(InequalityInstance("F1", n=3, p=3.0), F)


def test_shape_mismatch_rejected(rng):
    inst = InequalityInstance("R_BELOW", n=4, p=2.0, a=0.5)
    with pytest.raises(ValueError):
        evaluate(inst, [random_function(4, rng)])  # family too short
    with pytest.raises(ValueError):
        evaluate(InequalityInstance("RIESZ_LOWER", n=4, p=2.0), random_function(5, rng))


def test_inputs_over_budget_refused(rng):
    # an L^q-valued input at n = 11 is exactly the budget; n = 12 is over it
    assert _input_dim(InequalityInstance("GAMMA_BELOW", n=11, p=2.0, q=2.0, gamma=0.25,
                                         inner="Lq"))[1] == MAX_INPUT_COEFFS
    for inst in (InequalityInstance("GAMMA_BELOW", n=12, p=2.0, q=2.0, gamma=0.25, inner="Lq"),
                 InequalityInstance("R_BELOW", n=14, p=2.0, q=2.0, a=0.5, inner="Lq")):
        with pytest.raises(ValueError, match="budget"):
            random_inputs(inst, rng)
        with pytest.raises(ValueError, match="budget"):
            search_max_ratio(inst, SearchConfig(trials=1))


def test_infinite_ratio_reported_not_raised():
    # a function with no level-one energy makes the dictator rhs vanish
    inst = InequalityInstance("RIESZ_LOWER", n=2, p=2.0)
    f = CubeFunction(2, [1.0, 0.0, 0.0, 0.0])  # constant: both sides zero
    rep = evaluate(inst, f)
    assert rep.ratio == 0.0 and rep.rhs == 0.0


def test_singleton_sweep_reduces_to_evaluate():
    rows = sweep("RIESZ_LOWER", [4], [2.0], seed=3)
    assert len(rows) == 1
    inst = InequalityInstance("RIESZ_LOWER", n=4, p=2.0)
    rep = evaluate(inst, random_inputs(inst, stream_generator(3, 0)))
    assert abs(rows[0]["ratio"] - rep.ratio) < 1e-15
    assert set(SWEEP_COLUMNS) == set(rows[0].keys())


def test_pt_deriv_sweep_reports_rows():
    rows = sweep("PT_DERIV", [4], [1.5], t=0.5, seed=1)
    assert all(np.isfinite(r["ratio"]) for r in rows)


def test_gamma_below_sweep_bounded(rng):
    ratios = []
    for n in (4, 6):
        inst = InequalityInstance("GAMMA_BELOW", n=n, p=2.0, gamma=0.25)
        rep, _ = search_max_ratio(inst, SearchConfig(trials=15, restarts=1,
                                                     ascent_steps=40, seed=2))
        ratios.append(rep.ratio)
    assert all(np.isfinite(r) for r in ratios)


def test_csv_schema():
    rows = sweep("RIESZ_LOWER", [4], [2.0], seed=0)
    text = rows_to_csv(rows)
    header = text.splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


def test_vector_valued_riesz_lower(rng):
    from cubeineq.cube import VectorCubeFunction

    inst = InequalityInstance("RIESZ_LOWER", n=4, p=2.0, q=2.0, inner="lq", R=2)
    F = VectorCubeFunction([random_function(4, rng) for _ in range(2)])
    rep = evaluate(inst, F)
    # p = q = 2: Parseval again forces ratio one
    assert abs(rep.ratio - 1.0) < 1e-12


def _point_values(g):
    """One row of point values per scalar function an operand carries; an L^q
    operand's rows are its columns in the second cube."""
    if isinstance(g, CubeFunction):
        return g.values()[None]
    if isinstance(g, BiCubeFunction):
        return g.values.T
    return g.values()


@pytest.mark.parametrize("ineq", list(CATALOG))
def test_dictator_warm_start_is_the_characters(ineq):
    # operand i of the dictator start is eps_{i mod n}, up to one positive scale;
    # F1's one two-variable operand is sum_j delta_j eps_j
    n = 3
    chars = [character(n, 1 << j).values() for j in range(n)]
    for inner in ["scalar"] if CATALOG[ineq].scalar_only else ["scalar", "lq", "Lq"]:
        inst = _catalog_instance(ineq, inner, R=3)
        inputs = _build_inputs(inst, _canonical_thetas(inst)[0])
        if inst.input_kind == "bi":
            grid = sum(np.outer(c, c) for c in chars)  # rows eps, columns delta
            assert np.allclose(inputs.values / inputs.values[0, 0], grid / grid[0, 0])
            continue
        operands = inputs if inst.input_kind == "family" else [inputs]
        assert len(operands) == (n if inst.input_kind == "family" else 1)
        scale = _point_values(operands[0])[0, 0]
        assert scale > 0
        for i, g in enumerate(operands):
            rows = _point_values(g)
            assert np.allclose(rows, scale * np.broadcast_to(chars[i % n], rows.shape))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       inner=st.sampled_from(["scalar", "lq", "Lq"]))
def test_p2_riesz_lower_identity_property(n, seed, inner):
    # E||sum_i delta_i D_i f||_2^2 = sum_A |A| fhat(A)^2 = ||L^{1/2} f||_2^2 in any
    # Hilbert value space, so the ratio is 1 whenever f is not constant
    inst = InequalityInstance("RIESZ_LOWER", n=n, p=2.0, q=None if inner == "scalar" else 2.0,
                              inner=inner)
    rep = evaluate(inst, random_inputs(inst, stream_generator(seed)))
    assert abs(rep.ratio - 1.0) < 1e-12
