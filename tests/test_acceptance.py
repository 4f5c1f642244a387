"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
The two observational growth criteria (5 and 11) use fixed seeds and the
grids stated inline; they are curve reports, not proof surrogates.
"""

import math
import time

import numpy as np

import cubeineq.counterexamples as cx
import cubeineq.quantum as qt
from cubeineq.cube import (
    VectorCubeFunction,
    random_function,
)
from cubeineq.inequalities import (
    InequalityInstance,
    SearchConfig,
    evaluate,
    random_inputs,
    search_max_ratio,
)
from cubeineq.noise import (
    symmetrized_tail_integral,
    verify_derivative_representation,
    verify_heat_representation,
)
from cubeineq.norms import MixedNormSpec, lp_norm, mixed_norm
from cubeineq.rng import stream_generator
from conftest import (brute_sup_rademacher_moment, from_translate, lamberton_gradient_norm,
                      lamberton_point_mass)


def _gate(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:>2} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_representation_formulas():
    rng = stream_generator(1)
    worst = 0.0
    for n in range(1, 11):
        for t in (0.05, 0.1, 0.5, 1.0, 3.0):
            for k in range(50):
                f = random_function(n, rng)
                worst = max(worst, verify_heat_representation(f, t))
                worst = max(worst, verify_derivative_representation(f, k % n, t))
    _gate(1, "representation formulas", worst <= 1e-12,
          f"max discrepancy {worst:.2e} (tol 1e-12, n<=10, 5 t's, 50 f each)")


def test_criterion_02_tail_integral():
    worst = 0.0
    for t in np.linspace(0.05, 4.0, 10):
        for r in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 16.0):
            gap = abs(symmetrized_tail_integral(t, r)
                      - symmetrized_tail_integral(t, r, numeric=True))
            worst = max(worst, gap)
    _gate(2, "symmetrized tail integral", worst <= 1e-12,
          f"max closed-vs-numeric gap {worst:.2e} on a 100-point (t, r) grid")


def test_criterion_03_p2_riesz_identity():
    rng = stream_generator(3)
    worst = 0.0
    for n in (4, 6, 8):
        inst = InequalityInstance("RIESZ_LOWER", n=n, p=2)
        for _ in range(100):
            rep = evaluate(inst, random_inputs(inst, rng))
            worst = max(worst, abs(rep.ratio - 1.0))
    _gate(3, "p=2 Riesz identity", worst <= 1e-12,
          f"max |ratio - 1| = {worst:.2e} over 100 f at n in {{4,6,8}}")


def test_criterion_04_pisier_constant():
    t0 = time.perf_counter()
    pm = cx.pisier_min_constant(1)
    gap1 = abs(pm.value - (3.0 + 2.0 * math.sqrt(2.0)))
    # the displayed functional grows linearly in n (its log factor is lost
    # in the source display); the log n + log log n drift bound is carried
    # by the corrected functional pisier_constant_bound
    drifts = [cx.pisier_constant_bound(n).value - math.log(n) - math.log(math.log(n))
              for n in (10**3, 10**4, 10**5, 10**6)]
    spread = max(drifts) - min(drifts)
    elapsed = time.perf_counter() - t0
    ok = gap1 <= 1e-9 and spread < 0.5 and elapsed < 10.0
    _gate(4, "Pisier constant minimization", ok,
          f"|min(1)-(3+2sqrt2)|={gap1:.2e}, log-form drift spread={spread:.3f}, "
          f"{elapsed:.2f}s")


def test_criterion_05_talagrand_reproduction():
    # radial vs dense for n <= 10
    worst_dense = 0.0
    for n in (4, 6, 8, 10):
        for p in (2.0, 3.0):
            rep = cx.talagrand_ratio(n, p)
            f = cx.talagrand_profile(n).to_cube_function()
            F = from_translate(f)
            recentered = F.values - F.values.mean(axis=0, keepdims=True)
            lhs_dense = float(((np.abs(recentered).max(axis=1) ** p).mean()) ** (1 / p))
            rhs_dense = brute_sup_rademacher_moment(f, p)
            worst_dense = max(worst_dense, abs(rep.lhs - lhs_dense),
                              abs(rep.rhs - rhs_dense))
    # growth over n = 2^8 .. 2^20
    ns = [2**k for k in range(8, 21, 2)]
    reports = [cx.talagrand_ratio(n, 2.0) for n in ns]
    lhs = [r.lhs for r in reports]
    rhs = np.array([r.rhs for r in reports])
    curve = cx.GrowthCurve.fit(ns, lhs)
    resid_frac = curve.residual / (max(lhs) - min(lhs))
    rhs_var = (rhs.max() - rhs.min()) / rhs.mean()
    excess = cx.talagrand_pointwise_bound(2**10, 100_000, seed=0)
    ok = (worst_dense <= 1e-10 and curve.slope > 0 and resid_frac < 0.05
          and rhs_var < 0.10 and excess <= 0.0)
    _gate(5, "Talagrand reproduction", ok,
          f"dense gap {worst_dense:.2e}; lhs slope {curve.slope:.4f} "
          f"(resid/range {resid_frac:.2%}); rhs var {rhs_var:.2%}; "
          f"bound excess {excess:.2f} on 1e5 samples")


def test_criterion_06_lamberton_reproduction():
    ratios = [cx.lamberton_ratio(n, 1.5).ratio for n in range(6, 21)]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    worst = 0.0
    for n in (6, 10, 13):
        f = lamberton_point_mass(n).to_cube_function()
        from cubeineq.cube import gradient

        grads = np.stack([g.values() for g in gradient(f)])
        dense = float((((np.sqrt((grads**2).sum(0))) ** 1.5).mean()) ** (1 / 1.5))
        worst = max(worst, abs(lamberton_gradient_norm(n, 1.5) - dense))
    ok = increasing and worst <= 1e-10
    _gate(6, "Lamberton reproduction", ok,
          f"ratio strictly increasing n=6..20 ({ratios[0]:.3f} -> {ratios[-1]:.3f}); "
          f"gradient closed-vs-dense gap {worst:.2e}")


def test_criterion_07_quantum_isometries():
    rng = stream_generator(7)
    worst = 0.0
    for n in (2, 4, 6):
        for _ in range(50):
            f = random_function(n, rng)
            T = qt.embed(f)
            ps = (1.0, 1.5, 2.0, 3.0, np.inf)
            for p, norm in zip(ps, qt.schatten_norms(T, ps)):
                worst = max(worst, abs(norm - lp_norm(f, p)))
    worst_block = 0.0
    for R in (2, 4):
        F = VectorCubeFunction([random_function(3, rng) for _ in range(R)])
        for p in (1.5, 2.0, 3.0):
            worst_block = max(
                worst_block,
                abs(qt.block_column_norm(F, p) - mixed_norm(F, MixedNormSpec.lq(p, 2.0))),
                abs(qt.block_diag_norm(F, p) - mixed_norm(F, MixedNormSpec.lq(p, p))))
    ok = worst <= 1e-10 and worst_block <= 1e-10
    _gate(7, "quantum isometries", ok,
          f"scalar embedding gap {worst:.2e}; block gap {worst_block:.2e}")


def test_criterion_08_projection():
    rng = stream_generator(8)
    worst_gap = worst_idem = 0.0
    violations = 0
    for _ in range(100):
        M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        PM = qt.project_Q(M)
        worst_gap = max(worst_gap, float(np.max(np.abs(PM - qt.project_by_conjugation(M)))))
        worst_idem = max(worst_idem, float(np.max(np.abs(qt.project_Q(PM) - PM))))
        ps = (1.0, 1.5, 2.0, 3.0, np.inf)
        for projected, full in zip(qt.schatten_norms(PM, ps), qt.schatten_norms(M, ps)):
            violations += projected > full + 1e-12
    ok = worst_gap <= 1e-12 and worst_idem <= 1e-12 and violations == 0
    _gate(8, "projection onto the Q-span", ok,
          f"words vs conjugation gap {worst_gap:.2e} on 100 matrices; idempotence gap "
          f"{worst_idem:.2e}; contraction violations {violations}")


def test_criterion_09_kernel_moment_law():
    quad = qt.QuadratureRule.build()
    prods = [quad.moment(m) * math.sqrt(m + 1) for m in range(65)]
    spread = max(prods) - min(prods)
    # 2 sqrt(pi) comes from u = -log cos theta, confirmed by an independent
    # adaptive quadrature before being frozen here
    c_gap = abs(quad.normalizing_constant() - 2.0 * math.sqrt(math.pi))
    ok = spread <= 1e-13 and c_gap <= 1e-14
    _gate(9, "kernel moment law", ok,
          f"I(m)sqrt(m+1) spread {spread:.2e} over m<=64; |c - 2sqrt(pi)| = {c_gap:.2e}")


def test_criterion_10_halfpower_formulas():
    rng = stream_generator(10)
    quad = qt.QuadratureRule.build()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(5):
            f = random_function(n, rng)
            for j in range(n):
                worst = max(worst, qt.verify_qa_formula(f, j, quad))
            g = random_function(n, rng, mean_zero=True)
            worst = max(worst, qt.verify_elpF(g, quad))
    _gate(10, "half-power integral formulas", worst <= 1e-12,
          f"max residual {worst:.2e} (tol 1e-12, n<=5, 20 f, all j)")


def test_criterion_11_dimension_free_sweeps():
    budget = dict(trials=20, restarts=2, ascent_steps=60, seed=2026)
    curves = {}
    for q, p in ((2.0, 2.0), (2.0, 3.0), (3.0, 3.0)):
        ratios = []
        for k, n in enumerate((4, 6, 8, 10)):
            inst = InequalityInstance("R_BELOW", n=n, p=p, q=q, a=0.5,
                                      inner="lq", R=2)
            rep, _ = search_max_ratio(inst, SearchConfig(stream=k, **budget))
            ratios.append(rep.ratio)
        curves[f"l^{q} p={p}"] = ratios
    for gamma in (0.1, 0.25):
        for p in (2.0, 3.0):
            ratios = []
            for k, n in enumerate((4, 6, 8, 10)):
                inst = InequalityInstance("GAMMA_BELOW", n=n, p=p, gamma=gamma)
                rep, _ = search_max_ratio(inst, SearchConfig(stream=10 + k, **budget))
                ratios.append(rep.ratio)
            curves[f"gamma={gamma} p={p}"] = ratios
    growths = {name: (r[-1] - r[0]) / r[0] for name, r in curves.items()}
    worst_name = max(growths, key=growths.get)
    ok = all(g <= 0.15 for g in growths.values())
    for name, r in curves.items():
        print(f"      {name}: " + " ".join(f"{v:.4f}" for v in r)
              + f"  (growth {growths[name]:+.2%})")
    _gate(11, "dimension-free sweeps", ok,
          f"max end-to-end growth {growths[worst_name]:+.2%} ({worst_name}), "
          f"threshold 15%, fixed seeds")
