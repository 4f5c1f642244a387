"""Catalog of Riesz/Pisier-type inequality evaluators with ratio search.

Every entry evaluates the two sides of one labeled inequality on concrete
inputs and reports the ratio lhs/rhs; dimension-free claims are probed as
ratio curves over n, never as absolute constants (the sharp constants are
unknown, so nothing here pins one).  The 11 catalog entries:

    R_ABOVE           || sum_i delta_i R_i f ||            vs  || f ||
    RIESZ_LOWER       || L^{1/2} f ||                      vs  rad{D_i f}
    R_BELOW           || sum_i L^{-a} D_i f_i ||           vs  rad{D_i f_i}
    R_BELOW_NOD       || sum_i L^{-a} D_i f_i ||           vs  rad{f_i}
    PISIER            || f - E f ||                        vs  rad{D_i f}
    F1                || sum_j L^{-1} D_j F_j ||            vs  || F ||  (two-variable F)
    DF                rad{L^{-1} D_j g}                    vs  || g ||
    PT_DERIV          e^t || sum_i D_i P_t f_i ||           vs  (1-e^{-2t})^{-1/2} rad{D_i f_i}
    EPI               || sum_i D_i L^{-1/2} f_i ||_p        vs  || (sum |D_i f_i|^2)^{1/2} ||_p
    GAMMA_BELOW       || L^{1/2-gamma} f ||                vs  rad{D_i f}
    GRAD_L1P          || |grad f|_{ell^2} ||_p             vs  || L^{1/p} f ||_p   (probe, 1<p<2)

rad{...} is the Rademacher average (E_delta ||sum_i delta_i . ||^p)^{1/p}.
A side only composes `cube` operators and sums them with `+`: every operand
class stores Walsh coefficients in eps on its last axis, so an operator takes a
scalar, lq or Lq operand alike; every norm, square function and Rademacher
average comes from `norms`, which also decides which operand class carries
which value space.
Three ids are aliases that repeat an entry's display: R_ABOVE_DUAL of F1 (the
dual display carries no extra normalization of its own), DELTA_FI of
R_BELOW_NOD and RIESZ_FULL_BELOW of RIESZ_LOWER; an alias is reported under
the entry's id.  The ratio search is a seeded heuristic -- random restarts on
the coefficient sphere plus greedy coordinate ascent -- and is reported as an
observed lower bound on the constant, never a certified maximum.  It moves one
coefficient vector, cut into n operands for a family entry and one otherwise,
each laid out by its value space (`_LAYOUTS`, m = 2^n points):

    scalar  CubeFunction        (m,)    Walsh coefficients
    lq      VectorCubeFunction  (R, m)  its `coeffs`, one row per component
    Lq      BiCubeFunction      (m, m)  values F(eps, delta); F1 reads one

Its warm start puts the character eps_{i mod n} in operand i, and
sum_j delta_j eps_j in F1's operand.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .cube import (
    BiCubeFunction,
    CubeFunction,
    VectorCubeFunction,
    apply_multiplier,
    character,
    discrete_derivative,
    frac_power,
    gradient,
    riesz,
)
from .norms import (MixedNormSpec, RademacherConfig, inner_kind, lp_norm, mixed_norm,
                    rademacher_avg)
from .rng import stream_generator

MAX_INPUT_COEFFS = 1 << 22  # one input's coefficient vector: 32 MiB of doubles
ASCENT_STEP = 0.25  # first coordinate step of the ratio search's ascent


@dataclass(frozen=True)
class InequalityInstance:
    """One catalog entry pinned to concrete parameters.

    `inner` picks the value space: "scalar", "lq" (ell^q over R components)
    or "Lq" (L^q over a second cube variable carried by the operands).
    """

    ineq_id: str
    n: int
    p: float
    q: float | None = None
    a: float | None = None
    gamma: float | None = None
    t: float | None = None
    inner: str = "scalar"
    R: int = 2

    def __post_init__(self):
        ineq = ALIASES.get(self.ineq_id, self.ineq_id)
        object.__setattr__(self, "ineq_id", ineq)
        entry = CATALOG.get(ineq)
        if entry is None:
            raise ValueError(f"unknown inequality id {self.ineq_id!r}; "
                             f"catalog: {', '.join(INEQUALITY_IDS)}")
        if not (1 <= self.p < math.inf):
            raise ValueError(f"p must be in [1, inf), got {self.p}")
        if self.q is not None and not self.q >= 1:
            raise ValueError(f"q must be in [1, inf], got {self.q}")
        if entry.needs is not None:
            value = getattr(self, entry.needs)
            allowed, what = _PARAMETER_RANGES[entry.needs]
            if value is None or not allowed(value):
                raise ValueError(f"{ineq} needs {what}, got {value}")
        if ineq == "GRAD_L1P" and not 1 < self.p < 2:
            raise ValueError(f"GRAD_L1P probes 1 < p < 2, got p={self.p}")
        if self.inner not in ("scalar", "lq", "Lq"):
            raise ValueError(f"unknown inner kind {self.inner!r}")
        if self.R < 1:
            raise ValueError(f"R (the lq component count) must be >= 1, got {self.R}")
        if entry.scalar_only and self.inner != "scalar":
            raise ValueError(f"{ineq} is implemented for scalar values only")

    @property
    def input_kind(self) -> str:
        return CATALOG[self.ineq_id].kind

    def norm_spec(self) -> MixedNormSpec:
        if self.inner == "scalar":
            return MixedNormSpec.scalar(self.p)
        return MixedNormSpec(p=self.p, inner=self.inner, q=self.q)


@dataclass(frozen=True)
class RatioReport:
    lhs: float
    rhs: float
    ratio: float
    mode: str = "exact"


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the seeded restart + coordinate-ascent heuristic."""

    trials: int = 100
    restarts: int = 3
    ascent_steps: int = 200
    seed: int = 0
    stream: int = 0


def _ratio(lhs: float, rhs: float) -> float:
    if math.isnan(lhs) or math.isnan(rhs):
        return math.nan
    if rhs > 0:
        return lhs / rhs
    return math.inf if lhs > 0 else 0.0


@dataclass(frozen=True)
class _Layout:
    """One value space's operand and its place in the search's coefficient
    vector.  A layout holds classes and call-time lambdas only, so a wrapper
    installed on a module function or a method sees every call."""

    shape: Callable  # (m, R) -> the operand's array shape, m = 2^n points
    build: Callable  # (n, array of that shape) -> the operand
    lift: Callable  # CubeFunction f -> the operand array carrying f (by broadcasting)


_LAYOUTS = {
    "scalar": _Layout(lambda m, R: (m,), CubeFunction, lambda f: f.coeffs),
    "lq": _Layout(lambda m, R: (R, m), lambda n, a: VectorCubeFunction.from_coeffs(n, a),
                  lambda f: f.coeffs),
    # value grids F(eps, delta): a lifted f is constant in the second cube
    "Lq": _Layout(lambda m, R: (m, m), lambda n, a: BiCubeFunction(n, n, a),
                  lambda f: f.values()[:, None]),
}


def _norm(instance: InequalityInstance, g) -> float:
    return mixed_norm(g, instance.norm_spec())


def _rad(instance, operands, cfg) -> float:
    spec = instance.norm_spec()
    return rademacher_avg(operands, instance.p, spec, cfg).value


# -- the catalog ------------------------------------------------------------------
# Each entry names its input kind, the one parameter it needs and its two sides.
# The sides call the cube and norms operators through this module's names at call
# time, so a wrapper installed on those names sees every call.


def _rad_derivatives(instance, operands, cfg) -> float:
    """rad{D_i g_i} over the operands g_0..g_{n-1}."""
    return _rad(instance, [discrete_derivative(g, i) for i, g in enumerate(operands)], cfg)


def _r_above(instance, f, cfg):
    lhs = _rad(instance, [riesz(f, i) for i in range(instance.n)], cfg)
    return lhs, _norm(instance, f)


def _riesz_lower(instance, f, cfg, gamma=0.0):
    lhs = _norm(instance, frac_power(f, gamma - 0.5))
    return lhs, _rad_derivatives(instance, [f] * instance.n, cfg)


def _r_below(instance, family, cfg, with_derivative=True):
    lhs = _norm(instance, reduce(operator.add, (frac_power(discrete_derivative(g, i), instance.a)
                                                for i, g in enumerate(family))))
    if with_derivative:
        return lhs, _rad_derivatives(instance, family, cfg)
    return lhs, _rad(instance, family, cfg)


def _pisier(instance, f, cfg):
    return (_norm(instance, frac_power(f, 0.0)),  # L^0 f = f - E f
            _rad_derivatives(instance, [f] * instance.n, cfg))


def _f1(instance, F, cfg):
    p = instance.p
    lhs = lp_norm(reduce(operator.add, (frac_power(discrete_derivative(m, j), 1.0)
                                        for j, m in enumerate(F.marginals()))), p)
    return lhs, mixed_norm(F, MixedNormSpec.cube(p, p))


def _df(instance, g, cfg):
    lhs = _rad(instance, [frac_power(discrete_derivative(g, j), 1.0)
                          for j in range(instance.n)], cfg)
    return lhs, _norm(instance, g)


def _pt_deriv(instance, family, cfg):
    # both sides times e^t: level k >= 1 of D_i P_t gets e^{-t(k-1)}, and no
    # level 0 survives D_i; so neither e^{2t} nor e^{-tk} is formed
    t = instance.t
    shifted = np.zeros(instance.n + 1)
    shifted[1:] = np.exp(-t * np.arange(instance.n))
    lhs = _norm(instance, reduce(operator.add, (apply_multiplier(discrete_derivative(g, i), shifted)
                                                for i, g in enumerate(family))))
    rhs = _rad_derivatives(instance, family, cfg)
    return lhs, rhs / math.sqrt(-math.expm1(-2.0 * t))


def _epi(instance, family, cfg):
    p = instance.p
    lhs = lp_norm(reduce(operator.add, (riesz(f, i) for i, f in enumerate(family))), p)
    square = VectorCubeFunction([discrete_derivative(f, i) for i, f in enumerate(family)])
    return lhs, mixed_norm(square, MixedNormSpec.lq(p, 2))


def _grad_l1p(instance, f, cfg):
    p = instance.p
    return (mixed_norm(VectorCubeFunction(gradient(f)), MixedNormSpec.lq(p, 2)),
            lp_norm(frac_power(f, -1.0 / p), p))


@dataclass(frozen=True)
class _Entry:
    kind: str  # "single", "family" or "bi"
    sides: Callable  # sides(instance, inputs, cfg) -> (lhs, rhs)
    needs: str | None = None  # the instance field the entry reads: "a", "gamma" or "t"
    scalar_only: bool = False


CATALOG = {
    "R_ABOVE": _Entry("single", _r_above),
    "RIESZ_LOWER": _Entry("single", _riesz_lower),
    "R_BELOW": _Entry("family", _r_below, needs="a"),
    "R_BELOW_NOD": _Entry("family", lambda inst, fs, cfg: _r_below(inst, fs, cfg, False),
                          needs="a"),
    "PISIER": _Entry("single", _pisier),
    "F1": _Entry("bi", _f1, scalar_only=True),
    "DF": _Entry("single", _df),
    "PT_DERIV": _Entry("family", _pt_deriv, needs="t"),
    "EPI": _Entry("family", _epi, scalar_only=True),
    "GAMMA_BELOW": _Entry("single", lambda inst, f, cfg: _riesz_lower(inst, f, cfg, inst.gamma),
                          needs="gamma"),
    "GRAD_L1P": _Entry("single", _grad_l1p, scalar_only=True),
}
INEQUALITY_IDS = tuple(CATALOG)
ALIASES = {"R_ABOVE_DUAL": "F1", "DELTA_FI": "R_BELOW_NOD", "RIESZ_FULL_BELOW": "RIESZ_LOWER"}
_PARAMETER_RANGES = {
    "a": (lambda a: 0 < a <= 1, "exponent a in (0, 1]"),
    "gamma": (lambda gamma: 0 <= gamma < 0.5, "gamma in [0, 1/2)"),
    "t": (lambda t: t > 0, "t > 0"),
}


def evaluate(instance: InequalityInstance, inputs,
             cfg: RademacherConfig | None = None) -> RatioReport:
    """Evaluate both sides of the instance on concrete inputs.

    `inputs` is a single operand, a family (one operand per coordinate), or
    a BiCubeFunction, according to the catalog entry.  Operand dimension
    must equal instance.n; family length must equal n.
    """
    cfg = cfg if cfg is not None else RademacherConfig()
    family = instance.input_kind == "family"
    if family:
        inputs = list(inputs)
        if len(inputs) != instance.n:
            raise ValueError(f"{instance.ineq_id} expects a family of n={instance.n} "
                             f"operands, got {len(inputs)}")
    _check_operands(inputs if family else [inputs], instance)
    lhs, rhs = CATALOG[instance.ineq_id].sides(instance, inputs, cfg)
    mode = "exact" if cfg.mode == "exact" else f"monte-carlo[{cfg.samples}]"
    return RatioReport(float(lhs), float(rhs), _ratio(lhs, rhs), mode)


def _operand_inner(instance: InequalityInstance) -> str:
    """The value space of one operand: a "bi" entry reads one Lq operand."""
    return "Lq" if instance.input_kind == "bi" else instance.inner


def _check_operands(operands, instance: InequalityInstance) -> None:
    inner = _operand_inner(instance)
    for g in operands:
        if inner_kind(g) != inner:
            raise ValueError(f"{instance.ineq_id} expects {inner} operands, "
                             f"got {type(g).__name__}")
        if g.n != instance.n:
            raise ValueError(f"operand dimension {g.n} != instance n={instance.n}")
        if instance.input_kind == "bi" and g.n_delta != instance.n:
            raise ValueError(f"{instance.ineq_id} needs n_eps = n_delta = n={instance.n}, "
                             f"got n_eps={g.n_eps}, n_delta={g.n_delta}")


# -- input parametrization and search -----------------------------------------


def check_input_budget(coeffs: int) -> None:
    """Refuse an input of more than `MAX_INPUT_COEFFS` coefficients before it is drawn."""
    if coeffs > MAX_INPUT_COEFFS:
        raise ValueError(f"{coeffs} input coefficients exceed the budget of {MAX_INPUT_COEFFS}")


def _input_dim(instance: InequalityInstance) -> tuple[tuple[int, ...], int]:
    """(operand count, *operand shape) and the size of the coefficient vector."""
    k = instance.n if instance.input_kind == "family" else 1
    shape = (k, *_LAYOUTS[_operand_inner(instance)].shape(1 << instance.n, instance.R))
    dim = math.prod(shape)
    check_input_budget(dim)
    return shape, dim


def _build_inputs(instance: InequalityInstance, theta: np.ndarray):
    shape, _ = _input_dim(instance)
    build = _LAYOUTS[_operand_inner(instance)].build
    ops = [build(instance.n, a) for a in theta.reshape(shape)]
    return ops if instance.input_kind == "family" else ops[0]


def random_inputs(instance: InequalityInstance, rng: np.random.Generator):
    """Unit-sphere random coefficient inputs of the right shape (at most `MAX_INPUT_COEFFS`)."""
    _, dim = _input_dim(instance)
    theta = rng.standard_normal(dim)
    return _build_inputs(instance, theta / np.linalg.norm(theta))


def _canonical_thetas(instance: InequalityInstance) -> list[np.ndarray]:
    """Warm starts for the search: the dictator witness and a flat vector.

    Keeping the classical witness in the probe set makes the search at least
    as good as it by construction.
    """
    shape, dim = _input_dim(instance)
    n = instance.n
    dictator = np.zeros(shape)
    if instance.input_kind == "bi":
        dictator[0] = BiCubeFunction.from_sign_family(
            [character(n, 1 << j) for j in range(n)]).values
    else:
        lift = _LAYOUTS[_operand_inner(instance)].lift
        for i in range(shape[0]):
            dictator[i] = lift(character(n, 1 << (i % n)))
    flat = np.ones(dim)
    return [dictator.reshape(dim) / np.linalg.norm(dictator),
            flat / np.linalg.norm(flat)]


def search_max_ratio(instance: InequalityInstance, cfg: SearchConfig | None = None,
                     rademacher_cfg: RademacherConfig | None = None):
    """Best ratio found by random restarts plus greedy coordinate ascent.

    Returns (report, witness_inputs).  Deterministic for a fixed config; the
    result is a lower bound on the true extremal ratio, nothing more.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    if instance.n > 14:
        raise ValueError("ratio search is a dense-mode tool (n <= 14)")
    _, dim = _input_dim(instance)  # refuses an input over MAX_INPUT_COEFFS
    rng = stream_generator(cfg.seed, cfg.stream)

    def ratio_of(theta):
        return evaluate(instance, _build_inputs(instance, theta), rademacher_cfg).ratio

    def probe_thetas():
        yield from _canonical_thetas(instance)
        for _ in range(max(1, cfg.trials)):
            theta = rng.standard_normal(dim)
            yield theta / np.linalg.norm(theta)

    probes = [(r, theta) for theta in probe_thetas() if math.isfinite(r := ratio_of(theta))]
    if not probes:
        raise RuntimeError("no probe produced a finite ratio")
    probes.sort(key=lambda pair: pair[0], reverse=True)

    best_r, best_theta = probes[0]
    for r0, theta0 in probes[: max(1, cfg.restarts)]:
        theta = theta0.copy()
        r = r0
        h = ASCENT_STEP
        stale = 0
        for _ in range(cfg.ascent_steps):
            j = int(rng.integers(dim))
            step = h * (1.0 if rng.random() < 0.5 else -1.0)
            cand = theta.copy()
            cand[j] += step
            rc = ratio_of(cand)
            if math.isfinite(rc) and rc > r:
                theta, r = cand, rc
                stale = 0
            else:
                stale += 1
                if stale >= 25:
                    h *= 0.7
                    stale = 0
        if r > best_r:
            best_r, best_theta = r, theta
    witness = _build_inputs(instance, best_theta)
    report = evaluate(instance, witness, rademacher_cfg)
    return replace(report, mode=f"search[trials={cfg.trials},ascent={cfg.ascent_steps}]"), witness


# -- sweeps -------------------------------------------------------------------

SWEEP_COLUMNS = ("inequality_id", "n", "p", "q", "a_or_gamma", "t",
                 "lhs", "rhs", "ratio", "mode", "seed")


def ratio_row(instance: InequalityInstance, report: RatioReport, seed: int) -> dict:
    """The `SWEEP_COLUMNS` row of one report; a parameter the entry does not
    read (its `needs`), or leaves unset, reads ""."""
    needs = CATALOG[instance.ineq_id].needs
    a_or_gamma = getattr(instance, needs) if needs in ("a", "gamma") else None
    t = instance.t if needs == "t" else None
    values = (instance.ineq_id, instance.n, instance.p, instance.q, a_or_gamma, t,
              report.lhs, report.rhs, report.ratio, report.mode, seed)
    return {col: "" if v is None else v for col, v in zip(SWEEP_COLUMNS, values)}


def sweep(ineq_id: str, n_list, p_list, q_list=None, a: float | None = None,
          gamma: float | None = None, t: float | None = None, inner: str = "scalar",
          R: int = 2, search: SearchConfig | None = None, seed: int = 0) -> list[dict]:
    """Grid of ratio reports; one row per (n, p, q) in grid order.

    Without a search config each point evaluates a single random input from
    its own derived stream; with one, the heuristic maximum is reported.
    Rows carry the fixed column set `SWEEP_COLUMNS`.
    """
    rows = []
    qs = list(q_list) if q_list is not None else [None]
    stream = 0
    for n in n_list:
        for p in p_list:
            for q in qs:
                instance = InequalityInstance(ineq_id, n=n, p=p, q=q, a=a,
                                              gamma=gamma, t=t, inner=inner, R=R)
                if search is not None:
                    point_cfg = replace(search, seed=seed, stream=stream)
                    report, _ = search_max_ratio(instance, point_cfg)
                else:
                    rng = stream_generator(seed, stream)
                    report = evaluate(instance, random_inputs(instance, rng))
                rows.append(ratio_row(instance, report, seed))
                stream += 1
    return rows


def rows_to_csv(rows, columns=SWEEP_COLUMNS) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()

