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
Every side but F1's and GRAD_L1P's is declared, not computed (`_Side`): the norm of a
sum of images, their sign average or their square function.  An image is an operand,
or D_i of one, times a table over levels, and `evaluate` applies it with the `cube`
operators, which take a scalar, lq or Lq operand alike (each class stores Walsh
coefficients in eps on its last axis); every norm and average comes from `norms`.
Three ids are aliases that repeat an entry's display: R_ABOVE_DUAL of F1 (the
dual display carries no extra normalization of its own), DELTA_FI of
R_BELOW_NOD and RIESZ_FULL_BELOW of RIESZ_LOWER; an alias is reported under
the entry's id.  The ratio search is a seeded heuristic -- random restarts on
the coefficient sphere plus greedy coordinate ascent -- and is reported as an
observed lower bound on the constant, never a certified maximum.  It moves one
coefficient vector, cut into n operands for a family entry and one otherwise;
each piece is the `coeffs` of the operand class of its value space
(m = 2^n points):

    scalar  CubeFunction        (m,)    Walsh coefficients
    lq      VectorCubeFunction  (R, m)  one row per component
    Lq      BiCubeFunction      (m, m)  eps-coefficients, one row per delta; F1 reads one

Its warm start puts the character eps_{i mod n} in every row of operand i, and
sum_j delta_j eps_j in F1's operand.

Bound and prune: most candidates of a search lose by far, and the sign average
dominates their cost.  `evaluate` takes the sign averages, exactly, refusing more than
20 signs before any image is built.  Given a bar, an entry whose rhs is a sign average
(RIESZ_LOWER, R_BELOW, R_BELOW_NOD, PISIER, PT_DERIV, GAMMA_BELOW) caps it at lhs
const / bar, where the ratio falls below the bar; `norms.rademacher_avg` stops once a
partial sum of its pattern powers, or at p >= 2 its Parseval floor, proves the cap
passed, and the report is flagged `pruned`.  R_ABOVE and DF hold theirs in the lhs,
which those bound only from below; EPI, F1 and GRAD_L1P have none.  An evaluation
that is not pruned is bit for bit the one without a bar.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .cube import (
    BiCubeFunction,
    VectorCubeFunction,
    _check_dense_n,
    _dot,
    _frac_table,
    apply_multiplier,
    character,
    discrete_derivative,
    frac_power,
    gradient,
    levels,
)
from .norms import (MAX_EXACT_SIGNS, OPERANDS, MixedNormSpec, inner_kind, lp_norm, mixed_norm,
                    rademacher_avg)
from .rng import stream_generator

MAX_INPUT_COEFFS = 1 << 22  # one input's coefficient vector: 32 MiB of doubles
# GRAD_L1P's n gradient components, n 2^n coefficients: 160 MiB at n = 20, which peaks at
# 373 MiB; n = 21 would take 2.1 times that
MAX_GRADIENT_COEFFS = 20 << 20
ASCENT_STEP = 0.25  # first coordinate step of the ratio search's ascent


@dataclass(frozen=True)
class InequalityInstance:
    """One catalog entry pinned to concrete parameters.

    `inner` picks the value space, a key of `norms.OPERANDS`: "scalar", "lq"
    (ell^q over R components) or "Lq" (L^q over a second cube variable carried
    by the operands); `q` is given exactly when the space has an inner norm.
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
        _check_dense_n(self.n)
        if not (1 <= self.p < math.inf):
            raise ValueError(f"p must be in [1, inf), got {self.p}")
        self.norm_spec()  # refuses an unknown inner, and a q the inner does not read
        if entry.needs is not None:
            value = getattr(self, entry.needs)
            allowed, what = _PARAMETER_RANGES[entry.needs]
            if value is None or not allowed(value):
                raise ValueError(f"{ineq} needs {what}, got {value}")
        if ineq == "GRAD_L1P" and not 1 < self.p < 2:
            raise ValueError(f"GRAD_L1P probes 1 < p < 2, got p={self.p}")
        if self.R < 1:
            raise ValueError(f"R (the lq component count) must be >= 1, got {self.R}")
        if entry.scalar_only and self.inner != "scalar":
            raise ValueError(f"{ineq} is implemented for scalar values only")

    @property
    def input_kind(self) -> str:
        return CATALOG[self.ineq_id].kind

    def norm_spec(self) -> MixedNormSpec:
        return MixedNormSpec(p=self.p, inner=self.inner, q=self.q)


@dataclass(frozen=True)
class RatioReport:
    lhs: float
    rhs: float
    ratio: float
    mode: str = "exact"
    # rhs is a sign average cut short by the bar: rhs a lower bound, the ratio proven below the bar
    pruned: bool = False


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the seeded restart + coordinate-ascent heuristic."""

    trials: int = 100
    restarts: int = 3
    ascent_steps: int = 200
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.trials < 1 or self.restarts < 1:
            raise ValueError(f"a search needs trials >= 1 and restarts >= 1, "
                             f"got trials={self.trials}, restarts={self.restarts}")
        if self.ascent_steps < 0:
            raise ValueError(f"ascent steps must be >= 0, got {self.ascent_steps}")


def _ratio(lhs: float, rhs: float) -> float:
    if math.isnan(lhs) or math.isnan(rhs):
        return math.nan
    if rhs > 0:
        return lhs / rhs
    return math.inf if lhs > 0 else 0.0


@dataclass(frozen=True)
class _Side:
    """A side over images: `op` "norm" takes the norm of their sum, "rad" their sign
    average / const(instance), "square" the L^p norm of their ell^2 square function.
    Image i is D_i of operand i of a family, or of the one operand, if `derive` is set,
    else operand i; then, given a `table`, times table(instance)[|A|] at each mask A."""

    op: str
    derive: bool = False
    table: Callable | None = None
    const: Callable = lambda instance: 1.0


# -- the catalog ------------------------------------------------------------------
# Each entry names its input kind, the one parameter it needs and its two sides: a pair
# of `_Side`s, or a function of the inputs (F1 reads marginals, GRAD_L1P partials).


def _shifted_heat(instance) -> np.ndarray:
    """The table of e^t D_i P_t: e^{-t(k-1)} at level k >= 1 (D_i leaves no level 0), so
    neither e^{2t} nor e^{-tk} is formed."""
    return np.concatenate([[0.0], np.exp(-instance.t * np.arange(instance.n))])


def _f1(instance, F):
    p = instance.p
    lhs = lp_norm(reduce(operator.add, (frac_power(discrete_derivative(m, j), 1.0)
                                        for j, m in enumerate(F.marginals()))), p)
    return lhs, mixed_norm(F, MixedNormSpec.cube(p, p))


def _grad_l1p(instance, f):
    p, coeffs = instance.p, instance.n << instance.n
    if coeffs > MAX_GRADIENT_COEFFS:
        raise ValueError(f"GRAD_L1P's {coeffs} gradient coefficients exceed the budget of "
                         f"{MAX_GRADIENT_COEFFS}")
    return (mixed_norm(VectorCubeFunction(gradient(f)), MixedNormSpec.lq(p, 2)),
            lp_norm(frac_power(f, -1.0 / p), p))


def _lower(gamma: Callable) -> tuple[_Side, _Side]:  # || L^{1/2-gamma} f || vs rad{D_i f}
    return (_Side("norm", table=lambda inst: _frac_table(inst.n, gamma(inst) - 0.5)),
            _Side("rad", derive=True))


def _above(a: float) -> tuple[_Side, _Side]:  # rad{L^{-a} D_i f} vs || f ||
    return _Side("rad", derive=True, table=lambda inst: _frac_table(inst.n, a)), _Side("norm")


def _below(rhs: _Side) -> tuple[_Side, _Side]:  # || sum_i L^{-a} D_i f_i || vs rhs
    return _Side("norm", derive=True, table=lambda inst: _frac_table(inst.n, inst.a)), rhs


@dataclass(frozen=True)
class _Entry:
    kind: str  # "single", "family" or "bi"
    sides: tuple[_Side, _Side] | Callable  # (lhs, rhs), or sides(instance, inputs) -> 2 numbers
    needs: str | None = None  # the instance field the entry reads: "a", "gamma" or "t"
    scalar_only: bool = False


CATALOG = {
    "R_ABOVE": _Entry("single", _above(0.5)),
    "RIESZ_LOWER": _Entry("single", _lower(lambda inst: 0.0)),
    "R_BELOW": _Entry("family", _below(_Side("rad", derive=True)), needs="a"),
    "R_BELOW_NOD": _Entry("family", _below(_Side("rad")), needs="a"),
    # PISIER is GAMMA_BELOW at gamma = 1/2 (L^0 f = f - E f), DF is R_ABOVE at a = 1
    "PISIER": _Entry("single", _lower(lambda inst: 0.5)),
    "F1": _Entry("bi", _f1, scalar_only=True),
    "DF": _Entry("single", _above(1.0)),
    "PT_DERIV": _Entry("family", (_Side("norm", derive=True, table=_shifted_heat),
                                  _Side("rad", derive=True,
                                        const=lambda inst: math.sqrt(-math.expm1(-2.0 * inst.t)))),
                       needs="t"),
    "EPI": _Entry("family", (_Side("norm", derive=True,
                                   table=lambda inst: _frac_table(inst.n, 0.5)),
                             _Side("square", derive=True)), scalar_only=True),
    "GAMMA_BELOW": _Entry("single", _lower(lambda inst: inst.gamma), needs="gamma"),
    "GRAD_L1P": _Entry("single", _grad_l1p, scalar_only=True),
}
INEQUALITY_IDS = tuple(CATALOG)
ALIASES = {"R_ABOVE_DUAL": "F1", "DELTA_FI": "R_BELOW_NOD", "RIESZ_FULL_BELOW": "RIESZ_LOWER"}
_PARAMETER_RANGES = {
    "a": (lambda a: 0 < a <= 1, "exponent a in (0, 1]"),
    "gamma": (lambda gamma: 0 <= gamma < 0.5, "gamma in [0, 1/2)"),
    "t": (lambda t: 0 < t < math.inf, "a finite t in (0, inf)"),
}


def evaluate(instance: InequalityInstance, inputs, bar: float | None = None) -> RatioReport:
    """Evaluate both sides of the instance on concrete inputs.

    `inputs` is a single operand, a family (one operand per coordinate), or a
    BiCubeFunction, according to the catalog entry; operand dimension and family length
    must equal instance.n.  Declared sides are applied here, each D_i built once; sign
    averages are exact, of at most `MAX_EXACT_SIGNS` (20) signs, refused before any
    image.  An entry prunes iff its rhs is a sign average: a positive `bar` stops it
    once it proves the ratio below the bar, and the report is flagged `pruned`, its rhs
    a lower bound and its ratio not a ratio.  Every other report is the one computed
    without a bar, bit for bit.
    """
    family = instance.input_kind == "family"
    if family:
        inputs = list(inputs)
        if len(inputs) != instance.n:
            raise ValueError(f"{instance.ineq_id} expects a family of n={instance.n} "
                             f"operands, got {len(inputs)}")
    operands = inputs if family else [inputs]
    _check_operands(operands, instance)
    sides, spec = CATALOG[instance.ineq_id].sides, instance.norm_spec()
    if callable(sides):
        lhs, rhs = sides(instance, inputs)
        return RatioReport(float(lhs), float(rhs), _ratio(lhs, rhs))
    if instance.n > MAX_EXACT_SIGNS and any(side.op == "rad" for side in sides):
        raise ValueError(f"exact mode capped at {MAX_EXACT_SIGNS} sign variables, got {instance.n}")
    derivatives = [discrete_derivative(operands[i if family else 0], i) for i in range(instance.n)]
    values, pruned = [], False
    for side in sides:
        images = derivatives if side.derive else operands
        if side.table is not None:
            table = side.table(instance)
            images = [apply_multiplier(g, table) for g in images]
        if side.op == "norm":
            values.append(mixed_norm(reduce(operator.add, images), spec))
        elif side.op == "square":
            values.append(mixed_norm(VectorCubeFunction(images), MixedNormSpec.lq(instance.p, 2)))
        else:  # an rhs average is capped at lhs const / bar, where the ratio falls below the bar
            const = side.const(instance)
            cap = values[0] * const / bar if values and bar is not None and bar > 0 else None
            rad = rademacher_avg(images, instance.p, spec, cap=cap)
            values.append(rad.value / const)
            pruned = rad.pruned
    lhs, rhs = values
    return RatioReport(float(lhs), float(rhs), _ratio(lhs, rhs), pruned=pruned)


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
    """The shape (k, *rows, m) of the coefficient vector cut into k operands, and its
    size; rows is () for a scalar operand, (R,) for lq and (m,) for Lq, m = 2^n."""
    k = instance.n if instance.input_kind == "family" else 1
    m, inner = 1 << instance.n, _operand_inner(instance)
    rows = () if inner == "scalar" else (instance.R if inner == "lq" else m,)
    shape = (k, *rows, m)
    dim = math.prod(shape)
    check_input_budget(dim)
    return shape, dim


def _build_inputs(instance: InequalityInstance, theta: np.ndarray):
    shape, _ = _input_dim(instance)
    operand = OPERANDS[_operand_inner(instance)]
    ops = [operand.from_coeffs(instance.n, a) for a in theta.reshape(shape)]
    return ops if instance.input_kind == "family" else ops[0]


def _unit(theta: np.ndarray) -> np.ndarray:
    """theta / ||theta||_2, with the norm summed by `_dot` (one thread at any core count)."""
    return theta / math.sqrt(_dot(theta, theta))


def random_inputs(instance: InequalityInstance, rng: np.random.Generator):
    """Unit-sphere random coefficient inputs of the right shape (at most `MAX_INPUT_COEFFS`)."""
    _, dim = _input_dim(instance)
    theta = rng.standard_normal(dim)
    return _build_inputs(instance, _unit(theta))


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
            [character(n, 1 << j) for j in range(n)]).coeffs
    else:
        for i in range(shape[0]):  # broadcast into every row of an lq or Lq operand
            dictator[i] = character(n, 1 << (i % n)).coeffs
    flat = np.ones(dim)
    return [_unit(dictator.reshape(dim)), _unit(flat)]


def _inert_coordinates(instance: InequalityInstance) -> np.ndarray:
    """The coordinates of the search's coefficient vector that cannot move the
    entry's report, as a boolean vector: the coefficients that every image of
    their operand multiplies by 0.0, its D_i at a mask without bit i or its
    table at a level where it is 0; none for an entry whose sides are a function."""
    shape, _ = _input_dim(instance)
    sides = CATALOG[instance.ineq_id].sides
    inert = np.full(shape, not callable(sides))
    masks = np.arange(shape[-1])
    for side in () if callable(sides) else sides:
        zero = (side.table(instance).take(levels(instance.n)) == 0.0 if side.table is not None
                else np.zeros(masks.size, dtype=bool))
        if not side.derive:
            inert &= zero
            continue
        for i in range(instance.n):  # image i reads its operand through D_i
            inert[i if instance.input_kind == "family" else 0] &= zero | ((masks >> i) & 1 == 0)
    return inert.reshape(-1)


def search_max_ratio(instance: InequalityInstance, cfg: SearchConfig | None = None):
    """Best ratio found by random restarts plus greedy coordinate ascent.

    Returns (report, witness_inputs).  Deterministic for a fixed config; the
    result is a lower bound on the true extremal ratio, nothing more.

    An ascent step on an inert coordinate (`_inert_coordinates`: one that every
    declared image of its operand multiplies by 0.0) is rejected without an
    evaluation.  It still draws its coordinate and sign and counts as a stale
    step, and the evaluation would have given the report's bits again, which
    never beats them; so the output is bit for bit that of evaluating every
    step.  The winner's report is the one its search already computed.

    Each evaluation gets a bar (`evaluate`): a probe the `restarts`-th best finite
    ratio among the probes evaluated in full so far (none until `restarts` of them
    are in), an ascent step the ratio of the report it must beat.  A pruned
    evaluation (see the module docstring) is proven strictly below its bar, so it
    is never a restart, the best or the witness, and it draws nothing: report and
    witness are bit for bit those of the search without bars.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    if instance.n > 14:
        raise ValueError("ratio search is a dense-mode tool (n <= 14)")
    _, dim = _input_dim(instance)  # refuses an input over MAX_INPUT_COEFFS
    inert = _inert_coordinates(instance)
    rng = stream_generator(cfg.seed, cfg.stream)

    def report_of(theta, bar=None):
        return evaluate(instance, _build_inputs(instance, theta), bar)

    def probe_thetas():
        yield from _canonical_thetas(instance)
        for _ in range(cfg.trials):
            theta = rng.standard_normal(dim)
            yield _unit(theta)

    probes, top = [], []  # the probes evaluated in full; a min-heap of their best ratios
    for theta in probe_thetas():
        rep = report_of(theta, top[0] if len(top) == cfg.restarts else None)
        if rep.pruned or not math.isfinite(rep.ratio):
            continue
        probes.append((rep, theta))
        heapq.heappush(top, rep.ratio)
        if len(top) > cfg.restarts:
            heapq.heappop(top)
    if not probes:
        raise RuntimeError("no probe produced a finite ratio")
    probes.sort(key=lambda pair: pair[0].ratio, reverse=True)

    best, best_theta = probes[0]
    for report, theta in probes[:cfg.restarts]:
        h = ASCENT_STEP
        stale = 0
        for _ in range(cfg.ascent_steps):
            j = int(rng.integers(dim))
            step = h * (1.0 if rng.random() < 0.5 else -1.0)
            if not inert[j]:
                cand = theta.copy()
                cand[j] += step
                rc = report_of(cand, report.ratio)
                if not rc.pruned and math.isfinite(rc.ratio) and rc.ratio > report.ratio:
                    theta, report = cand, rc
                    stale = 0
                    continue
            stale += 1
            if stale >= 25:
                h *= 0.7
                stale = 0
        if report.ratio > best.ratio:
            best, best_theta = report, theta
    mode = f"search[trials={cfg.trials},ascent={cfg.ascent_steps}]"
    return replace(best, mode=mode), _build_inputs(instance, best_theta)


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

