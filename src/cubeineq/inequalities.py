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
average comes from `norms`, whose `OPERANDS` names the operand class that
carries each value space.
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
dominates their cost.  A side is a number or a `_Rad`, and `evaluate` alone takes
the sign averages, exactly, refusing more than 20 signs before any operand is
built (Monte-Carlo averages are `norms.rademacher_avg`'s).  Given a bar, an entry
prunes iff its rhs is a sign average (RIESZ_LOWER, R_BELOW, R_BELOW_NOD, PISIER,
PT_DERIV, GAMMA_BELOW): that average is capped at lhs const / bar, where the
ratio falls below the bar; `norms.rademacher_avg` stops once a partial sum of its
pattern powers proves the cap passed, or, at p >= 2, before any pattern once its
Parseval floor (from the squared L^2 norms of the operands) does, and the report
is flagged `pruned`.  R_ABOVE and DF hold theirs in the lhs, which a partial sum
or a floor bounds only from below; EPI, F1 and GRAD_L1P have none.  An evaluation
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
    _dot,
    apply_multiplier,
    character,
    discrete_derivative,
    frac_power,
    gradient,
    riesz,
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


def _norm(instance: InequalityInstance, g) -> float:
    return mixed_norm(g, instance.norm_spec())


class _Rad:  # a side rad{operands} / const: a sign average, taken by `evaluate`
    def __init__(self, operands: list, const: float = 1.0):
        self.operands, self.const = operands, const


def _sign_operands(instance, operand) -> list:
    """[operand(i) for i < n], refused over `MAX_EXACT_SIGNS` signs before one is built."""
    if instance.n > MAX_EXACT_SIGNS:
        raise ValueError(f"exact mode capped at {MAX_EXACT_SIGNS} sign variables, got {instance.n}")
    return [operand(i) for i in range(instance.n)]


# -- the catalog ------------------------------------------------------------------
# Each entry names its input kind, the one parameter it needs and its two sides, each
# a number or a `_Rad`.  The sides call the cube and norms operators through this
# module's names at call time, so a wrapper installed on those names sees every call.


def _r_above(instance, f, a=0.5):
    images = _sign_operands(instance, lambda i: frac_power(discrete_derivative(f, i), a))
    return _Rad(images), _norm(instance, f)


def _riesz_lower(instance, f, gamma=0.0):
    derivatives = _sign_operands(instance, lambda i: discrete_derivative(f, i))
    return _norm(instance, frac_power(f, gamma - 0.5)), _Rad(derivatives)


def _r_below(instance, family, with_derivative=True):
    derivatives = _sign_operands(instance, lambda i: discrete_derivative(family[i], i))
    lhs = _norm(instance, reduce(operator.add, (frac_power(d, instance.a) for d in derivatives)))
    return lhs, _Rad(derivatives if with_derivative else family)


def _f1(instance, F):
    p = instance.p
    lhs = lp_norm(reduce(operator.add, (frac_power(discrete_derivative(m, j), 1.0)
                                        for j, m in enumerate(F.marginals()))), p)
    return lhs, mixed_norm(F, MixedNormSpec.cube(p, p))


def _pt_deriv(instance, family):
    # both sides times e^t: level k >= 1 of D_i P_t gets e^{-t(k-1)}, and no
    # level 0 survives D_i; so neither e^{2t} nor e^{-tk} is formed
    t = instance.t
    derivatives = _sign_operands(instance, lambda i: discrete_derivative(family[i], i))
    shifted = np.zeros(instance.n + 1)
    shifted[1:] = np.exp(-t * np.arange(instance.n))
    lhs = _norm(instance, reduce(operator.add, (apply_multiplier(d, shifted) for d in derivatives)))
    return lhs, _Rad(derivatives, math.sqrt(-math.expm1(-2.0 * t)))


def _epi(instance, family):
    p = instance.p
    lhs = lp_norm(reduce(operator.add, (riesz(f, i) for i, f in enumerate(family))), p)
    square = VectorCubeFunction([discrete_derivative(f, i) for i, f in enumerate(family)])
    return lhs, mixed_norm(square, MixedNormSpec.lq(p, 2))


def _grad_l1p(instance, f):
    p, coeffs = instance.p, instance.n << instance.n
    if coeffs > MAX_GRADIENT_COEFFS:
        raise ValueError(f"GRAD_L1P's {coeffs} gradient coefficients exceed the budget of "
                         f"{MAX_GRADIENT_COEFFS}")
    return (mixed_norm(VectorCubeFunction(gradient(f)), MixedNormSpec.lq(p, 2)),
            lp_norm(frac_power(f, -1.0 / p), p))


@dataclass(frozen=True)
class _Entry:
    kind: str  # "single", "family" or "bi"
    sides: Callable  # sides(instance, inputs) -> (lhs, rhs), each a number or a `_Rad`
    needs: str | None = None  # the instance field the entry reads: "a", "gamma" or "t"
    scalar_only: bool = False
    # a family entry that reads operand i only through D_i, which multiplies
    # its coefficients at masks without bit i by 0.0
    through_derivative: bool = False


CATALOG = {
    "R_ABOVE": _Entry("single", _r_above),
    "RIESZ_LOWER": _Entry("single", _riesz_lower),
    "R_BELOW": _Entry("family", _r_below, needs="a", through_derivative=True),
    "R_BELOW_NOD": _Entry("family", lambda inst, fs: _r_below(inst, fs, False), needs="a"),
    # PISIER is GAMMA_BELOW at gamma = 1/2 (L^0 f = f - E f), DF is R_ABOVE at a = 1
    "PISIER": _Entry("single", lambda inst, f: _riesz_lower(inst, f, 0.5)),
    "F1": _Entry("bi", _f1, scalar_only=True),
    "DF": _Entry("single", lambda inst, g: _r_above(inst, g, 1.0)),
    "PT_DERIV": _Entry("family", _pt_deriv, needs="t", through_derivative=True),
    "EPI": _Entry("family", _epi, scalar_only=True, through_derivative=True),
    "GAMMA_BELOW": _Entry("single", lambda inst, f: _riesz_lower(inst, f, inst.gamma),
                          needs="gamma"),
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

    `inputs` is a single operand, a family (one operand per coordinate), or
    a BiCubeFunction, according to the catalog entry.  Operand dimension
    must equal instance.n; family length must equal n.  Sign averages are
    exact, of at most `MAX_EXACT_SIGNS` (20) signs (Monte-Carlo ones are
    `norms.rademacher_avg`'s).  An entry prunes iff its rhs is a sign average:
    a positive `bar` stops it once it proves the ratio below the bar, and the
    report is flagged `pruned`, its rhs a lower bound and its ratio not a
    ratio.  Every other report is the one computed without a bar, bit for bit.
    """
    family = instance.input_kind == "family"
    if family:
        inputs = list(inputs)
        if len(inputs) != instance.n:
            raise ValueError(f"{instance.ineq_id} expects a family of n={instance.n} "
                             f"operands, got {len(inputs)}")
    _check_operands(inputs if family else [inputs], instance)
    lhs, rhs = CATALOG[instance.ineq_id].sides(instance, inputs)
    spec, pruned = instance.norm_spec(), False
    if isinstance(lhs, _Rad):  # a cap bounds it from below only: taken in full
        lhs = rademacher_avg(lhs.operands, instance.p, spec).value / lhs.const
    if isinstance(rhs, _Rad):  # capped at lhs const / bar, where the ratio falls below the bar
        cap = float(lhs) * rhs.const / bar if bar is not None and bar > 0 else None
        rad = rademacher_avg(rhs.operands, instance.p, spec, cap=cap)
        rhs, pruned = rad.value / rhs.const, rad.pruned
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
    entry's report, as a boolean vector: for an entry that reads operand i only
    through D_i (`_Entry.through_derivative`), the coefficients of operand i at
    masks without bit i, which D_i multiplies by 0.0; none for any other entry."""
    shape, _ = _input_dim(instance)
    inert = np.zeros(shape, dtype=bool)
    if CATALOG[instance.ineq_id].through_derivative:
        masks = np.arange(shape[-1])
        for i in range(shape[0]):
            inert[i, ..., (masks >> i) & 1 == 0] = True
    return inert.reshape(-1)


def search_max_ratio(instance: InequalityInstance, cfg: SearchConfig | None = None):
    """Best ratio found by random restarts plus greedy coordinate ascent.

    Returns (report, witness_inputs).  Deterministic for a fixed config; the
    result is a lower bound on the true extremal ratio, nothing more.

    An ascent step on an inert coordinate (`_inert_coordinates`: one that D_i
    multiplies by 0.0 in an entry that reads operand i only through D_i) is
    rejected without an evaluation.  It still draws its coordinate and sign
    and counts as a stale step, and the evaluation would have given the
    report's bits again, which never beats them; so the output is bit for bit
    that of evaluating every step.  The winner's report is the one its search
    already computed.

    Each evaluation gets a bar (`evaluate`): a probe the `restarts`-th best finite
    ratio among the probes evaluated in full so far (none until `restarts` of them
    are in), an ascent step the ratio of the report it must beat.  An entry
    prunes iff its rhs is a sign average (see the module docstring: R_ABOVE and
    DF hold theirs in the lhs, which a partial sum or a Parseval floor bounds only
    from below); at p >= 2 most losers are pruned by that floor, before any Walsh
    transform of their operands.  A
    pruned evaluation is proven strictly below its bar, so it is never a
    restart, the best or the witness, and it draws nothing: report and witness
    are bit for bit those of the search without bars, which evaluates every
    sign average in full.
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

