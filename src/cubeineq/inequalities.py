"""Catalog of Riesz/Pisier-type inequality evaluators with ratio search.

Every entry evaluates the two sides of one labeled inequality on concrete
inputs and reports the ratio lhs/rhs; dimension-free claims are probed as
ratio curves over n, never as absolute constants (the sharp constants are
unknown, so nothing here pins one).  The catalog ids:

    R_ABOVE           || sum_i delta_i R_i f ||            vs  || f ||
    RIESZ_LOWER       || L^{1/2} f ||                      vs  rad{D_i f}
    R_BELOW           || sum_i L^{-a} D_i f_i ||           vs  rad{D_i f_i}
    R_BELOW_NOD       || sum_i L^{-a} D_i f_i ||           vs  rad{f_i}
    DELTA_FI          same display as R_BELOW_NOD (its own catalog label)
    PISIER            || f - E f ||                        vs  rad{D_i f}
    F1                || sum_j L^{-1} D_j F_j ||            vs  || F ||  (two-variable F)
    DF                rad{L^{-1} D_j g}                    vs  || g ||
    PT_DERIV          || sum_i D_i P_t f_i ||               vs  (e^{2t}-1)^{-1/2} rad{D_i f_i}
    EPI               || sum_i D_i L^{-1/2} f_i ||_p        vs  || (sum |D_i f_i|^2)^{1/2} ||_p
    GAMMA_BELOW       || L^{1/2-gamma} f ||                vs  rad{D_i f}
    RIESZ_FULL_BELOW  || L^{1/2} f ||                      vs  rad{D_i f}
    GRAD_L1P          || |grad f|_{ell^2} ||_p             vs  || L^{1/p} f ||_p   (probe, 1<p<2)

rad{...} is the Rademacher average (E_delta ||sum_i delta_i . ||^p)^{1/p}.
R_ABOVE_DUAL is accepted as an alias of F1 (the dual display carries no
extra normalization of its own).  The ratio search is a seeded heuristic --
random restarts on the coefficient sphere plus greedy coordinate ascent --
and is reported as an observed lower bound on the constant, never a
certified maximum.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cube import (
    BiCubeFunction,
    CubeFunction,
    VectorCubeFunction,
    discrete_derivative,
    frac_power,
    gradient,
    heat,
    riesz,
)
from .norms import MixedNormSpec, RademacherConfig, lp_norm, mixed_norm, rademacher_avg
from .rng import stream_generator

INEQUALITY_IDS = (
    "R_ABOVE",
    "RIESZ_LOWER",
    "R_BELOW",
    "R_BELOW_NOD",
    "DELTA_FI",
    "PISIER",
    "F1",
    "DF",
    "PT_DERIV",
    "EPI",
    "GAMMA_BELOW",
    "RIESZ_FULL_BELOW",
    "GRAD_L1P",
)
ALIASES = {"R_ABOVE_DUAL": "F1"}
MAX_INPUT_COEFFS = 1 << 22  # one input's coefficient vector: 32 MiB of doubles

_FAMILY_IDS = {"R_BELOW", "R_BELOW_NOD", "DELTA_FI", "PT_DERIV", "EPI"}
_BI_IDS = {"F1"}
_NEEDS_A = {"R_BELOW", "R_BELOW_NOD", "DELTA_FI"}
_NEEDS_GAMMA = {"GAMMA_BELOW"}
_NEEDS_T = {"PT_DERIV"}
_SCALAR_ONLY = {"F1", "EPI", "GRAD_L1P"}


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
        if ineq not in INEQUALITY_IDS:
            raise ValueError(f"unknown inequality id {self.ineq_id!r}; "
                             f"catalog: {', '.join(INEQUALITY_IDS)}")
        if not (1 <= self.p < math.inf):
            raise ValueError(f"p must be in [1, inf), got {self.p}")
        if self.q is not None and not self.q >= 1:
            raise ValueError(f"q must be in [1, inf], got {self.q}")
        if ineq in _NEEDS_A:
            if self.a is None or not 0 < self.a <= 1:
                raise ValueError(f"{ineq} needs exponent a in (0, 1], got {self.a}")
        if ineq in _NEEDS_GAMMA:
            if self.gamma is None or not 0 <= self.gamma < 0.5:
                raise ValueError(f"{ineq} needs gamma in [0, 1/2), got {self.gamma}")
        if ineq in _NEEDS_T:
            if self.t is None or self.t <= 0:
                raise ValueError(f"{ineq} needs t > 0, got {self.t}")
        if ineq == "GRAD_L1P" and not 1 < self.p < 2:
            raise ValueError(f"GRAD_L1P probes 1 < p < 2, got p={self.p}")
        if self.inner not in ("scalar", "lq", "Lq"):
            raise ValueError(f"unknown inner kind {self.inner!r}")
        if ineq in _SCALAR_ONLY and self.inner != "scalar":
            raise ValueError(f"{ineq} is implemented for scalar values only")

    @property
    def input_kind(self) -> str:
        if self.ineq_id in _BI_IDS:
            return "bi"
        return "family" if self.ineq_id in _FAMILY_IDS else "single"

    def norm_spec(self) -> MixedNormSpec:
        if self.inner == "scalar":
            return MixedNormSpec.scalar(self.p)
        return MixedNormSpec(p=self.p, inner=self.inner, q=self.q)


@dataclass(frozen=True)
class RatioReport:
    lhs: float
    rhs: float
    ratio: float
    inputs_digest: str = ""
    mode: str = "exact"


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the seeded restart + coordinate-ascent heuristic."""

    trials: int = 100
    restarts: int = 3
    ascent_steps: int = 200
    perturbation: float = 0.25
    seed: int = 0
    stream: int = 0


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0:
        return lhs / rhs
    return math.inf if lhs > 0 else 0.0


def _digest(inputs) -> str:
    h = hashlib.sha256()
    for g in _flatten(inputs):
        h.update(g.tobytes())
    return h.hexdigest()[:16]


def _flatten(inputs):
    if isinstance(inputs, CubeFunction):
        yield inputs.coeffs
    elif isinstance(inputs, VectorCubeFunction):
        for c in inputs.components:
            yield c.coeffs
    elif isinstance(inputs, BiCubeFunction):
        yield inputs.values
    else:
        for g in inputs:
            yield from _flatten(g)


def _apply(op, g):
    """Lift a CubeFunction operator to vector or two-variable operands."""
    if isinstance(g, CubeFunction):
        return op(g)
    if isinstance(g, VectorCubeFunction):
        return g.map(op)
    if isinstance(g, BiCubeFunction):
        return g.map_eps(op)
    raise TypeError(f"unsupported operand {type(g).__name__}")


def _add(a, b):
    if isinstance(a, BiCubeFunction):
        return BiCubeFunction(a.n_eps, a.n_delta, a.values + b.values)
    return a + b


def _sum(gs):
    gs = list(gs)
    out = gs[0]
    for g in gs[1:]:
        out = _add(out, g)
    return out


def _norm(instance: InequalityInstance, g) -> float:
    if isinstance(g, CubeFunction):
        return lp_norm(g, instance.p)
    return mixed_norm(g, instance.norm_spec())


def _rad(instance, operands, cfg) -> float:
    spec = instance.norm_spec()
    return rademacher_avg(operands, instance.p, spec, cfg).value


def _subtract_mean(g):
    if isinstance(g, CubeFunction):
        return g - g.mean
    if isinstance(g, VectorCubeFunction):
        return VectorCubeFunction([c - c.mean for c in g.components])
    mean = g.values.mean(axis=0, keepdims=True)
    return BiCubeFunction(g.n_eps, g.n_delta, g.values - mean)


def _square_function_norm(family, p: float) -> float:
    vals = np.stack([f.values() for f in family])
    return float(((np.sqrt((vals**2).sum(axis=0)) ** p).mean()) ** (1.0 / p))


def evaluate(instance: InequalityInstance, inputs,
             cfg: RademacherConfig | None = None) -> RatioReport:
    """Evaluate both sides of the instance on concrete inputs.

    `inputs` is a single operand, a family (one operand per coordinate), or
    a BiCubeFunction, according to the catalog entry.  Operand dimension
    must equal instance.n; family length must equal n.
    """
    cfg = cfg if cfg is not None else RademacherConfig()
    ineq = instance.ineq_id
    kind = instance.input_kind
    n, p = instance.n, instance.p

    if kind == "bi":
        if not isinstance(inputs, BiCubeFunction):
            raise ValueError(f"{ineq} expects a BiCubeFunction")
        if inputs.n_eps != n:
            raise ValueError(f"operand has n_eps={inputs.n_eps}, instance n={n}")
    elif kind == "family":
        inputs = list(inputs)
        if len(inputs) != n:
            raise ValueError(f"{ineq} expects a family of n={n} operands, got {len(inputs)}")
        _check_operand_dims(inputs, instance)
    else:
        if isinstance(inputs, (list, tuple)):
            raise ValueError(f"{ineq} expects a single operand")
        _check_operand_dims([inputs], instance)

    D = discrete_derivative
    if ineq == "R_ABOVE":
        lhs = _rad(instance, [_apply(lambda h: riesz(h, i), inputs) for i in range(n)], cfg)
        rhs = _norm(instance, inputs)
    elif ineq in ("RIESZ_LOWER", "RIESZ_FULL_BELOW"):
        lhs = _norm(instance, _apply(lambda h: frac_power(h, -0.5), inputs))
        rhs = _rad(instance, [_apply(lambda h, i=i: D(h, i), inputs) for i in range(n)], cfg)
    elif ineq == "GAMMA_BELOW":
        lhs = _norm(instance, _apply(lambda h: frac_power(h, instance.gamma - 0.5), inputs))
        rhs = _rad(instance, [_apply(lambda h, i=i: D(h, i), inputs) for i in range(n)], cfg)
    elif ineq in ("R_BELOW", "R_BELOW_NOD", "DELTA_FI"):
        a = instance.a
        lhs = _norm(instance, _sum(
            _apply(lambda h, i=i: frac_power(D(h, i), a), inputs[i]) for i in range(n)))
        if ineq == "R_BELOW":
            ops = [_apply(lambda h, i=i: D(h, i), inputs[i]) for i in range(n)]
        else:
            ops = inputs
        rhs = _rad(instance, ops, cfg)
    elif ineq == "PISIER":
        lhs = _norm(instance, _subtract_mean(inputs))
        rhs = _rad(instance, [_apply(lambda h, i=i: D(h, i), inputs) for i in range(n)], cfg)
    elif ineq == "F1":
        margs = inputs.marginals()
        lhs = lp_norm(_sum(frac_power(D(m, j), 1.0) for j, m in enumerate(margs)), p)
        rhs = float((np.abs(inputs.values) ** p).mean() ** (1.0 / p))
    elif ineq == "DF":
        lhs = _rad(instance, [_apply(lambda h, j=j: frac_power(D(h, j), 1.0), inputs)
                              for j in range(n)], cfg)
        rhs = _norm(instance, inputs)
    elif ineq == "PT_DERIV":
        t = instance.t
        lhs = _norm(instance, _sum(
            _apply(lambda h, i=i: D(heat(h, t), i), inputs[i]) for i in range(n)))
        rhs = _rad(instance, [_apply(lambda h, i=i: D(h, i), inputs[i]) for i in range(n)], cfg)
        rhs /= math.sqrt(math.exp(2.0 * t) - 1.0)
    elif ineq == "EPI":
        lhs = lp_norm(_sum(D(frac_power(f, 0.5), i) for i, f in enumerate(inputs)), p)
        rhs = _square_function_norm([D(f, i) for i, f in enumerate(inputs)], p)
    elif ineq == "GRAD_L1P":
        lhs = _square_function_norm(gradient(inputs), p)
        rhs = lp_norm(frac_power(inputs, -1.0 / p), p)
    else:  # pragma: no cover
        raise AssertionError(ineq)

    mode = "exact" if cfg.mode == "exact" else f"monte-carlo[{cfg.samples}]"
    return RatioReport(float(lhs), float(rhs), _ratio(lhs, rhs), _digest(inputs), mode)


def _check_operand_dims(operands, instance) -> None:
    for g in operands:
        gn = g.n_eps if isinstance(g, BiCubeFunction) else g.n
        if gn != instance.n:
            raise ValueError(f"operand dimension {gn} != instance n={instance.n}")
        if instance.inner == "scalar" and not isinstance(g, CubeFunction):
            raise ValueError("scalar instance expects CubeFunction operands")
        if instance.inner == "lq" and not isinstance(g, VectorCubeFunction):
            raise ValueError("lq instance expects VectorCubeFunction operands")
        if instance.inner == "Lq" and not isinstance(g, BiCubeFunction):
            raise ValueError("Lq instance expects BiCubeFunction operands")


# -- input parametrization and search -----------------------------------------


def _input_dim(instance: InequalityInstance) -> tuple[tuple[int, ...], int]:
    m = 1 << instance.n
    kind = instance.input_kind
    k = instance.n if kind == "family" else 1
    if kind == "bi":
        shape = (m, m)
    elif instance.inner == "scalar":
        shape = (k, m)
    elif instance.inner == "lq":
        shape = (k, instance.R, m)
    else:
        shape = (k, m, m)
    dim = math.prod(shape)
    if dim > MAX_INPUT_COEFFS:
        raise ValueError(f"{dim} input coefficients exceed the budget of {MAX_INPUT_COEFFS}")
    return shape, dim


def _build_inputs(instance: InequalityInstance, theta: np.ndarray):
    shape, _ = _input_dim(instance)
    arr = theta.reshape(shape)
    kind = instance.input_kind
    n = instance.n
    if kind == "bi":
        return BiCubeFunction(n, n, arr)
    if instance.inner == "scalar":
        ops = [CubeFunction(n, row) for row in arr]
    elif instance.inner == "lq":
        ops = [VectorCubeFunction([CubeFunction(n, c) for c in row]) for row in arr]
    else:
        ops = [BiCubeFunction(n, n, row) for row in arr]
    return ops if kind == "family" else ops[0]


def random_inputs(instance: InequalityInstance, rng: np.random.Generator):
    """Unit-sphere random coefficient inputs of the right shape (at most `MAX_INPUT_COEFFS`)."""
    _, dim = _input_dim(instance)
    theta = rng.standard_normal(dim)
    return _build_inputs(instance, theta / np.linalg.norm(theta))


def _canonical_thetas(instance: InequalityInstance) -> list[np.ndarray]:
    """Warm starts for the search: the dictator witnesses and a flat vector.

    Keeping the classical witnesses in the probe set makes the search at
    least as good as any of them by construction.
    """
    from .cube import character as _char

    shape, dim = _input_dim(instance)
    n = instance.n
    dictator = np.zeros(shape)
    if instance.input_kind == "bi":
        family = [_char(n, 1 << j) for j in range(n)]
        dictator = BiCubeFunction.from_sign_family(family).values
    elif instance.inner == "scalar":
        for i in range(shape[0]):
            dictator[i, 1 << (i % n)] = 1.0
    elif instance.inner == "lq":
        for i in range(shape[0]):
            dictator[i, :, 1 << (i % n)] = 1.0
    else:  # Lq operands are stored as value grids, constant in the second cube
        for i in range(shape[0]):
            dictator[i] = _char(n, 1 << (i % n)).values()[:, None]
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

    probes = []
    for theta in _canonical_thetas(instance):
        r = ratio_of(theta)
        if math.isfinite(r):
            probes.append((r, theta))
    for _ in range(max(1, cfg.trials)):
        theta = rng.standard_normal(dim)
        theta /= np.linalg.norm(theta)
        r = ratio_of(theta)
        if math.isfinite(r):
            probes.append((r, theta))
    if not probes:
        raise RuntimeError("no probe produced a finite ratio")
    probes.sort(key=lambda pair: pair[0], reverse=True)

    best_r, best_theta = probes[0]
    for r0, theta0 in probes[: max(1, cfg.restarts)]:
        theta = theta0.copy()
        r = r0
        h = cfg.perturbation
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
    return RatioReport(report.lhs, report.rhs, report.ratio, report.inputs_digest,
                       mode=f"search[trials={cfg.trials},ascent={cfg.ascent_steps}]"), witness


# -- sweeps -------------------------------------------------------------------

SWEEP_COLUMNS = ("inequality_id", "n", "p", "q", "a_or_gamma", "t",
                 "lhs", "rhs", "ratio", "mode", "seed")


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
                    point_cfg = SearchConfig(trials=search.trials, restarts=search.restarts,
                                             ascent_steps=search.ascent_steps,
                                             perturbation=search.perturbation,
                                             seed=seed, stream=stream)
                    report, _ = search_max_ratio(instance, point_cfg)
                else:
                    rng = stream_generator(seed, stream)
                    report = evaluate(instance, random_inputs(instance, rng))
                rows.append({
                    "inequality_id": instance.ineq_id,
                    "n": n,
                    "p": p,
                    "q": q if q is not None else "",
                    "a_or_gamma": a if a is not None else (gamma if gamma is not None else ""),
                    "t": t if t is not None else "",
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "ratio": report.ratio,
                    "mode": report.mode,
                    "seed": seed,
                })
                stream += 1
    return rows


def rows_to_csv(rows, columns=SWEEP_COLUMNS) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def rows_to_json(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=False)
