"""Batch front door: verifications, ratio searches, sweeps, counterexamples.

Subcommands map 1:1 onto module operations; nothing is computed here that
the library cannot do.  `ratio` is the one-point `sweep` over --n, --p and
--q, so `sweep` alone chooses between a random input and the search.  Output
is deterministic CSV or JSON (same seed and version => byte-identical bytes;
wall time goes to stderr only).  Exit codes: 0 = all asserted tolerances met,
1 = usage error, 2 = a verification exceeded its tolerance or its discrepancy
is not finite, or a row's result (lhs, rhs, ratio, minimum, argmin, bound) is
not finite, which `_emit` checks for every subcommand.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cube import VectorCubeFunction, random_function
from .inequalities import (ALIASES, SWEEP_COLUMNS, SearchConfig, check_input_budget, rows_to_csv,
                           sweep)
from .noise import (
    symmetrized_tail_integral,
    verify_derivative_representation,
    verify_heat_representation,
)
from .norms import OPERANDS, MixedNormSpec, lp_norm, mixed_norm
from .rng import stream_generator
from . import counterexamples as cx
from . import quantum as qt


@dataclass
class ExperimentRecord:
    """One CLI run: parameters in, result rows out, reproducibly."""

    experiment: str
    params: dict
    seed: int
    rows: list = field(default_factory=list)
    version: str = __version__

    def payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "version": self.version,
            "seed": self.seed,
            "params": self.params,
            "rows": self.rows,
        }


def _emit(record: ExperimentRecord, args, what: str, columns=None) -> int:
    """Write the record, then return `_check_finite`'s exit status for its rows."""
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        text = rows_to_csv(record.rows, columns or list(record.rows[0] if record.rows else []))
    else:
        text = json.dumps(record.payload(), indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # wall time goes to stderr only: identical invocations must emit identical bytes
    print(f"[cubeineq] {record.experiment}: {len(record.rows)} row(s), "
          f"{time.perf_counter() - args._t0:.2f}s", file=sys.stderr)
    return _check_finite(record.rows, what)


def _fail(status: int, message: str) -> int:
    print(f"[cubeineq] {message}", file=sys.stderr)
    return status


def _check_finite(rows, what: str) -> int:
    """Exit status 2, with a message naming the n, when a row's result is not finite."""
    keys = ("lhs", "rhs", "ratio", "minimum", "argmin", "bound")
    bad = [row["n"] for row in rows
           if not all(math.isfinite(row[key]) for key in keys if row.get(key, "") != "")]
    if bad:
        return _fail(2, f"{what}: non-finite result at n = {bad}")
    return 0


# -- verify ---------------------------------------------------------------------

_VERIFY_TOL = 1e-12  # the default --tol of every --which


def _cmd_verify(args) -> int:
    which = args.which
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rng = stream_generator(args.seed)
    rows = []
    if which in ("heat", "derivative"):
        for k in range(args.count):
            f = random_function(args.n, rng)
            if which == "heat":
                gap = verify_heat_representation(f, args.t)
            else:
                gap = verify_derivative_representation(f, k % args.n, args.t)
            rows.append({"case": k, "n": args.n, "t": args.t, "max_discrepancy": gap})
    elif which == "tail-integral":
        closed = symmetrized_tail_integral(args.t, args.r)
        numeric = symmetrized_tail_integral(args.t, args.r, numeric=True)
        rows.append({"t": args.t, "r": args.r, "closed": closed,
                     "numeric": numeric, "max_discrepancy": abs(closed - numeric)})
    else:
        quad = qt.QuadratureRule.build()
        for k in range(args.count):
            f = random_function(args.n, rng, mean_zero=(which == "elpf"))
            if which == "qa":
                gap = max(qt.verify_qa_formula(f, j, quad) for j in range(args.n))
            else:
                gap = qt.verify_elpF(f, quad)
            rows.append({"case": k, "n": args.n, "max_discrepancy": gap})
    record = ExperimentRecord("verify-" + which,
                              {"n": args.n, "t": args.t, "count": args.count, "tol": args.tol},
                              args.seed, rows)
    status = _emit(record, args, f"verify {which}")
    worst = float(np.max([row["max_discrepancy"] for row in rows]))  # keeps a nan
    if not worst <= args.tol:
        return _fail(2, f"verify {which}: max discrepancy {worst:.3e} exceeds {args.tol:.1e}")
    return status


# -- ratio / sweep ----------------------------------------------------------------


def _cmd_ratio(args) -> int:
    # a ratio is the one point of the matching sweep: same stream, search seed and row
    args.n_list, args.p_list, args.q_list = [args.n], [args.p], [args.q]
    return _cmd_sweep(args)


def _cmd_sweep(args) -> int:
    search = None
    if args.search != "none":
        search = SearchConfig(trials=args.trials,
                              ascent_steps=0 if args.search == "random" else args.ascent_steps)
    rows = sweep(args.ineq, args.n_list, args.p_list, q_list=args.q_list,
                 a=args.a, gamma=args.gamma, t=args.t, inner=args.inner,
                 R=args.r_components, search=search, seed=args.seed)
    ineq = ALIASES.get(args.ineq, args.ineq)
    record = ExperimentRecord(args.command, {"ineq": ineq}, args.seed, rows)
    return _emit(record, args, f"{args.command} {ineq}", columns=SWEEP_COLUMNS)


# -- counterexamples ----------------------------------------------------------------


def _cmd_counterexample(args) -> int:
    rows = []
    name = args.construction
    report = {"talagrand": lambda n: cx.talagrand_ratio(n, args.p),
              "lamberton": lambda n: cx.lamberton_ratio(n, args.s),
              "riesz-above": lambda n: cx.riesz_above_vector_check(n, args.p, args.s)}.get(name)
    for n in args.n_list:
        if report is None:  # pisier-constant
            pm = cx.pisier_min_constant(n)
            # at n = 1 the bound's infimum is not attained (r -> 0): the column is blank
            bound = cx.pisier_constant_bound(n).value if n >= 2 else ""
            rows.append({"n": n, "minimum": pm.value, "argmin": pm.argmin, "bound": bound})
        else:
            rep = report(n)
            rows.append({"n": n, "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio})
    extra = {}
    if name == "talagrand" and len(rows) >= 2:  # a line through one point says nothing
        extra["lhs_fit"] = cx.GrowthCurve.fit(args.n_list, [r["lhs"] for r in rows]).fit_record()
    record = ExperimentRecord("counterexample-" + name,
                              {"p": args.p, "s": args.s, **extra}, args.seed, rows)
    return _emit(record, args, f"counterexample {name}")


# -- quantum ----------------------------------------------------------------


def _cmd_quantum(args) -> int:
    rng = stream_generator(args.seed)
    check = args.check
    rows = []
    worst, tol = 0.0, 1e-10
    if check == "projection":
        qt._check_qubits(args.n)  # before the 2^n x 2^n draw
        m = 1 << args.n
        for k in range(20):
            M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            PM = qt.project_Q(M)
            gap = float(np.max(np.abs(PM - qt.project_by_conjugation(M))))
            if not gap <= 1e-12:
                raise qt.QuadratureAccuracyError(
                    f"projection implementations disagree by {gap:.3e} (> 1.0e-12)")
            idem = float(np.max(np.abs(qt.project_Q(PM) - PM)))
            worst = max(worst, idem)
            ps = (1.0, 1.5, 2.0, 3.0, np.inf)
            for projected, full in zip(qt.schatten_norms(PM, ps), qt.schatten_norms(M, ps)):
                worst = max(worst, projected - full)
        rows.append({"n": args.n, "max_defect": worst})
    elif check == "rotation":
        for theta in (0.0, 0.3, 1.0, 2.5):
            f = random_function(args.n, rng)
            T = qt.embed(f)
            RT = qt.rotate(T, theta)
            ps = (1.0, 2.0, 3.0, np.inf)
            for rotated, norm in zip(qt.schatten_norms(RT, ps), qt.schatten_norms(T, ps)):
                worst = max(worst, abs(rotated - norm))
        rows.append({"n": args.n, "max_isometry_defect": worst})
    elif check == "pisier-integral":
        quad = qt.QuadratureRule.build()
        worst, tol = quad.constancy_defect(), quad.declared_accuracy
        rows.append({"constancy_defect": worst, "c": quad.moment(0),
                     "declared_accuracy": tol})
    elif check == "isometry":
        for _ in range(10):
            f = random_function(args.n, rng)
            ps = (1.0, 1.5, 2.0, 3.0, np.inf)
            for p, norm in zip(ps, qt.schatten_norms(qt.embed(f), ps)):
                worst = max(worst, abs(norm - lp_norm(f, p)))
        F = VectorCubeFunction([random_function(args.n, rng) for _ in range(3)])
        for p in (2.0, 3.0):
            worst = max(worst, abs(qt.block_column_norm(F, p)
                                   - mixed_norm(F, MixedNormSpec.lq(p, 2))))
            worst = max(worst, abs(qt.block_diag_norm(F, p)
                                   - mixed_norm(F, MixedNormSpec.lq(p, p))))
        rows.append({"n": args.n, "max_isometry_defect": worst})
    else:  # epi
        check_input_budget(args.n * 2 ** args.n)  # before the family is drawn
        family = [random_function(args.n, rng) for _ in range(args.n)]
        rep = qt.epi_quantum_ratio(family, args.p)
        rows.append({"n": args.n, "p": args.p, "lhs": rep.lhs, "rhs": rep.rhs,
                     "ratio": rep.ratio})
    record = ExperimentRecord("quantum-" + check, {"n": args.n, "p": args.p},
                              args.seed, rows)
    status = _emit(record, args, f"quantum {check}")  # 2 on a non-finite epi row
    if not worst <= tol:
        return _fail(2, f"quantum {check}: tolerance exceeded")
    return status


# -- parser ----------------------------------------------------------------


def _number_list(text: str, kind) -> list:
    values = [kind(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _int_list(text: str) -> list[int]:
    return _number_list(text, int)


def _float_list(text: str) -> list[float]:
    return _number_list(text, float)


@functools.cache  # parsing leaves the parser unchanged, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeineq",
        description="verify identities, search inequality ratios, and reproduce "
                    "counterexamples on the Hamming cube")
    parser.add_argument("--version", action="version", version=f"cubeineq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    def entry_parameters(sp):
        # an entry reads at most one of a and gamma, so giving both is a usage error
        one = sp.add_mutually_exclusive_group()
        one.add_argument("--a", type=float, default=None)
        one.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--inner", choices=tuple(OPERANDS), default="scalar")
        sp.add_argument("--r-components", type=int, default=2)
        sp.add_argument("--search", choices=("none", "random", "ascent"), default="none")

    sp = sub.add_parser("verify", help="check a representation formula")
    sp.add_argument("kind", choices=("formula",))
    sp.add_argument("--which", required=True,
                    choices=("heat", "derivative", "tail-integral", "qa", "elpf"))
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--r", type=float, default=2.0, help="tail-integral exponent")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--tol", type=float, default=_VERIFY_TOL)
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("ratio", help="evaluate or search one inequality ratio")
    sp.add_argument("--ineq", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, default=None)
    entry_parameters(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--ascent-steps", type=int, default=200)
    common(sp)
    sp.set_defaults(func=_cmd_ratio)

    sp = sub.add_parser("sweep", help="grid of ratio reports")
    sp.add_argument("--ineq", required=True)
    sp.add_argument("--n-list", type=_int_list, required=True)
    sp.add_argument("--p-list", type=_float_list, required=True)
    sp.add_argument("--q-list", type=_float_list, default=None)
    entry_parameters(sp)
    sp.add_argument("--trials", type=int, default=60)
    sp.add_argument("--ascent-steps", type=int, default=120)
    common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("counterexample", help="reproduce a failure construction")
    sp.add_argument("construction",
                    choices=("talagrand", "lamberton", "riesz-above", "pisier-constant"))
    sp.add_argument("--n-list", type=_int_list, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--s", type=float, default=1.5)
    common(sp)
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("quantum", help="matrix-side verifications")
    sp.add_argument("check",
                    choices=("projection", "rotation", "pisier-integral", "isometry", "epi"))
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--p", type=float, default=2.0)
    common(sp)
    sp.set_defaults(func=_cmd_quantum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the toolkit reserves 2 for
        # verification failures
        if exc.code not in (0, None):
            return 1
        return 0
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        return _fail(1, f"error: {exc}")
    except qt.QuadratureAccuracyError as exc:
        return _fail(2, f"verification failure: {exc}")


if __name__ == "__main__":
    sys.exit(main())
