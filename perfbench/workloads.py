"""The benchmark's workloads: fixed job lists built from a seed.

Every job checks its own output against the mathematics (identities,
monotonicity, closed forms, standard errors), never against stored floats,
so a change in rounding that legitimately moves a search path still passes.
A job fails by raising; `run_job` turns any exception into a recorded error.
Library calls go through module attributes (`cx.talagrand_ratio`, not a
name imported at load time), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cubeineq import cli, cube, noise, norms, rng
from cubeineq import counterexamples as cx
from cubeineq import inequalities as iq

# Jobs that fail on the seed tree because of known defects.  They stay in
# the workload and count in its error rate, so a fix shows as a drop.
#   lamberton n=512, 1024, 2048: the Krawtchouk-table path loses all
#     precision past n ~ 300 and returns ratios 2.5e-9, inf (rhs nan) and 0.0
#     without raising.
#   riesz-above n=512, 1024, 2048: the rhs is lamberton_ratio's (wrong past
#     n ~ 300, nan at 1024 and 2048) and from n ~ 1000 the lhs terms
#     2^(-n-s) underflow to 0, so the ratios are 2.5e-9, 0.0 and 0.0, again
#     without raising.
#   pisier-min n=10^5, 10^6: the bounded scalar search stops ~2e-9 from the
#     minimiser, and the objective's curvature (~n^2) turns that into value
#     errors of 6e-8 and 1.6e-6 against the closed form, where ~1e-10 is
#     documented.
KNOWN_FAILURES = {
    "radial-large-n": ("lamberton n=512", "lamberton n=1024", "lamberton n=2048",
                       "riesz-above n=512", "riesz-above n=1024", "riesz-above n=2048",
                       "pisier-min n=10^5", "pisier-min n=10^6"),
}


class CheckFailed(Exception):
    """A job's output broke one of its mathematical checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def finite_positive(x: float, what: str) -> None:
    check(math.isfinite(x) and x > 0, f"{what} = {x!r} is not finite and positive")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], None]


@dataclass(frozen=True)
class JobResult:
    name: str
    ok: bool
    seconds: float
    error: str = ""


def run_job(job: Job) -> JobResult:
    start = time.perf_counter()
    try:
        job.run()
    except Exception as exc:  # the benchmark keeps going and records the failure
        return JobResult(job.name, False, time.perf_counter() - start,
                         f"{type(exc).__name__}: {exc}")
    return JobResult(job.name, True, time.perf_counter() - start)


class Curve:
    """Values along an n-list that must be finite, positive and increasing.

    Each value is compared with the last one that passed, so one bad point
    fails only its own job.
    """

    def __init__(self, what: str):
        self.what = what
        self.last = None

    def add(self, value: float) -> None:
        finite_positive(value, self.what)
        if self.last is not None:
            check(value > self.last, f"{self.what} {value!r} does not exceed {self.last!r}")
        self.last = value


class Band:
    """Values that must stay within a factor `width` of one another."""

    def __init__(self, what: str, width: float):
        self.what, self.width, self.seen = what, width, []

    def add(self, value: float) -> None:
        finite_positive(value, self.what)
        lo, hi = min(self.seen + [value]), max(self.seen + [value])
        check(hi <= self.width * lo,
              f"{self.what} spans [{lo!r}, {hi!r}], wider than x{self.width}")
        self.seen.append(value)


def cli_job(argv, check_rows=None) -> Callable[[], None]:
    """Run `cubeineq <argv>` in-process; exit code 0 and a well-formed
    payload are required, and `check_rows` may test the result rows."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(argv))
        check(status == 0, f"exit code {status}: {err.getvalue().strip()[-200:]}")
        payload = json.loads(out.getvalue())
        check(bool(payload["rows"]), "no result rows")
        if check_rows is not None:
            check_rows(payload)

    return run


# -- radial-large-n -------------------------------------------------------------


def radial_large_n(seed: int) -> list[Job]:
    jobs = []
    ratio, rhs = Curve("talagrand ratio"), Band("talagrand rhs", 1.10)

    def talagrand(n):
        rep = cx.talagrand_ratio(n, 2.0)
        finite_positive(rep.lhs, "talagrand lhs")
        rhs.add(rep.rhs)
        ratio.add(rep.ratio)

    for k in range(8, 17):
        jobs.append(Job(f"talagrand n=2^{k}", lambda n=1 << k: talagrand(n)))

    lamberton = Curve("lamberton ratio")
    for n in list(range(6, 21)) + [64, 128, 256, 512, 1024, 2048]:
        jobs.append(Job(f"lamberton n={n}",
                        lambda n=n: lamberton.add(cx.lamberton_ratio(n, 1.5).ratio)))

    lifted = Curve("lifted riesz-above ratio")
    for n in (8, 16, 32, 64, 128, 256, 512, 1024, 2048):
        jobs.append(Job(f"riesz-above n={n}",
                        lambda n=n: lifted.add(cx.riesz_above_vector_check(n, 2.0, 1.5).ratio)))

    minimum, bound = Curve("pisier minimum"), Curve("pisier bound")

    def pisier_min(n):
        value = cx.pisier_min_constant(n).value
        # the minimiser solves n r^2 + 2 r - n = 0; ~1e-10 relative accuracy is documented
        r = (math.sqrt(1.0 + n * n) - 1.0) / n
        closed = math.exp(-n * math.log(r) + math.log1p(r) - math.log1p(-r))
        check(abs(value - closed) <= 1e-9 * closed, f"minimum {value!r} != closed form {closed!r}")
        minimum.add(value)

    for e in range(3, 7):
        jobs.append(Job(f"pisier-min n=10^{e}", lambda n=10**e: pisier_min(n)))
        jobs.append(Job(f"pisier-bound n=10^{e}",
                        lambda n=10**e: bound.add(cx.pisier_constant_bound(n).value)))

    def pisier_one():
        value = cx.pisier_min_constant(1).value
        check(abs(value - (3.0 + 2.0 * math.sqrt(2.0))) <= 1e-9, f"minimum at n=1 is {value!r}")

    jobs.append(Job("pisier-min n=1", pisier_one))

    def pointwise():
        excess = cx.talagrand_pointwise_bound(1 << 10, 100_000, seed=seed)
        check(math.isfinite(excess) and excess <= 0.0, f"pointwise bound exceeded by {excess!r}")

    jobs.append(Job("talagrand pointwise n=2^10", pointwise))
    return jobs


# -- dense-search ---------------------------------------------------------------


def _dictator(instance: iq.InequalityInstance):
    """The dictator witness the search starts from, built from characters."""
    n = instance.n
    if instance.input_kind == "single":
        return cube.character(n, 1)
    if instance.inner == "lq":
        return [cube.VectorCubeFunction([cube.character(n, 1 << i)] * instance.R)
                for i in range(n)]
    return [cube.BiCubeFunction(n, n, np.repeat(cube.character(n, 1 << i).values()[:, None],
                                                1 << n, axis=1))
            for i in range(n)]


class Series:
    """Search ratios along n; the job at `n0` sets the base the others compare with."""

    def __init__(self, n0: int, growth: float):
        self.n0, self.growth, self.base = n0, growth, None


def _search_job(instance, cfg, series=None):
    """Seeded search whose ratio is reproduced by evaluate on the witness,
    is at least the dictator's and, within a series, grows at most x growth."""

    def run():
        report, witness = iq.search_max_ratio(instance, cfg)
        finite_positive(report.ratio, "search ratio")
        again = iq.evaluate(instance, witness).ratio
        check(abs(again - report.ratio) <= 1e-12 * report.ratio,
              f"witness re-evaluates to {again!r}, search reported {report.ratio!r}")
        start = iq.evaluate(instance, _dictator(instance)).ratio
        check(report.ratio >= start * (1 - 1e-12),
              f"search ratio {report.ratio!r} below dictator start {start!r}")
        if series is None:
            return
        if instance.n == series.n0:
            series.base = report.ratio
            return
        check(series.base is not None, f"no ratio at n={series.n0} to compare with")
        check(report.ratio <= series.growth * series.base,
              f"ratio {report.ratio!r} grew more than x{series.growth} from {series.base!r}")

    return run


def dense_search(seed: int) -> list[Job]:
    instances = {
        "R_BELOW lq": lambda n: iq.InequalityInstance("R_BELOW", n=n, p=3, q=3, a=0.5, inner="lq"),
        "GAMMA_BELOW": lambda n: iq.InequalityInstance("GAMMA_BELOW", n=n, p=3, gamma=0.25),
    }
    jobs = []
    for label, make in instances.items():
        series = Series(4, 1.15)
        for n in (4, 6, 8, 10):
            # Mostly random probes: an evaluation's cost depends on how structured
            # its input is, so long ascents from the flat start make cost vary by seed.
            cfg = iq.SearchConfig(trials=30, restarts=1, ascent_steps=20, seed=seed,
                                  stream=len(jobs))
            jobs.append(Job(f"{label} n={n}", _search_job(make(n), cfg, series)))
    cfg = iq.SearchConfig(trials=2, restarts=1, ascent_steps=4, seed=seed, stream=len(jobs))
    lq = iq.InequalityInstance("R_BELOW", n=6, p=3, q=3, a=0.5, inner="Lq")
    jobs.append(Job("R_BELOW Lq n=6", _search_job(lq, cfg)))
    return jobs


# -- identity-checks ------------------------------------------------------------


def _rows_within_tol(count):
    def check_rows(payload):
        rows, tol = payload["rows"], payload["params"]["tol"]
        check(len(rows) == count, f"{len(rows)} rows, expected {count}")
        for row in rows:
            gap = row["max_discrepancy"]
            check(math.isfinite(gap) and gap <= tol, f"discrepancy {gap!r} exceeds {tol!r}")

    return check_rows


def _heat_riesz(n: int, seed: int, t: float = 0.5) -> None:
    """heat -> Riesz -> L^3 at large n.  Parseval fixes the L^2 norm of R_i P_t f,
    L^3 dominates L^2, and P_t f at the all-ones point (the sum of its
    coefficients) must match the noise Monte-Carlo within 5 standard errors."""
    f = cube.random_function(n, rng.stream_generator(seed, n))
    h = cube.heat(f, t)
    i = seed % n
    r = cube.riesz(h, i)
    l2, l3 = norms.lp_norm(r, 2.0), norms.lp_norm(r, 3.0)
    masks = np.arange(1 << n, dtype=np.uint32)
    has_i = ((masks >> i) & 1).astype(bool)
    parseval = math.sqrt(float(np.sum(h.coeffs[has_i] ** 2 / np.bitwise_count(masks[has_i]))))
    finite_positive(l3, "L^3 norm")
    check(abs(l2 - parseval) <= 1e-9 * parseval, f"L^2 norm {l2!r} != Parseval {parseval!r}")
    check(l3 >= l2 * (1 - 1e-12), f"L^3 norm {l3!r} below L^2 norm {l2!r}")
    at_ones = float(h.coeffs.sum())
    mc = noise.mc_noise_expectation(f, t, noise.SampleBatch(seed, 200_000, stream=n))
    check(mc.stderr > 0 and abs(at_ones - mc.value) <= 5 * mc.stderr,
          f"heat at all-ones {at_ones!r} vs Monte-Carlo {mc.value!r} +- {mc.stderr!r}")


def _rademacher_mc(seed: int, n: int = 14, k: int = 14) -> None:
    """At p = 2 orthogonality of the signs gives E||sum d_i g_i||^2 = sum ||g_i||^2."""
    gen = rng.stream_generator(seed, 1000 + n)
    ops = [cube.random_function(n, gen) for _ in range(k)]
    cfg = norms.RademacherConfig(mode="monte-carlo", samples=4096, seed=seed)
    res = norms.rademacher_avg(ops, 2.0, cfg=cfg)
    exact = math.sqrt(sum(float(np.sum(g.coeffs ** 2)) for g in ops))
    check(res.stderr > 0 and abs(res.value - exact) <= 5 * res.stderr,
          f"Monte-Carlo {res.value!r} +- {res.stderr!r} vs exact {exact!r}")


def identity_checks(seed: int) -> list[Job]:
    jobs = []
    s = str(seed)
    for which in ("heat", "derivative"):
        for n in range(1, 11):
            for t in ("0.05", "0.5", "3"):
                argv = ["verify", "formula", "--which", which, "--n", str(n), "--t", t,
                        "--count", "10", "--seed", s]
                jobs.append(Job(f"verify {which} n={n} t={t}", cli_job(argv, _rows_within_tol(10))))
    for n in (12, 13, 14):
        argv = ["verify", "formula", "--which", "heat", "--n", str(n), "--count", "1", "--seed", s]
        jobs.append(Job(f"verify heat n={n}", cli_job(argv, _rows_within_tol(1))))
    for which in ("qa", "elpf"):
        argv = ["verify", "formula", "--which", which, "--n", "5", "--seed", s]
        jobs.append(Job(f"verify {which} n=5", cli_job(argv, _rows_within_tol(5))))
    jobs.append(Job("verify tail-integral",
                    cli_job(["verify", "formula", "--which", "tail-integral", "--seed", s],
                            _rows_within_tol(1))))
    for check_name in ("projection", "isometry", "rotation", "pisier-integral"):
        jobs.append(Job(f"quantum {check_name}", cli_job(["quantum", check_name, "--seed", s])))
    for n in (20, 22):
        jobs.append(Job(f"heat-riesz-L3 n={n}", lambda n=n: _heat_riesz(n, seed)))
    jobs.append(Job("rademacher monte-carlo n=14", lambda: _rademacher_mc(seed)))
    return jobs


WORKLOADS = {
    "radial-large-n": radial_large_n,
    "dense-search": dense_search,
    "identity-checks": identity_checks,
}
