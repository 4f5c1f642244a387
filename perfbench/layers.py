"""The layers of cubeineq as the traced run sees them, and their counters.

Each layer is one module of the package.  Hooks run before a wrapped call:
they label the call with a variant (for instance the transform size class)
and add computed work counts taken from the argument sizes, never from
hardware counters.
"""

from __future__ import annotations

import math

from cubeineq import (cli, counterexamples, cube, inequalities, noise, norms, quantum,
                      radial)

MODULES = (cube, radial, noise, norms, inequalities, counterexamples, quantum, cli)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _walsh(counters, args, kwargs):
    m = len(_arg(args, kwargs, 0, "a"))
    n = m.bit_length() - 1
    counters["cube.walsh_transform.butterflies"] += (m // 2) * n
    return "small" if n <= 12 else ("mid" if n <= 15 else "large")


def _value_count(g) -> int:
    if isinstance(g, cube.CubeFunction):
        return 1 << g.n
    if isinstance(g, cube.VectorCubeFunction):
        return g.R << g.n
    return g.values.size


def _rademacher(counters, args, kwargs):
    operands = _arg(args, kwargs, 0, "operands")
    cfg = _arg(args, kwargs, 3, "cfg")
    exact = cfg is None or cfg.mode == "exact"
    if isinstance(operands, (list, tuple)) and operands:  # never consume an iterator
        patterns = (1 << len(operands)) if exact else cfg.samples
        block = patterns * _value_count(operands[0]) * 8
        key = "norms.rademacher_avg.block_bytes"
        counters[key] = max(counters[key], block)
    return "exact" if exact else "monte_carlo"


def _sup_pairs(counters, args, kwargs):
    # sign totals s of the parity of n with |s| <= W, W = sqrt(2 n log(2/tail))
    n = _arg(args, kwargs, 0, "profile").n
    tail = _arg(args, kwargs, 2, "tail_mass", 1e-20)
    half = min(math.ceil(math.sqrt(2.0 * n * math.log(2.0 / tail))), n)
    window = half + 1 if half % 2 == n % 2 else half
    counters["norms.radial_sup_rademacher_moment.sd_pairs"] += window * (n + 1)
    return ""


def _enumerated(counters, args, kwargs):
    counters["noise.enumerated_terms"] += 4 ** _arg(args, kwargs, 0, "f").n
    return ""


def _mc_samples(counters, args, kwargs):
    counters["noise.mc_noise_expectation.samples"] += _arg(args, kwargs, 2, "batch").count
    return ""


def _kernel_entries(counters, args, kwargs):
    G = _arg(args, kwargs, 0, "G")
    m = getattr(G, "mat", G).shape[0]
    nodes = len(_arg(args, kwargs, 1, "quad").nodes)
    counters["quantum.kernel_transform.node_entries"] += nodes * m * m
    return ""


def _table_entries(counters, args, kwargs):
    n = _arg(args, kwargs, 0, "n")
    counters["radial.krawtchouk_table.entries"] += (n + 1) ** 2
    return ""


HOOKS = {
    "cube.walsh_transform": _walsh,
    "norms.rademacher_avg": _rademacher,
    "norms.radial_sup_rademacher_moment": _sup_pairs,
    "noise.exact_noise_expectation": _enumerated,
    "noise.verify_derivative_representation": _enumerated,
    "noise.mc_noise_expectation": _mc_samples,
    "quantum.kernel_transform": _kernel_entries,
    "radial.krawtchouk_table": _table_entries,
}

VARIANTS = {
    "cube.walsh_transform": ("small", "mid", "large"),
    "norms.rademacher_avg": ("exact", "monte_carlo"),
}

COUNTERS = (
    "cube.walsh_transform.butterflies",
    "norms.rademacher_avg.block_bytes",
    "norms.radial_sup_rademacher_moment.sd_pairs",
    "noise.enumerated_terms",
    "noise.mc_noise_expectation.samples",
    "quantum.kernel_transform.node_entries",
    "radial.krawtchouk_table.entries",
)


def resolves(metric: str, wrapped) -> bool:
    """True when a per-layer metric name is one the traced run can produce."""
    if metric == "trace_overhead_frac" or metric in COUNTERS:
        return True
    base, _, kind = metric.rpartition(".")
    if kind == "calls":
        return base in wrapped
    if kind != "self_s":
        return False
    if base in wrapped or base in {m.__name__.rpartition(".")[2] for m in MODULES}:
        return True
    func, _, variant = base.rpartition(".")
    return func in wrapped and variant in VARIANTS.get(func, ())
