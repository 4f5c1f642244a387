"""Span tracing of a package from the outside, by wrapping its public callables.

`Tracer.install()` replaces every public function of the listed modules, and
every public method of the classes they define, with a timing wrapper.  A
function is replaced at every name it is reached through: its own module,
each module that imported it and the package namespace.  `uninstall()` puts
the original objects back, so code run afterwards in the same process is
unpatched.

Each wrapped call appends one span to an in-memory list: name, variant (a
label a hook derives from the arguments), start, end, parent span and job.
A hook may also add to named counters.  Self times are derived from the
spans after the run: a span's duration minus the durations of the spans it
directly caused.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _public_callables(module):
    """(owner, attribute, qualified name, callable) for every public function
    of `module` and every public method of the classes it defines."""
    short = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    yield obj, attr, f"{short}.{name}.{attr}", member
        elif callable(obj):
            yield module, name, f"{short}.{name}", obj


class Tracer:
    """Wraps the public callables of `modules`; `hooks` maps a qualified name
    to hook(counters, args, kwargs) -> variant label."""

    def __init__(self, modules, hooks=None, package=None):
        self.modules = list(modules)
        self.package = package or self.modules[0].__name__.partition(".")[0]
        self.hooks = dict(hooks or {})
        self.spans = []
        self.counters = defaultdict(float)
        self.job = ""
        self.wrapped = set()
        self._stack = []
        self._patched = []

    # -- installing and removing wrappers ----------------------------------------

    def _wrap(self, qualname, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        hook = self.hooks.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            variant = ""
            if hook is not None:
                try:
                    variant = hook(tracer.counters, args, kwargs)
                except Exception:  # a hook must never change the program's behaviour
                    variant = ""
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (qualname, variant, start, end,
                              stack[-1] if stack else -1, tracer.job)

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for module in self.modules:
            for owner, attr, qualname, member in _public_callables(module):
                if owner is module:
                    by_id[id(member)] = (member, self._wrap(qualname, member))
                else:
                    if isinstance(member, (classmethod, staticmethod)):
                        replacement = type(member)(self._wrap(qualname, member.__func__))
                    else:
                        replacement = self._wrap(qualname, member)
                    self._patch(owner, attr, member, replacement)
                self.wrapped.add(qualname)
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def _package_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def _patch(self, owner, attr, original, replacement):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading the spans ---------------------------------------------------------

    def write_spans(self, path, workload, t0):
        """One JSON line per span; times in seconds from `t0`."""
        with open(path, "w") as fh:
            for sid, (name, variant, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "variant": variant,
                                     "start": start - t0, "end": end - t0, "parent": parent,
                                     "workload": workload, "job": job}) + "\n")


def self_times(spans):
    """Duration of each span minus the durations of its direct children.

    Calls run on one thread, so a span's children lie inside it and do not
    overlap one another.
    """
    inner = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    return [(span[3] - span[2]) - inner[i] for i, span in enumerate(spans)]


def aggregate(spans, selfs):
    """Totals over the spans by function, variant and module.

    Keys: `<qualname>.self_s`, `<qualname>.calls`, `<qualname>.<variant>.self_s`
    and `<module>.self_s`.
    """
    totals = defaultdict(float)
    for (name, variant, *_), own in zip(spans, selfs):
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        if variant:
            totals[f"{name}.{variant}.self_s"] += own
        totals[f"{name.partition('.')[0]}.self_s"] += own
    return totals
