"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import sys
import types

import pytest

from worker import SRC

sys.path.insert(0, str(SRC))

import cubeineq  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((SRC.parent / "BENCHMARK.json").read_text())


def test_self_times_of_a_synthetic_call_tree():
    # a [0,10] calls b [1,4] (which calls c [2,3]) and then d [5,9]
    spans = [("m.a", "", 0.0, 10.0, -1, "j"),
             ("m.b", "x", 1.0, 4.0, 0, "j"),
             ("n.c", "", 2.0, 3.0, 1, "j"),
             ("m.d", "", 5.0, 9.0, 0, "j")]
    selfs = tracing.self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    totals = tracing.aggregate(spans, selfs)
    assert totals["m.self_s"] == 9.0 and totals["n.self_s"] == 1.0
    assert totals["m.b.x.self_s"] == 2.0 and totals["m.a.calls"] == 1
    assert totals["m.d.self_s"] == 4.0
    assert sum(selfs) == 10.0  # self times partition the root span


def _fake_package():
    """benchfake.mod: outer -> (inner -> leaf), with an alias imported into benchfake.user."""
    pkg = types.ModuleType("benchfake")
    mod = types.ModuleType("benchfake.mod")
    exec("def leaf(x):\n    return x + 1\n"
         "def inner(x):\n    return leaf(x) * 2\n"
         "def outer(x):\n    return inner(x) + leaf(x)\n"
         "class Box:\n    def get(self):\n        return leaf(0)\n"
         "    @classmethod\n    def make(cls):\n        return cls()\n", mod.__dict__)
    user = types.ModuleType("benchfake.user")
    user.leaf = mod.leaf
    pkg.leaf = mod.leaf
    return {"benchfake": pkg, "benchfake.mod": mod, "benchfake.user": user}


def test_tracer_records_the_call_tree(monkeypatch):
    fake = _fake_package()
    for name, module in fake.items():
        monkeypatch.setitem(sys.modules, name, module)
    mod = fake["benchfake.mod"]
    tracer = tracing.Tracer([mod], package="benchfake")
    with tracer.installed():
        tracer.job = "j1"
        assert mod.outer(1) == 6
        assert fake["benchfake.user"].leaf(1) == 2 and fake["benchfake"].leaf(1) == 2
        assert mod.Box.make().get() == 1
    names = [s[0] for s in tracer.spans]
    assert names == ["mod.outer", "mod.inner", "mod.leaf", "mod.leaf",
                     "mod.leaf", "mod.leaf", "mod.Box.make", "mod.Box.get", "mod.leaf"]
    parents = [s[4] for s in tracer.spans]
    assert parents == [-1, 0, 1, 0, -1, -1, -1, -1, 7]
    assert all(s[5] == "j1" for s in tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    outer = tracer.spans[0]
    assert math.isclose(selfs[0] + selfs[1] + selfs[2] + selfs[3], outer[3] - outer[2])


def _bindings():
    """Every attribute of every cubeineq module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "cubeineq" or name.startswith("cubeineq."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("cubeineq"):
                    for member, obj in vars(value).items():
                        seen[(name, attr, member)] = obj
    return seen


def test_every_binding_is_restored_after_a_traced_run():
    before = _bindings()
    tracer = tracing.Tracer(layers.MODULES, layers.HOOKS)
    with tracer.installed():
        wrapped = cubeineq.cube.discrete_derivative
        assert wrapped is not before[("cubeineq.cube", "discrete_derivative")]
        assert cubeineq.discrete_derivative is wrapped
        assert cubeineq.inequalities.discrete_derivative is wrapped
        assert cubeineq.cube.BiCubeFunction.map_eps is not before[
            ("cubeineq.cube", "BiCubeFunction", "map_eps")]
        cubeineq.fwht([1.0, 2.0, 3.0, 4.0])
        for job in workloads.identity_checks(0)[:2]:
            job.run()
        for metric in SPEC["per_layer"]:
            assert layers.resolves(metric["name"], tracer.wrapped), metric["name"]
    recorded = len(tracer.spans)
    assert recorded > 0 and tracer.counters["cube.walsh_transform.butterflies"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    cubeineq.fwht([1.0, 2.0])
    assert len(tracer.spans) == recorded


def test_a_declared_layer_metric_the_trace_cannot_produce_fails_the_pass():
    tracer = tracing.Tracer(layers.MODULES, layers.HOOKS)
    with tracer.installed():
        cubeineq.fwht([1.0, 2.0])
    totals = worker.layer_totals(tracer, ["cube.walsh_transform.small.self_s",
                                          "quantum.kernel_transform.self_s"])
    assert totals["cube.walsh_transform.small.self_s"] > 0
    assert totals["quantum.kernel_transform.self_s"] == 0.0
    with pytest.raises(ValueError, match="cube.walsh_transfrom.self_s"):
        worker.layer_totals(tracer, ["cube.walsh_transfrom.self_s"])


def test_bad_results_and_nonzero_exits_count_as_errors():
    jobs = [
        workloads.Job("nan", lambda: workloads.finite_positive(float("nan"), "x")),
        workloads.Job("inf", lambda: workloads.Curve("ratio").add(math.inf)),
        workloads.Job("usage error", workloads.cli_job(
            ["verify", "formula", "--which", "heat", "--n", "0"])),
        workloads.Job("tolerance exceeded", workloads.cli_job(
            ["verify", "formula", "--which", "heat", "--n", "3", "--count", "1", "--tol", "-1"])),
        workloads.Job("raises", lambda: 1 / 0),
        workloads.Job("known", lambda: workloads.check(False, "recorded defect")),
        workloads.Job("fine", lambda: workloads.Curve("ratio").add(1.5)),
    ]
    results = [workloads.run_job(job) for job in jobs]
    assert [r.ok for r in results] == [False] * 6 + [True]
    assert "exit code 1" in results[2].error and "exit code 2" in results[3].error
    passes = [{"traced": False, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0,
               "jobs": [r.__dict__ for r in results]}]
    summary = run.summarize(passes, {"known"}, False, SPEC)
    result = summary["result"]
    assert summary["error_rate"] == 6 / 7
    assert result["metrics"]["pass_rate"]["value"] == pytest.approx(1 / 7)
    assert (result["attempted"], result["failed"], result["correct"]) == (7, 5, False)
    only_known = run.summarize([dict(passes[0], jobs=passes[0]["jobs"][5:])], {"known"},
                               False, SPEC)["result"]
    assert (only_known["failed"], only_known["correct"]) == (0, True)
    assert only_known["metrics"]["pass_rate"]["value"] == 0.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_declared_and_known_failures_exist(name):
    assert name in {w["name"] for w in SPEC["workloads"]}
    jobs = workloads.WORKLOADS[name](7)
    names = [job.name for job in jobs]
    assert len(set(names)) == len(names)
    assert set(workloads.KNOWN_FAILURES.get(name, ())) <= set(names)
