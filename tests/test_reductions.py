"""Vector reductions run on one thread with host-independent bits.

OpenBLAS runs a dot of more than 10^4 entries on all its threads, sums in an
order that depends on their count, and leaves a worker spinning for about
0.1 s after the call.  The package keeps BLAS to matrix products and sums
every vector by `cube._dot`; these tests run the large-n paths in a fresh
interpreter, where the BLAS thread count is still read from the environment.
The probes import numpy first and set `OPENBLAS_NUM_THREADS` themselves, so
they run with the thread count they name.

When `import cubeineq` is what loads numpy and none of
`OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS` and `OMP_NUM_THREADS` is set, the
package loads it with one BLAS thread and then unsets the variable again; the
last test checks that rule, and that an explicit choice is kept.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubeineq


def _run(script: str, **env_vars) -> str:
    """stdout of `script` in a fresh interpreter; a variable given as None is unset."""
    src = str(Path(cubeineq.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env = {name: value for name, value in env.items() if value is not None}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_call_leaves_a_blas_thread_spinning():
    # after each call, the process's CPU time over a 50 ms sleep: a spinning
    # BLAS worker adds about 50 ms, an idle process under 1 ms; calls are 0.15 s
    # apart, which outlasts the spin of the call before
    out = _run("""
        import time
        import numpy as np
        from cubeineq import counterexamples as cx, inequalities as iq
        from cubeineq.cube import random_function
        from cubeineq.norms import lp_norm

        rng = np.random.default_rng(0)
        f = random_function(14, rng)
        lq = iq.InequalityInstance("R_BELOW", n=10, p=3, q=3, a=0.5, inner="lq")
        f1 = iq.InequalityInstance("F1", n=10, p=3.0)
        F = iq.random_inputs(f1, rng)
        calls = {"talagrand_ratio 2^14": lambda: cx.talagrand_ratio(2**14, 2.0),
                 "lp_norm n=14 p=2": lambda: lp_norm(f, 2.0),
                 "random_inputs R_BELOW lq n=10": lambda: iq.random_inputs(lq, rng),
                 "evaluate F1 n=10": lambda: iq.evaluate(f1, F)}
        time.sleep(0.15)
        for name, call in calls.items():
            call()
            start = time.process_time()
            time.sleep(0.05)
            print(f"{name}: {time.process_time() - start}")
            time.sleep(0.1)
    """, OPENBLAS_NUM_THREADS="2")
    spins = {name: float(t) for name, t in (line.rsplit(": ", 1) for line in out.splitlines())}
    assert len(spins) == 4
    assert all(t < 0.01 for t in spins.values()), spins


def test_results_do_not_depend_on_the_blas_thread_count():
    script = """
        import numpy as np
        from cubeineq import counterexamples as cx, inequalities as iq
        from cubeineq.cube import random_function
        from cubeineq.norms import lp_norm, rademacher_avg

        print(repr(lp_norm(random_function(20, np.random.default_rng(2)), 2.0)))
        rng = np.random.default_rng(3)
        print(repr(rademacher_avg([random_function(14, rng) for _ in range(4)], 2.0).value))
        print(repr(cx.talagrand_ratio(2**20, 2.0).ratio))
        lq = iq.InequalityInstance("R_BELOW", n=10, p=3, q=3, a=0.5, inner="lq")
        cfg = iq.SearchConfig(trials=1, restarts=1, ascent_steps=1, seed=4)
        print(repr(iq.search_max_ratio(lq, cfg)[0].ratio))
    """
    one, two = (_run(script, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert len(one.splitlines()) == 4
    assert one == two


def _numpy_uses_openblas() -> bool:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return False
    return "openblas" in str(blas).lower()


@pytest.mark.skipif(not _numpy_uses_openblas() or not Path("/proc/self/maps").is_file()
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="reads OpenBLAS's own thread count; its default is one on one core")
@pytest.mark.parametrize("first, env, pinned", [
    ("", {}, True),
    ("", {"OPENBLAS_NUM_THREADS": "2"}, False),
    ("", {"OMP_NUM_THREADS": "2"}, False),
    ("import numpy", {}, False),
], ids=["unset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2", "numpy-first"])
def test_cubeineq_loads_numpy_with_one_blas_thread_when_nothing_chose(first, env, pinned):
    unset = dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    out = _run(f"""
        import ctypes, os
        {first}
        import cubeineq
        with open("/proc/self/maps") as fh:
            libs = sorted({{line.split()[-1] for line in fh if "openblas" in line.lower()}})
        threads = None
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if threads is None and hasattr(lib, symbol):
                    threads = getattr(lib, symbol)()
        print(threads, os.environ.get("OPENBLAS_NUM_THREADS"))
    """, **{**unset, **env})
    threads, variable = out.split()
    assert (int(threads) == 1) == pinned
    assert variable == env.get("OPENBLAS_NUM_THREADS", "None")
