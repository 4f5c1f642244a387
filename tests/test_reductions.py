"""Vector reductions run on one thread with host-independent bits.

OpenBLAS runs a dot of more than 10^4 entries on all its threads, sums in an
order that depends on their count, and leaves a worker spinning for about
0.1 s after the call.  The package keeps BLAS to matrix products and sums
every vector by `cube._dot`; these tests run the large-n paths in a fresh
interpreter, where the BLAS thread count is still read from the environment.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cubeineq


def _run(script: str, **env_vars) -> str:
    src = str(Path(cubeineq.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
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
    """)
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
