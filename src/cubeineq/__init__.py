"""Dimension-free inequality toolkit for the Hamming cube.

Spectral operators and probabilistic noise formulas on {-1,1}^n, a catalog
of Riesz/Pisier-type inequality evaluators with ratio search, the classical
counterexample constructions at large n, and the matrix (Schatten-norm)
machinery behind the non-commutative proofs, all verified numerically at
desk scale.

Importing the package can fix the BLAS thread count of the whole process.
When `import cubeineq` is what loads numpy and none of `OPENBLAS_NUM_THREADS`,
`GOTO_NUM_THREADS` and `OMP_NUM_THREADS` is set, numpy loads with one
OpenBLAS thread, and every later matrix product of the process, the caller's
own included, runs on that one thread.  A script whose imports are sorted
alphabetically (isort, ruff) imports cubeineq before numpy and so gets this.
Set `OPENBLAS_NUM_THREADS`, or import numpy first, to keep another count.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# Starting OpenBLAS's thread pool costs about 70 ms of every process start.
# The package's other BLAS calls, which multiply a few operand rows, and the
# quantum checks up to n = 8 measure as fast on one thread; only the 512 and
# 1024 square products and SVDs of `quantum` at n = 9, 10 run 1.3-1.6x slower
# than on two cores (README, Determinism).  So when this package is what loads
# numpy and the environment has not chosen a thread count, numpy loads with
# one BLAS thread; the variable is removed again at once, so child processes
# inherit the caller's environment unchanged.
if "numpy" not in _sys.modules and not _os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .cube import (
    BiCubeFunction,
    CubeFunction,
    VectorCubeFunction,
    apply_multiplier,
    character,
    discrete_derivative,
    frac_power,
    fwht,
    group_translate,
    heat,
    laplacian,
    partial_derivative,
    riesz,
)
from .noise import (
    NoiseParameter,
    SampleBatch,
    exact_noise_expectation,
    mc_noise_expectation,
    symmetrized_tail_integral,
    verify_derivative_representation,
    verify_heat_representation,
)
from .norms import (
    MixedNormSpec,
    RademacherConfig,
    lp_norm,
    mixed_norm,
    rademacher_avg,
    radial_sup_rademacher_moment,
)
from .radial import RadialProfile, krawtchouk_table
from .inequalities import (
    InequalityInstance,
    RatioReport,
    SearchConfig,
    evaluate,
    search_max_ratio,
    sweep,
)
from .counterexamples import (
    GrowthCurve,
    lamberton_ratio,
    pisier_constant_bound,
    pisier_min_constant,
    riesz_above_vector_check,
    talagrand_profile,
    talagrand_ratio,
)
