"""Dimension-free inequality toolkit for the Hamming cube.

Spectral operators and probabilistic noise formulas on {-1,1}^n, a catalog
of Riesz/Pisier-type inequality evaluators with ratio search, the classical
counterexample constructions at large n, and the matrix (Schatten-norm)
machinery behind the non-commutative proofs, all verified numerically at
desk scale.
"""

__version__ = "0.1.0"

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
from .radial import RadialProfile, krawtchouk_table, radial_apply_multiplier
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
