"""Estimation of discrete monotone probability mass functions.

Three estimators of a non-increasing pmf on {0, ..., K} — the raw
empirical frequencies, their monotone rearrangement, and the Grenander
(least-concave-majorant) maximum likelihood estimator — together with
Hellinger/l_k metrics, mixing-distribution recovery, simulators for the
Gaussian limit fluctuations, closed-form asymptotic efficiencies, and a
reproducible Monte Carlo harness.
"""

from .experiments import (
    EstimatorKind,
    ExperimentConfig,
    ExperimentSummary,
    TruthSpec,
    estimate_risk,
    fluctuation_cdf,
    run_experiment,
)
from .limits import (
    asymptotics,
    draw_limit_batch,
    gren_zero_probability,
    harmonic,
    touch_count,
)
from .metrics import MetricKind, distance
from .operators import (
    constancy_blocks,
    gren,
    gren_counts,
    limit_transform,
    mixing_estimate,
    rear,
)
from .pmf import (
    Pmf,
    empirical_pmf,
    format_counts,
    format_pmf,
    geometric_pmf,
    mixture_of_uniforms,
    parse_counts,
    parse_pmf,
    sample,
    uniform_pmf,
)
from .rng import mix_seed

__version__ = "0.3.0"

__all__ = [
    "EstimatorKind",
    "ExperimentConfig",
    "ExperimentSummary",
    "MetricKind",
    "Pmf",
    "TruthSpec",
    "asymptotics",
    "constancy_blocks",
    "distance",
    "draw_limit_batch",
    "empirical_pmf",
    "estimate_risk",
    "fluctuation_cdf",
    "format_counts",
    "format_pmf",
    "geometric_pmf",
    "gren",
    "gren_counts",
    "gren_zero_probability",
    "harmonic",
    "limit_transform",
    "mix_seed",
    "mixing_estimate",
    "mixture_of_uniforms",
    "parse_counts",
    "parse_pmf",
    "rear",
    "run_experiment",
    "sample",
    "touch_count",
    "uniform_pmf",
]
