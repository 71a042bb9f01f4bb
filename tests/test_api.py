"""The package's public surface: the names the CLI, the scripts and the README use."""

import importlib

import pytest

import monopmf

PUBLIC = [
    "Counts",
    "EstimatorKind",
    "ExperimentConfig",
    "ExperimentSummary",
    "MetricKind",
    "Pmf",
    "TruthSpec",
    "asymptotics",
    "constancy_blocks",
    "distance",
    "draw_limit",
    "draw_limit_batch",
    "empirical_pmf",
    "estimate_risk",
    "fluctuation_cdf",
    "format_counts",
    "format_pmf",
    "geometric_pmf",
    "gren",
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


def test_all_is_the_public_list_and_resolves():
    assert sorted(monopmf.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(monopmf, name) is not None


@pytest.mark.parametrize("module", ["monopmf", "monopmf.operators", "monopmf.limits"])
def test_test_references_are_not_in_the_package(module):
    mod = importlib.import_module(module)
    assert not hasattr(mod, "gren_oracle")
    assert not hasattr(mod, "flat_block_gren_reference")


@pytest.mark.parametrize("module,name", [
    ("monopmf.experiments", "FluctuationCdf"),
    ("monopmf.experiments", "RiskEstimate"),
    ("monopmf.experiments", "SummaryStats"),
    ("monopmf.limits", "LimitDraw"),
    ("monopmf.limits", "AsymptoticReport"),
    ("monopmf.pmf", "MixingWeights"),
])
def test_return_types_import_from_their_modules(module, name):
    assert isinstance(getattr(importlib.import_module(module), name), type)
    assert name not in monopmf.__all__
