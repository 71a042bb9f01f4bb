"""The package's public surface: the names the CLI, the scripts, the README and the benchmark use."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import monopmf
from monopmf.cli import _atomic_write
from monopmf.experiments import estimate

PUBLIC = [
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
    ("monopmf.experiments", "RiskEstimate"),
    ("monopmf.experiments", "SummaryStats"),
    ("monopmf.limits", "AsymptoticReport"),
])
def test_return_types_import_from_their_modules(module, name):
    assert isinstance(getattr(importlib.import_module(module), name), type)
    assert name not in monopmf.__all__


ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/child.py wraps these names when tracing; it is loaded without
    # writing a bytecode cache next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TRACED
    for _, module, attr in child.TRACED:
        assert module.split(".")[0] == "monopmf"
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert list(inspect.signature(_atomic_write).parameters) == ["path", "text"]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == monopmf.__version__


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert type(namespace["weights"]) is np.ndarray
    assert namespace["y_gren"].shape == (1, 6)


def test_readme_layout_names_every_module():
    layout = re.search(r"## Layout\n\n```\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    named = set(re.findall(r"^  (\w+)\.py ", layout.group(1), re.M))
    modules = {path.stem for path in (ROOT / "src" / "monopmf").glob("*.py")} - {"__init__", "__main__"}
    assert modules <= named, sorted(modules - named)


def test_monotonicity_and_blocks_come_from_the_probabilities():
    # no caller-set flag or partition: Pmf holds its probabilities only, and
    # limit_transform finds the blocks of its pmf argument itself
    assert [f.name for f in dataclasses.fields(monopmf.Pmf)] == ["probs"]
    assert list(inspect.signature(monopmf.parse_pmf).parameters) == ["text"]
    assert list(inspect.signature(monopmf.limit_transform).parameters) == ["y", "p"]


def unused_imports(path: Path) -> list[str]:
    """Names a top-level import of `path` binds that the module never reads;
    a name listed in its `__all__` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(bound - used)


@pytest.mark.parametrize("path", sorted([*(ROOT / "src" / "monopmf").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                                         *(ROOT / "tests").glob("*.py")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_guard_sees_a_leftover_import(tmp_path):
    path = tmp_path / "leftover.py"
    path.write_text("from __future__ import annotations\nimport os.path\nfrom .rng import as_int, mix_seed\n"
                    "import numpy as np\n__all__ = ['mix_seed']\nnp.zeros(1)\n", encoding="utf-8")
    assert unused_imports(path) == ["as_int", "os"]


def test_sample_size_comes_from_the_counts():
    # no n beside the counts: each row's total is its sample size
    assert list(inspect.signature(monopmf.gren_counts).parameters) == ["counts"]
    assert list(inspect.signature(estimate).parameters) == ["kind", "counts"]


def test_config_reads_and_keeps_its_truth():
    # one config reader, from_json, whose config keeps the pmf its check builds; a run takes only the config
    assert not hasattr(monopmf.experiments, "_read_config")
    assert list(inspect.signature(monopmf.run_experiment).parameters) == ["cfg"]
    cfg = monopmf.ExperimentConfig.from_json({"truth": "uniform:3", "n": 10, "reps": 2})
    assert cfg.pmf is cfg.pmf and cfg.pmf.probs.tolist() == [0.25] * 4
