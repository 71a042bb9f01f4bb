"""Declarative Monte Carlo experiments comparing the three estimators.

An experiment fixes a truth, a sample size, and a replicate count; each
replicate draws a sample, forms the requested estimators (of the pmf or of
its mixing distribution), and records the requested distances from the
truth.  Identical configs produce identical output.

Every Monte Carlo driver, here and in `limits`, is one statistic over one
chunked replicate map (`rng._replicate_blocks`), computed on the rows of a
block of `rng._block_height(width)` replicates at once and stacked by
`rng._replicates`.  The three drivers here enter it through
`_count_replicates`: a row is a sample's K+1 counts
whatever n is, the statistic is built on `estimate` (the one map from an
estimator kind to its operator), and block b's count matrix is one
`sample_counts` call on the seed mix_seed(seed, b): one multinomial call
(count stream 3), or for a truth whose blocks hold one row, one merged
multinomial plus uniform integers for its sparse flat stretches (count
stream 4).  So memory stays bounded in n and in the replicate count, and
each row has the same bits as the replicate computed on its own from that
block's row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .metrics import MetricKind, distance
from .operators import gren_counts, mixing_estimate, rear
from .pmf import (
    DEFAULT_TAIL_TOL,
    Pmf,
    check_sample_size,
    float_label,
    geometric_pmf,
    mixture_of_uniforms,
    sample_counts,
    uniform_pmf,
)
from .rng import _replicate_blocks, _replicates, as_int, as_real, check_seed, mix_seed

#: Slack for the replicate-wise monotone-estimator inequality check; the
#: inequality is exact in real arithmetic.
_INEQ_TOL = 1e-9


class InequalityViolation(RuntimeError):
    """A replicate's rearranged or Grenander estimate is farther from a
    monotone truth than its empirical pmf, which the theory rules out."""


class EstimatorKind(enum.Enum):
    EMPIRICAL = "empirical"
    REARRANGEMENT = "rearrangement"
    GRENANDER = "grenander"

    @staticmethod
    def parse(label: str) -> "EstimatorKind":
        """The kind whose value or short name is `label`, in any case."""
        text = label.strip().lower()
        for kind, name in _SHORT_NAMES.items():
            if text in (kind.value, name):
                return kind
        raise ValueError(f"unknown estimator {label!r}")


#: Each estimator's short name, which the CLI reads and writes, in definition order.
_SHORT_NAMES = dict(zip(EstimatorKind, ("empirical", "rear", "gren")))

DEFAULT_ESTIMATORS = tuple(EstimatorKind)  # all three, in definition order

DEFAULT_METRICS = (
    MetricKind.hellinger(),
    MetricKind.ell(1),
    MetricKind.ell(2),
)


#: Each truth family's pmf constructor and its fields, in constructor and `to_json_dict` order: a
#: field's type, whether it holds one value per mixture component, and its default.  A spec string
#: gives the fields that have no default.
_FAMILIES = {
    "uniform": (uniform_pmf, {"y": (int, False, None)}),
    "geometric": (geometric_pmf, {"theta": (float, False, None), "tail_tol": (float, False, DEFAULT_TAIL_TOL)}),
    "mixture": (mixture_of_uniforms, {"weights": (float, True, None), "ys": (int, True, None)}),
}


@dataclass(frozen=True)
class TruthSpec:
    """Declarative truth: a family of `_FAMILIES` and its fields; a field of
    another family is a ValueError."""

    family: str
    y: int | None = None
    theta: float | None = None
    weights: tuple[float, ...] | None = None
    ys: tuple[int, ...] | None = None
    tail_tol: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown truth family {self.family!r}")
        own = _FAMILIES[self.family][1]
        for name in (f.name for f in fields(self)[1:]):
            if getattr(self, name) is not None and name not in own:
                raise ValueError(f"a {self.family} truth takes no {name!r}")
        for name, (kind, per_component, default) in own.items():
            value = default if getattr(self, name) is None else getattr(self, name)
            if value is not None:
                if per_component and not isinstance(value, (list, tuple, np.ndarray)):
                    raise ValueError(f"{name} must be a list with one value per component, got {value!r}")
                check = partial(as_int if kind is int else as_real, name=name)
                object.__setattr__(self, name, tuple(map(check, value)) if per_component else check(value))

    def to_pmf(self) -> Pmf:
        make, own = _FAMILIES[self.family]
        return make(*(getattr(self, name) for name in own))

    @staticmethod
    def parse(text: str) -> "TruthSpec":
        """Parse "uniform:y", "geometric:theta", "mixture:w1:y1,w2:y2,...": the fields
        with no default, ':'-separated, in a comma list of components if per component."""
        head, _, body = text.strip().partition(":")
        family = head.strip().lower()
        if family not in _FAMILIES:
            raise ValueError(f"unknown truth family in {text!r}")
        given = {name: (kind, per) for name, (kind, per, default) in _FAMILIES[family][1].items() if default is None}
        per_component = any(per for _, per in given.values())
        items = [item.split(":") for item in (body.split(",") if per_component else [body])]
        try:
            if any(len(item) != len(given) for item in items):
                raise ValueError(f"expected {':'.join(given)}" + (" per component" if per_component else ""))
            columns = [tuple(map(kind, column)) for (kind, _), column in zip(given.values(), zip(*items))]
            return TruthSpec(family, **{name: c if per_component else c[0] for name, c in zip(given, columns)})
        except (ValueError, TypeError) as exc:
            raise ValueError(f"malformed truth spec {text!r}: {exc}") from None

    @property
    def label(self) -> str:
        """The spec string `parse` reads back as this truth."""
        columns = []
        for name, (kind, per_component, default) in _FAMILIES[self.family][1].items():
            if default is None:
                values = getattr(self, name) if per_component else (getattr(self, name),)
                columns.append([float_label(v) if kind is float else str(v) for v in values])
        return f"{self.family}:" + ",".join(map(":".join, zip(*columns)))

    def to_json_dict(self) -> dict:
        out = {"family": self.family}
        for name in _FAMILIES[self.family][1]:
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    truth: TruthSpec
    n: int
    reps: int
    seed: int
    estimators: tuple[EstimatorKind, ...] = DEFAULT_ESTIMATORS
    metrics: tuple[MetricKind, ...] = DEFAULT_METRICS
    target: str = "pmf"  # "pmf" or "mixing"

    def __post_init__(self):
        object.__setattr__(self, "n", check_sample_size(self.n))
        object.__setattr__(self, "reps", as_int(self.reps, "reps"))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if not self.estimators or not self.metrics:
            raise ValueError("estimator and metric sets must be non-empty")
        labels = {"estimator": [e.value for e in self.estimators], "metric": [m.label for m in self.metrics]}
        for kind, names in labels.items():
            if len(set(names)) < len(names):
                raise ValueError(f"{kind} {max(names, key=names.count)!r} given more than once")
        if self.target not in ("pmf", "mixing"):
            raise ValueError("target must be 'pmf' or 'mixing'")
        if (
            self.target == "mixing"
            and EstimatorKind.EMPIRICAL in self.estimators
            and any(m.name == "hellinger" for m in self.metrics)
        ):
            raise ValueError(
                "the Hellinger distance is undefined for empirical mixing weights, "
                "which can be negative; drop 'empirical' or 'hellinger' for target 'mixing'"
            )

    def to_json(self) -> dict:
        """The fields as a run's _meta.json records them."""
        return {
            "truth": self.truth.to_json_dict(),
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "estimators": [e.value for e in self.estimators],
            "metrics": [m.label for m in self.metrics],
            "target": self.target,
        }

    @cached_property
    def pmf(self) -> Pmf:
        """The truth's pmf, built on first use and then kept."""
        return self.truth.to_pmf()

    @staticmethod
    def from_json(data) -> "ExperimentConfig":
        """The config of a JSON object in the format of `to_json` (the truth may
        also be a spec string; other keys are ignored).  A bad truth, field or
        sample size is a ValueError raised before any work; checking the sample
        size builds the truth's pmf, which the config keeps for its run."""
        if not isinstance(data, dict):
            raise ValueError(f"the config must be a JSON object, got {type(data).__name__}")
        for key, kind in (("estimators", "estimator"), ("metrics", "metric")):
            names = data.get(key, [])
            if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
                raise ValueError(f"{key} must be a list of {kind} names, got {names!r}")
        try:
            truth = data["truth"]
            if not isinstance(truth, (str, dict)):
                raise ValueError(f"truth must be a spec string or an object, got {truth!r}")
            if isinstance(truth, dict):
                if "family" not in truth:
                    raise ValueError("truth needs a 'family'")
                known = {f.name for f in fields(TruthSpec)}
                for key in truth:
                    if key not in known:
                        raise ValueError(f"unknown truth field {key!r}")
            config = ExperimentConfig(
                truth=TruthSpec.parse(truth) if isinstance(truth, str) else TruthSpec(**truth),
                n=data["n"],
                reps=data["reps"],
                seed=data.get("seed", 0),
                estimators=tuple(EstimatorKind.parse(e) for e in data.get("estimators", [])) or DEFAULT_ESTIMATORS,
                metrics=tuple(MetricKind.parse(m) for m in data.get("metrics", [])) or DEFAULT_METRICS,
                target=data.get("target", "pmf"),
            )
            _check_sample_size(config.n, config.pmf.support_size, config.estimators)
            return config
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        except (AttributeError, OverflowError, TypeError) as exc:
            raise ValueError(str(exc)) from None


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    min: float
    q1: float
    median: float
    q3: float
    max: float


@dataclass(frozen=True)
class ExperimentSummary:
    """Replicate-level distances plus per-(estimator, metric) statistics.

    `raw` has shape (reps, n_estimators, n_metrics) in config order.
    Quartiles use the median-unbiased quantile definition.
    """

    config: ExperimentConfig
    raw: np.ndarray
    stats: dict[tuple[str, str], SummaryStats] = field(repr=False)

    def stat(self, est: EstimatorKind, metric: MetricKind) -> SummaryStats:
        return self.stats[(est.value, metric.label)]


def _summarize(cfg: ExperimentConfig, raw: np.ndarray) -> ExperimentSummary:
    """Statistics of each (estimator, metric) column of `raw`.

    The columns are copied once into contiguous rows, whose mean and std
    have the bits of the column's own.  The rows are then sorted in place,
    NaN last, which gives all five order statistics: min, max and the
    quartiles of Hyndman & Fan's type 8, interpolated by numpy's
    "median_unbiased" rule (its virtual index, end clamps and two-sided
    lerp), so each has the bits of np.quantile, min and max column by
    column.  A column holding NaN gives NaN throughout.
    """
    rows = raw.reshape(len(raw), -1).T.copy()
    reps = rows.shape[1]
    mean = rows.mean(axis=1)
    std = rows.std(axis=1, ddof=1) if reps > 1 else np.zeros(len(rows))
    rows.sort(axis=1)
    nan = np.isnan(rows[:, -1])
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        v = reps * q + (1 / 3.0 + q * (1 - 1 / 3.0 - 1 / 3.0)) - 1  # numpy's bits: not 1 - 2/3
        i = -1 if v >= reps - 1 else 0 if v < 0 else math.floor(v)
        a, b = rows[:, i], rows[:, i + 1 if 0 <= v < reps - 1 else i]
        g = v - i
        d = b - a
        quartiles.append(np.where(nan, rows[:, -1], b - d * (1 - g) if g >= 0.5 else a + d * g))
    columns = zip(mean, std, np.where(nan, rows[:, -1], rows[:, 0]), *quartiles, rows[:, -1])
    keys = [(est.value, metric.label) for est in cfg.estimators for metric in cfg.metrics]
    stats = {key: SummaryStats(*map(float, values)) for key, values in zip(keys, columns)}
    return ExperimentSummary(config=cfg, raw=raw, stats=stats)


def estimate(kind: EstimatorKind, counts) -> np.ndarray:
    """Estimator `kind` of the samples whose integer counts are the rows of
    `counts`, of size n their totals: counts / n, the counts sorted and then
    divided (the bits of rear(counts / n)), or the exact Grenander `gren_counts`."""
    if kind is EstimatorKind.EMPIRICAL:
        return counts / counts.sum(axis=-1, keepdims=True)
    if kind is EstimatorKind.REARRANGEMENT:
        return rear(counts) / counts.sum(axis=-1, keepdims=True)
    if kind is EstimatorKind.GRENANDER:
        return gren_counts(counts)[0]
    raise ValueError(f"unknown estimator {kind!r}")


def _check_sample_size(n: int, support_size: int, kinds) -> None:
    """ValueError unless `check_sample_size` takes n and, where `kinds` holds the Grenander, n * support_size < 2^63
    (`gren_counts`' int64 bound); every command checks a truth before any draw, and a counts file as it is read."""
    check_sample_size(n)
    if EstimatorKind.GRENANDER in kinds and n * support_size >= 1 << 63:
        raise ValueError(f"the Grenander estimator needs n * (K+1) < 2^63, got n = {n} and K+1 = {support_size}")


def _count_replicates(truth: Pmf, n: int, seed: int, reps: int, kinds, stat) -> np.ndarray:
    """`stat` of the count rows of replicates 0..reps-1 on the replicate map, block b's rows being
    `sample_counts` on the seed mix_seed(seed, b); numpy's rows do not depend on how many follow, so
    replicate i's counts depend on (seed, i, n, truth, B), not reps.  n is checked before any draw."""
    _check_sample_size(n, truth.support_size, kinds)
    blocks = _replicate_blocks(truth.support_size, reps, lambda b, rows: sample_counts(truth, n, mix_seed(seed, b), rows))
    return _replicates(map(stat, blocks), reps)


def replicate_distances(cfg: ExperimentConfig, reference: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Distances of each estimator of each sample from `reference`.

    `reference` is the truth's pmf, or for target "mixing" its mixing
    weights; `counts` has shape (rows, width), each row the integer counts
    of one sample, of size n its total, and rows of another width are
    compared as if zero-padded.  Returns a (rows, estimators, metrics) array.
    """
    vectors = np.stack([estimate(kind, counts) for kind in cfg.estimators], axis=1)
    if cfg.target == "mixing":
        vectors = mixing_estimate(vectors)
    out = np.empty(vectors.shape[:2] + (len(cfg.metrics),))
    for m, metric in enumerate(cfg.metrics):
        out[:, :, m] = distance(vectors, reference, metric)
    return out


def _check_inequality(cfg: ExperimentConfig, raw: np.ndarray) -> None:
    """Raise if rear or gren is farther from the truth than empirical.

    `raw` is the (reps, estimators, metrics) array of a run; the first
    violation in replicate, metric, config estimator order is reported.
    """
    emp = raw[:, cfg.estimators.index(EstimatorKind.EMPIRICAL), :]
    hits = np.argwhere(raw.transpose(0, 2, 1) > (emp + _INEQ_TOL)[:, :, None])
    if hits.size:
        row, m, e = hits[0]
        raise InequalityViolation(
            f"monotone-estimator inequality violated at replicate {row}: "
            f"{cfg.estimators[e].value} {cfg.metrics[m].label} distance {float(raw[row, e, m])!r} exceeds "
            f"empirical {float(emp[row, m])!r}"
        )


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run all replicates of cfg and aggregate the distances.

    The truth's pmf is `cfg.pmf`, built once per config (by
    `ExperimentConfig.from_json`'s check, or here on first use).  For target
    "mixing" the estimators are pushed through the mixing recovery formula and
    compared against the true mixing weights.  Every spec builds a monotone
    truth, so for target "pmf" each replicate is checked against the exact
    guarantee that the rearranged and Grenander estimators are no farther from
    the truth than the empirical one.
    """
    truth = cfg.pmf
    reference = mixing_estimate(truth) if cfg.target == "mixing" else truth.probs
    stat = partial(replicate_distances, cfg, reference)
    raw = _count_replicates(truth, cfg.n, cfg.seed, cfg.reps, cfg.estimators, stat)
    if cfg.target == "pmf" and EstimatorKind.EMPIRICAL in cfg.estimators:
        _check_inequality(cfg, raw)
    return _summarize(cfg, raw)


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo estimate of the expected l_k^k loss (sup loss for k=inf)."""

    value: float
    se: float


def estimate_risk(
    truth: Pmf,
    n: int,
    k: float,
    est: EstimatorKind,
    reps: int,
    seed: int,
) -> RiskEstimate:
    """Monte Carlo mean and standard error of the l_k^k loss at `truth`."""
    n, reps = as_int(n, "n"), as_int(reps, "reps")
    if reps < 2:
        raise ValueError("risk estimation needs at least two replicates")
    k = as_real(k, "k")
    if not (k >= 1.0):
        raise ValueError("loss order k must satisfy k >= 1")

    def loss(counts):
        diff = np.abs(estimate(est, counts) - truth.probs)
        return diff.max(axis=1) if math.isinf(k) else np.sum(diff**k, axis=1)

    losses = _count_replicates(truth, n, seed, reps, (est,), loss)
    return RiskEstimate(value=float(losses.mean()), se=float(losses.std(ddof=1) / math.sqrt(reps)))


def fluctuation_cdf(
    truth: Pmf,
    x: int,
    n: int,
    reps: int,
    seed: int,
    est: EstimatorKind,
) -> np.ndarray:
    """Sorted replicate values of sqrt(n) * (estimate_x - truth_x): the i-th
    (from 0) is where the empirical CDF of the replicates reaches (i+1)/reps."""
    n, x = check_sample_size(n), as_int(x, "x")
    if not 0 <= x <= truth.support_max:
        raise ValueError("x must lie inside the truth support")
    root_n = math.sqrt(n)
    px = float(truth.probs[x])
    vals = _count_replicates(truth, n, seed, reps, (est,), lambda counts: root_n * (estimate(est, counts)[:, x] - px))
    vals.sort()
    return vals
