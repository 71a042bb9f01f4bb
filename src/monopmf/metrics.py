"""Distances between finite pmfs: Hellinger and the l_k family.

Sequences of unequal length are zero-padded on the right before the
distance is taken, so estimators with short observed support compare
cleanly against truths with longer support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pmf import float_label
from .rng import as_real


@dataclass(frozen=True)
class MetricKind:
    """Selector for a distance: Hellinger or l_k with k in [1, inf]."""

    name: str  # "hellinger" or "ell"
    k: float = math.nan

    def __post_init__(self):
        if self.name == "hellinger":
            return
        if self.name != "ell":
            raise ValueError(f"unknown metric {self.name!r}")
        object.__setattr__(self, "k", as_real(self.k, "k"))
        if not (self.k >= 1.0):  # also rejects nan
            raise ValueError("l_k metrics require k >= 1")

    @staticmethod
    def hellinger() -> "MetricKind":
        return MetricKind("hellinger")

    @staticmethod
    def ell(k: float) -> "MetricKind":
        return MetricKind("ell", k)

    @staticmethod
    def parse(label: str) -> "MetricKind":
        """Parse a metric label: "hellinger", "l1", "l2", "linf", "l{k}"."""
        text = label.strip().lower()
        if text == "hellinger":
            return MetricKind.hellinger()
        if text.startswith("l"):
            body = text[1:]
            if body == "inf":
                return MetricKind.ell(math.inf)
            try:
                return MetricKind.ell(float(body))
            except ValueError:
                pass
        raise ValueError(f"unknown metric label {label!r}")

    @property
    def label(self) -> str:
        if self.name == "hellinger":
            return "hellinger"
        if math.isinf(self.k):
            return "linf"
        return f"l{int(self.k)}" if self.k == int(self.k) else f"l{float_label(self.k)}"


def _padded(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim == 0 or y.ndim == 0:
        raise ValueError("distance expects sequences")
    n = max(x.shape[-1], y.shape[-1])
    if x.shape[-1] < n:
        x = np.concatenate((x, np.zeros(x.shape[:-1] + (n - x.shape[-1],))), axis=-1)
    if y.shape[-1] < n:
        y = np.concatenate((y, np.zeros(y.shape[:-1] + (n - y.shape[-1],))), axis=-1)
    return x, y


def distance(a, b, m: MetricKind):
    """Distance between sequences a and b under metric m.

    Hellinger returns H with H^2 = (1/2) * sum (sqrt(a) - sqrt(b))^2 and
    requires non-negative entries; ell(k) returns the k-norm of a - b and
    ell(inf) the sup norm.  Stacks of sequences (shape (..., L)) are
    compared along the last axis with broadcasting over the leading axes,
    giving an array of distances; two plain sequences give a float.  Each
    distance has the same bits as the one of the two rows taken alone.
    """
    x, y = _padded(a, b)
    if m.name == "hellinger":
        if np.any(x < 0) or np.any(y < 0):
            raise ValueError("Hellinger distance requires non-negative entries")
        d = np.sqrt(0.5 * np.sum((np.sqrt(x) - np.sqrt(y)) ** 2, axis=-1))
    else:
        diff = np.abs(x - y)
        if math.isinf(m.k):
            d = diff.max(axis=-1)
        elif m.k == 1.0:
            d = diff.sum(axis=-1)
        elif m.k == 2.0:
            d = np.sqrt(np.sum(diff * diff, axis=-1))
        else:
            # the root is taken per element as a scalar pow: numpy's
            # vectorised pow differs from it in the last bit on some inputs
            sums = np.sum(diff**m.k, axis=-1)
            root = 1.0 / m.k
            d = np.reshape([s**root for s in np.ravel(sums).tolist()], sums.shape)
    return float(d) if d.ndim == 0 else d
