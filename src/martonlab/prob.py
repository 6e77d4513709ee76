"""Finite probability mass functions over labelled alphabets.

Labels are strings throughout so every object round-trips through JSON
unchanged.  Validation tolerances are explicit constructor parameters;
the default accepts only errors at the level of float rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, PositivityError, ValidationError

__all__ = ["Pmf", "JointPmf", "mutual_information", "DEFAULT_ATOL"]

DEFAULT_ATOL = 1e-12


def _as_prob_array(probs, ndim: int) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"probabilities must be {ndim}-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_labels(labels, count: int, what: str) -> tuple:
    labels = tuple(labels)
    if len(labels) != count:
        raise ValidationError(f"{what}: {len(labels)} labels for {count} probabilities")
    if any(not isinstance(x, str) for x in labels):
        raise ValidationError(f"{what}: labels must be strings")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{what}: duplicate labels")
    return labels


def _check_mass(arr: np.ndarray, atol: float, what: str) -> None:
    if float(arr.min(initial=0.0)) < -atol:
        raise PositivityError(f"{what}: negative probability {arr.min():.3e}")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise NormalizationError(f"{what}: total mass {total!r} differs from 1 by more than {atol}")


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a finite labelled alphabet."""

    labels: tuple
    probs: np.ndarray
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        arr = _as_prob_array(self.probs, 1)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "labels", _check_labels(self.labels, arr.size, "Pmf"))
        _check_mass(arr, self.atol, "Pmf")

    def __len__(self) -> int:
        return len(self.labels)

    def cdf(self) -> np.ndarray:
        c = np.cumsum(self.probs)
        c[-1] = 1.0
        return c

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "probs": [float(p) for p in self.probs]}

    @classmethod
    def from_json(cls, data: dict, atol: float = DEFAULT_ATOL) -> "Pmf":
        if not isinstance(data, dict) or "labels" not in data or "probs" not in data:
            raise ValidationError("Pmf JSON must be an object with 'labels' and 'probs'")
        return cls(tuple(data["labels"]), np.asarray(data["probs"], dtype=float), atol)


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution on a product of two labelled alphabets.

    ``probs[i, j]`` is the mass on ``(row_labels[i], col_labels[j])``.
    """

    row_labels: tuple
    col_labels: tuple
    probs: np.ndarray
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        arr = _as_prob_array(self.probs, 2)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "row_labels", _check_labels(self.row_labels, arr.shape[0], "JointPmf rows"))
        object.__setattr__(self, "col_labels", _check_labels(self.col_labels, arr.shape[1], "JointPmf cols"))
        _check_mass(arr, self.atol, "JointPmf")

    @property
    def shape(self) -> tuple:
        return self.probs.shape

    def marginals(self) -> tuple:
        """Row and column marginal pmfs, renormalized exactly to 1."""
        return self._marginals

    @functools.cached_property
    def _marginals(self) -> tuple:
        # built once per instance: the joint and both Pmfs are immutable
        row = self.probs.sum(axis=1)
        col = self.probs.sum(axis=0)
        return (
            Pmf(self.row_labels, row / row.sum(), self.atol),
            Pmf(self.col_labels, col / col.sum(), self.atol),
        )

    def to_json(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "probs": [[float(p) for p in row] for row in self.probs],
        }

    @classmethod
    def from_json(cls, data: dict, atol: float = DEFAULT_ATOL) -> "JointPmf":
        needed = {"row_labels", "col_labels", "probs"}
        if not isinstance(data, dict) or not needed.issubset(data):
            raise ValidationError("JointPmf JSON must be an object with 'row_labels', 'col_labels', 'probs'")
        return cls(tuple(data["row_labels"]), tuple(data["col_labels"]), np.asarray(data["probs"], dtype=float), atol)


def mutual_information(joint: JointPmf) -> float:
    """Mutual information of a joint pmf, in bits.

    Terms with zero joint mass contribute zero.  A cell with positive
    joint mass but zero marginal mass cannot occur in a valid JointPmf.
    """
    p = joint.probs
    pu = p.sum(axis=1, keepdims=True)
    pv = p.sum(axis=0, keepdims=True)
    mask = p > 0.0
    ratio = np.divide(p, pu * pv, out=np.ones_like(p), where=mask)
    if np.any(mask & ~(ratio > 0.0)):
        raise PositivityError("joint mass outside the product of its marginals' supports")
    return float(np.sum(p[mask] * np.log2(ratio[mask])))
