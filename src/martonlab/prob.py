"""Joint probability mass functions on two finite alphabets.

A joint's labels are strings so it round-trips through JSON unchanged;
its marginals are plain read-only arrays.  Validation tolerances are
explicit constructor parameters; the default accepts only errors at the
level of float rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, PositivityError, ValidationError

__all__ = ["JointPmf", "mutual_information", "DEFAULT_ATOL"]

DEFAULT_ATOL = 1e-12


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
class JointPmf:
    """Joint distribution on a product of two labelled alphabets.

    ``probs[i, j]`` is the mass on ``(row_labels[i], col_labels[j])``.
    """

    row_labels: tuple
    col_labels: tuple
    probs: np.ndarray
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float).copy()
        if arr.ndim != 2:
            raise ValidationError(f"probabilities must be 2-dimensional, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "row_labels", _check_labels(self.row_labels, arr.shape[0], "JointPmf rows"))
        object.__setattr__(self, "col_labels", _check_labels(self.col_labels, arr.shape[1], "JointPmf cols"))
        _check_mass(arr, self.atol, "JointPmf")

    @property
    def shape(self) -> tuple:
        return self.probs.shape

    def marginals(self) -> tuple:
        """Row and column marginals as read-only arrays, renormalized exactly to 1."""
        return self._marginals

    @functools.cached_property
    def _marginals(self) -> tuple:
        # built once per instance: the joint and both arrays are immutable
        out = []
        for axis, what in ((1, "JointPmf rows marginal"), (0, "JointPmf cols marginal")):
            total = self.probs.sum(axis=axis)
            arr = total / total.sum()
            _check_mass(arr, self.atol, what)
            arr.setflags(write=False)
            out.append(arr)
        return tuple(out)

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
