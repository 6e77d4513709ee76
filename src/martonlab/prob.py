"""Joint probability mass functions on two finite alphabets, and the base
of the values (joints, channels, designs) that compare by their JSON.

A joint's labels are strings so it round-trips through JSON unchanged;
its marginals are plain read-only arrays.  Validation tolerances are
explicit constructor parameters; the default accepts only errors at the
level of float rounding.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, PositivityError, ValidationError

__all__ = ["JointPmf", "mutual_information", "DEFAULT_ATOL"]

DEFAULT_ATOL = 1e-12
# what converting a malformed JSON field raises: tuple(5), int("x"), int(Infinity)
MALFORMED_JSON = (TypeError, ValueError, AttributeError, KeyError, IndexError, OverflowError)


def json_digest(payload) -> str:
    """Canonical sha256 of a JSON-serializable object."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Digested:
    """A frozen value equal to another of its type with the same ``digest``.

    A subclass gives ``to_json`` and ``_json_keys``, the keys its JSON object
    must carry, in the order of its constructor's arguments unless it has
    its own ``_from_json``.
    """

    @functools.cached_property
    def digest(self) -> str:
        """``json_digest`` of ``to_json()``, computed once: the value is frozen."""
        return json_digest(self.to_json())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    @classmethod
    def from_json(cls, data: dict):
        """The value a JSON object describes; a malformed one raises ValidationError."""
        if not isinstance(data, dict) or not set(cls._json_keys) <= data.keys():
            raise ValidationError(f"{cls.__name__} JSON must be an object with "
                                  + ", ".join(map(repr, cls._json_keys)))
        try:
            return cls._from_json(data)
        except ValidationError:
            raise
        except MALFORMED_JSON as exc:
            raise ValidationError(f"{cls.__name__} JSON: malformed field ({exc})") from None

    @classmethod
    def _from_json(cls, data: dict):
        return cls(*(data[key] for key in cls._json_keys))


def _check_labels(labels, what: str, count: int | None = None) -> tuple:
    """``labels``, a list or tuple of distinct strings, at least one, ``count``
    if given, as a tuple; a string is refused, not split into its letters."""
    if not isinstance(labels, (list, tuple)):
        raise ValidationError(f"{what}: labels must be a list, got {type(labels).__name__}")
    labels = tuple(labels)
    if count is not None and len(labels) != count:
        raise ValidationError(f"{what}: {len(labels)} labels for {count} probabilities")
    if not labels or not all(isinstance(x, str) for x in labels) or len(set(labels)) < len(labels):
        raise ValidationError(f"{what}: labels must be distinct strings, at least one")
    return labels


def _check_count(value, what: str) -> int:
    """``value`` as a positive int; a float, a bool or a string is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def _holds_bool(values) -> bool:
    """Whether ``values``, nested lists or arrays, holds a bool anywhere."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_)) or getattr(values, "dtype", None) == bool


def _float_array(values, what: str) -> np.ndarray:
    """A new float array of ``values``, which must be numbers: numpy would
    parse numeric strings and read a bool among numbers as 1 or 0, so values
    it holds as strings, bools or objects, and bools among numbers, are
    refused."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be numbers, got {arr.dtype} values")
    if not isinstance(values, np.ndarray) and _holds_bool(values):
        raise ValidationError(f"{what} must be numbers, got a bool among them")
    return arr.astype(float)


def _check_mass(arr: np.ndarray, atol: float, what: str) -> None:
    if float(arr.min(initial=0.0)) < -atol:
        raise PositivityError(f"{what}: negative probability {arr.min():.3e}")
    total = float(arr.sum())
    if not abs(total - 1.0) <= atol:  # a nan total fails too
        raise NormalizationError(f"{what}: total mass {total!r} differs from 1 by more than {atol}")


@dataclass(frozen=True, eq=False)
class JointPmf(_Digested):
    """Joint distribution on a product of two labelled alphabets.

    ``probs[i, j]`` is the mass on ``(row_labels[i], col_labels[j])``.
    """

    _json_keys = ("row_labels", "col_labels", "probs")

    row_labels: tuple
    col_labels: tuple
    probs: np.ndarray
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        arr = _float_array(self.probs, "JointPmf probabilities")
        if arr.ndim != 2:
            raise ValidationError(f"probabilities must be 2-dimensional, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "row_labels", _check_labels(self.row_labels, "JointPmf rows", arr.shape[0]))
        object.__setattr__(self, "col_labels", _check_labels(self.col_labels, "JointPmf cols", arr.shape[1]))
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
