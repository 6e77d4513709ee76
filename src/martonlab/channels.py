"""Broadcast channels and input designs.

A broadcast channel carries one input to two receivers.  The classical
kind stores p(y, z | x); the classical-quantum kind stores a bipartite
state on B tensor C per input symbol.  An input design fixes the
auxiliary joint p(u, v) and the deterministic map f(u, v) to channel
inputs; together with a channel it induces every joint object the
coding layer needs.  Symbols are strings everywhere so designs and
channels serialize to JSON losslessly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .prob import (
    DEFAULT_ATOL,
    JointPmf,
    _check_count,
    _check_labels,
    _check_mass,
    _Digested,
    _float_array,
)
from .quantum import DensityOperator, matrix_from_json, matrix_to_json, partial_trace

__all__ = [
    "ClassicalBroadcastChannel",
    "CqBroadcastChannel",
    "InputDesign",
    "ProductClassicalChannel",
    "build_classical_joints",
    "bob_ensemble",
    "charlie_ensemble",
    "channel_from_json",
]


class _BroadcastChannel(_Digested):
    """What both channel kinds share: an input alphabet ``x_alphabet``."""

    def x_index(self, x: str) -> int:
        try:
            return self.x_alphabet.index(x)
        except ValueError:
            raise ValidationError(f"unknown input symbol {x!r}") from None


@dataclass(frozen=True, eq=False)
class ClassicalBroadcastChannel(_BroadcastChannel):
    """One sender, two receivers, transition p(y, z | x)."""

    _json_keys = ("x_alphabet", "y_alphabet", "z_alphabet", "p")

    x_alphabet: tuple
    y_alphabet: tuple
    z_alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        for name in ("x_alphabet", "y_alphabet", "z_alphabet"):
            object.__setattr__(self, name, _check_labels(getattr(self, name), name))
        arr = _float_array(self.probs, "transition probabilities")
        shape = (len(self.x_alphabet), len(self.y_alphabet), len(self.z_alphabet))
        if arr.shape != shape:
            raise ValidationError(f"transition shape {arr.shape} does not match alphabets {shape}")
        for x, plane in zip(self.x_alphabet, arr):
            _check_mass(plane, DEFAULT_ATOL, f"p(y,z|x={x})")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def marginals(self) -> tuple:
        """(p(y | x), p(z | x)) as (X, Y) and (X, Z) matrices."""
        return self.probs.sum(axis=2), self.probs.sum(axis=1)

    def to_json(self) -> dict:
        return {
            "type": "classical",
            "x_alphabet": list(self.x_alphabet),
            "y_alphabet": list(self.y_alphabet),
            "z_alphabet": list(self.z_alphabet),
            "p": [[[float(v) for v in row] for row in plane] for plane in self.probs],
        }


@dataclass(frozen=True, eq=False)
class CqBroadcastChannel(_BroadcastChannel):
    """One classical input, a bipartite quantum state on B tensor C per symbol."""

    _json_keys = ("x_alphabet", "dim_b", "dim_c", "states")

    x_alphabet: tuple
    dim_b: int
    dim_c: int
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet", _check_labels(self.x_alphabet, "x_alphabet"))
        db, dc = _check_count(self.dim_b, "dim_b"), _check_count(self.dim_c, "dim_c")
        object.__setattr__(self, "dim_b", db)
        object.__setattr__(self, "dim_c", dc)
        states = tuple(s if isinstance(s, DensityOperator) else DensityOperator(s) for s in self.states)
        if len(states) != len(self.x_alphabet):
            raise ValidationError(f"{len(states)} states for {len(self.x_alphabet)} input symbols")
        for x, s in zip(self.x_alphabet, states):
            if s.dim != db * dc:
                raise ValidationError(f"state for {x!r} has dim {s.dim}, expected {db * dc}")
        object.__setattr__(self, "states", states)

    def rho_b(self, x: str) -> np.ndarray:
        """Reduced state on B for input ``x``; read-only, shared by all callers."""
        return self._reduced[0][self.x_index(x)]

    def rho_c(self, x: str) -> np.ndarray:
        """Reduced state on C for input ``x``; read-only, shared by all callers."""
        return self._reduced[1][self.x_index(x)]

    @functools.cached_property
    def _reduced(self) -> tuple:
        # (B states, C states) in alphabet order, traced once per channel
        out = []
        for keep in ((0,), (1,)):
            side = tuple(partial_trace(s.matrix, (self.dim_b, self.dim_c), keep) for s in self.states)
            for rho in side:
                rho.setflags(write=False)
            out.append(side)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "type": "cq",
            "x_alphabet": list(self.x_alphabet),
            "dim_b": self.dim_b,
            "dim_c": self.dim_c,
            "states": {x: matrix_to_json(s.matrix) for x, s in zip(self.x_alphabet, self.states)},
        }

    @classmethod
    def _from_json(cls, data: dict) -> "CqBroadcastChannel":
        xs = _check_labels(data["x_alphabet"], "x_alphabet")
        missing = [x for x in xs if x not in data["states"]]
        if missing:
            raise ValidationError(f"states missing for symbols {missing}")
        states = tuple(DensityOperator(matrix_from_json(data["states"][x])) for x in xs)
        return cls(xs, data["dim_b"], data["dim_c"], states)


def channel_from_json(data: dict):
    """Dispatch on the 'type' tag."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError("channel JSON needs a 'type' tag")
    if data["type"] == "classical":
        return ClassicalBroadcastChannel.from_json(data)
    if data["type"] == "cq":
        return CqBroadcastChannel.from_json(data)
    raise ValidationError(f"unknown channel type {data['type']!r}")


@dataclass(frozen=True, eq=False)
class InputDesign(_Digested):
    """Auxiliary joint p(u, v) and deterministic input map f(u, v)."""

    _json_keys = ("uv", "f")

    joint: JointPmf
    f: dict

    def __post_init__(self):
        fmap = {}
        for key, x in dict(self.f).items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(isinstance(label, str) for label in key)):
                raise ValidationError(f"f keys must be (u, v) pairs of labels, got {key!r}")
            if "," in key[0] or "," in key[1]:
                # the JSON keys 'u,v' cannot hold it, and a design needs its JSON for its digest
                raise ValidationError("labels containing ',' cannot use the 'u,v' key encoding")
            if not isinstance(x, str):
                raise ValidationError(f"f values must be input symbols, got {x!r}")
            fmap[key] = x
        p = self.joint.probs
        for i, u in enumerate(self.joint.row_labels):
            for j, v in enumerate(self.joint.col_labels):
                if p[i, j] > 0.0 and (u, v) not in fmap:
                    raise ValidationError(f"f undefined on support cell ({u!r}, {v!r})")
        object.__setattr__(self, "f", fmap)

    def x_indices(self, channel) -> np.ndarray:
        """f as channel input indices over the (u, v) grid, -1 where f is undefined."""
        out = np.full(self.joint.shape, -1, dtype=np.int64)
        for i, u in enumerate(self.joint.row_labels):
            for j, v in enumerate(self.joint.col_labels):
                if (u, v) in self.f:
                    out[i, j] = channel.x_index(self.f[(u, v)])
        return out

    def to_json(self) -> dict:
        return {
            "uv": self.joint.to_json(),
            "f": {f"{u},{v}": x for (u, v), x in self.f.items()},
        }

    @classmethod
    def _from_json(cls, data: dict) -> "InputDesign":
        fmap = {}
        for key, x in data["f"].items():
            parts = key.split(",")
            if len(parts) != 2:
                raise ValidationError(f"f key {key!r} is not 'u,v'")
            fmap[(parts[0], parts[1])] = x
        return cls(JointPmf.from_json(data["uv"]), fmap)


def _mix(channel, design: InputDesign, side: int, kernel: np.ndarray) -> np.ndarray:
    """Row i holds sum_j p[i, j] * kernel[f[i, j]], added over the positive
    cells of row i in ascending j, where i is the register of ``side`` (0: u,
    1: v) and j the other one."""
    probs, fx = design.joint.probs, design.x_indices(channel)
    if side:
        probs, fx = probs.T, fx.T
    out = np.zeros((probs.shape[0],) + kernel.shape[1:], dtype=kernel.dtype)
    for i, j in np.argwhere(probs > 0.0):
        out[i] += probs[i, j] * kernel[fx[i, j]]
    return out


def build_classical_joints(channel: ClassicalBroadcastChannel, design: InputDesign):
    """Joints p(u, y) and p(v, z) induced by a design on a classical channel."""
    sides = zip((design.joint.row_labels, design.joint.col_labels),
                (channel.y_alphabet, channel.z_alphabet), channel.marginals())
    return tuple(JointPmf(labels, outputs, _mix(channel, design, side, trans), atol=1e-9)
                 for side, (labels, outputs, trans) in enumerate(sides))


def _ensemble(channel: CqBroadcastChannel, design: InputDesign, side: int):
    """One receiver's register pmf and conditional states, averaged over the
    other register: side 0 is Bob (u, states on B), side 1 Charlie (v, on C)."""
    marginal = design.joint.probs.sum(axis=1 - side)
    reduced = channel.rho_c if side else channel.rho_b
    mixed = _mix(channel, design, side, np.stack([reduced(x) for x in channel.x_alphabet]))
    return marginal, [acc / m if m > 0.0 else acc for acc, m in zip(mixed, marginal)]


def bob_ensemble(channel: CqBroadcastChannel, design: InputDesign):
    """Register distribution p(u) and conditional B states, averaged over v."""
    return _ensemble(channel, design, 0)


def charlie_ensemble(channel: CqBroadcastChannel, design: InputDesign):
    """Register distribution p(v) and conditional C states, averaged over u."""
    return _ensemble(channel, design, 1)


class ProductClassicalChannel:
    """Lazy per-symbol view of an n-fold classical channel.

    Never materializes product alphabets; inputs and outputs are arrays
    of per-symbol indices into the base alphabets.
    """

    def __init__(self, base: ClassicalBroadcastChannel, n: int):
        if n < 1:
            raise ValidationError(f"n must be positive, got {n}")
        self.base = base
        self.n = int(n)
        flat = base.probs.reshape(len(base.x_alphabet), -1)
        self._cdf = np.cumsum(flat, axis=1)
        self._cdf[:, -1] = 1.0
        self._nz = len(base.z_alphabet)

    def sample_outputs(self, x_indices: np.ndarray, uniforms: np.ndarray):
        """Per-symbol (y, z) index arrays for inputs of any shape, driven by
        ``uniforms``, one per input symbol and shaped like ``x_indices``."""
        x_indices = np.asarray(x_indices)
        u = np.asarray(uniforms)
        flat = np.empty(x_indices.shape, dtype=np.int64)
        # the letters present, ascending: np.unique's values, without the
        # masked-array check through which np.unique imports numpy.ma
        for xi in np.flatnonzero(np.bincount(x_indices.ravel())):
            mask = x_indices == xi
            flat[mask] = np.searchsorted(self._cdf[xi], u[mask], side="right")
        return flat // self._nz, flat % self._nz
