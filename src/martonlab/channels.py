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
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, PositivityError, ValidationError
from .prob import DEFAULT_ATOL, JointPmf
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


def json_digest(payload) -> str:
    """Canonical sha256 of a JSON-serializable object."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Digested:
    """A frozen object whose content digest is computed once."""

    @functools.cached_property
    def digest(self) -> str:
        """``json_digest`` of ``to_json()``; the object is frozen and its
        arrays are read-only, so the first value holds for its lifetime."""
        return json_digest(self.to_json())


def _check_alphabet(labels, what: str) -> tuple:
    labels = tuple(labels)
    if not labels:
        raise ValidationError(f"{what} alphabet is empty")
    if any(not isinstance(x, str) for x in labels):
        raise ValidationError(f"{what} alphabet labels must be strings")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{what} alphabet has duplicate labels")
    return labels


@dataclass(frozen=True)
class ClassicalBroadcastChannel(_Digested):
    """One sender, two receivers, transition p(y, z | x)."""

    x_alphabet: tuple
    y_alphabet: tuple
    z_alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet", _check_alphabet(self.x_alphabet, "X"))
        object.__setattr__(self, "y_alphabet", _check_alphabet(self.y_alphabet, "Y"))
        object.__setattr__(self, "z_alphabet", _check_alphabet(self.z_alphabet, "Z"))
        arr = np.asarray(self.probs, dtype=float)
        shape = (len(self.x_alphabet), len(self.y_alphabet), len(self.z_alphabet))
        if arr.shape != shape:
            raise ValidationError(f"transition shape {arr.shape} does not match alphabets {shape}")
        if float(arr.min(initial=0.0)) < -DEFAULT_ATOL:
            raise PositivityError(f"negative transition probability {arr.min():.3e}")
        sums = arr.sum(axis=(1, 2))
        bad = np.abs(sums - 1.0) > DEFAULT_ATOL
        if np.any(bad):
            x = self.x_alphabet[int(np.argmax(bad))]
            raise NormalizationError(f"p(y,z|x={x}) sums to {sums[np.argmax(bad)]!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def x_index(self, x: str) -> int:
        try:
            return self.x_alphabet.index(x)
        except ValueError:
            raise ValidationError(f"unknown input symbol {x!r}") from None

    def marginal_y(self) -> np.ndarray:
        """p(y | x) as an (X, Y) matrix."""
        return self.probs.sum(axis=2)

    def marginal_z(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def to_json(self) -> dict:
        return {
            "type": "classical",
            "x_alphabet": list(self.x_alphabet),
            "y_alphabet": list(self.y_alphabet),
            "z_alphabet": list(self.z_alphabet),
            "p": [[[float(v) for v in row] for row in plane] for plane in self.probs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClassicalBroadcastChannel":
        needed = {"x_alphabet", "y_alphabet", "z_alphabet", "p"}
        if not isinstance(data, dict) or not needed.issubset(data):
            raise ValidationError("classical channel JSON needs x/y/z alphabets and 'p'")
        return cls(tuple(data["x_alphabet"]), tuple(data["y_alphabet"]), tuple(data["z_alphabet"]),
                   np.asarray(data["p"], dtype=float))


@dataclass(frozen=True)
class CqBroadcastChannel(_Digested):
    """One classical input, a bipartite quantum state on B tensor C per symbol."""

    x_alphabet: tuple
    dim_b: int
    dim_c: int
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_alphabet", _check_alphabet(self.x_alphabet, "X"))
        db, dc = int(self.dim_b), int(self.dim_c)
        if db < 1 or dc < 1:
            raise ValidationError("dim_b and dim_c must be positive")
        object.__setattr__(self, "dim_b", db)
        object.__setattr__(self, "dim_c", dc)
        states = tuple(s if isinstance(s, DensityOperator) else DensityOperator(s) for s in self.states)
        if len(states) != len(self.x_alphabet):
            raise ValidationError(f"{len(states)} states for {len(self.x_alphabet)} input symbols")
        for x, s in zip(self.x_alphabet, states):
            if s.dim != db * dc:
                raise ValidationError(f"state for {x!r} has dim {s.dim}, expected {db * dc}")
        object.__setattr__(self, "states", states)

    def x_index(self, x: str) -> int:
        try:
            return self.x_alphabet.index(x)
        except ValueError:
            raise ValidationError(f"unknown input symbol {x!r}") from None

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
    def from_json(cls, data: dict) -> "CqBroadcastChannel":
        needed = {"x_alphabet", "dim_b", "dim_c", "states"}
        if not isinstance(data, dict) or not needed.issubset(data):
            raise ValidationError("cq channel JSON needs 'x_alphabet', 'dim_b', 'dim_c', 'states'")
        xs = tuple(data["x_alphabet"])
        missing = [x for x in xs if x not in data["states"]]
        if missing:
            raise ValidationError(f"states missing for symbols {missing}")
        states = tuple(DensityOperator(matrix_from_json(data["states"][x])) for x in xs)
        return cls(xs, int(data["dim_b"]), int(data["dim_c"]), states)


def channel_from_json(data: dict):
    """Dispatch on the 'type' tag."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError("channel JSON needs a 'type' tag")
    if data["type"] == "classical":
        return ClassicalBroadcastChannel.from_json(data)
    if data["type"] == "cq":
        return CqBroadcastChannel.from_json(data)
    raise ValidationError(f"unknown channel type {data['type']!r}")


@dataclass(frozen=True)
class InputDesign(_Digested):
    """Auxiliary joint p(u, v) and deterministic input map f(u, v)."""

    joint: JointPmf
    f: dict

    def __post_init__(self):
        fmap = {}
        for key, x in dict(self.f).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValidationError(f"f keys must be (u, v) pairs, got {key!r}")
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
        for u, v in self.f:
            if "," in u or "," in v:
                raise ValidationError("labels containing ',' cannot use the 'u,v' key encoding")
        return {
            "uv": self.joint.to_json(),
            "f": {f"{u},{v}": x for (u, v), x in self.f.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "InputDesign":
        if not isinstance(data, dict) or "uv" not in data or "f" not in data:
            raise ValidationError("design JSON needs 'uv' and 'f'")
        fmap = {}
        for key, x in data["f"].items():
            parts = key.split(",")
            if len(parts) != 2:
                raise ValidationError(f"f key {key!r} is not 'u,v'")
            fmap[(parts[0], parts[1])] = x
        return cls(JointPmf.from_json(data["uv"]), fmap)


def build_classical_joints(channel: ClassicalBroadcastChannel, design: InputDesign):
    """Joints p(u, y) and p(v, z) induced by a design on a classical channel."""
    joint = design.joint
    fx = design.x_indices(channel)
    py_x = channel.marginal_y()
    pz_x = channel.marginal_z()
    p_uy = np.zeros((joint.shape[0], py_x.shape[1]))
    p_vz = np.zeros((joint.shape[1], pz_x.shape[1]))
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            mass = joint.probs[i, j]
            if mass > 0.0:
                p_uy[i] += mass * py_x[fx[i, j]]
                p_vz[j] += mass * pz_x[fx[i, j]]
    return (
        JointPmf(joint.row_labels, channel.y_alphabet, p_uy, atol=1e-9),
        JointPmf(joint.col_labels, channel.z_alphabet, p_vz, atol=1e-9),
    )


def _ensemble(channel: CqBroadcastChannel, design: InputDesign, side: int):
    """One receiver's register pmf and conditional states, averaged over the other register.

    Side 0 is Bob (register u, states on B), side 1 Charlie (register v, states on C).
    """
    probs = design.joint.probs
    fx = design.x_indices(channel)
    marginal = probs.sum(axis=1 - side)
    if side:
        probs, fx = probs.T, fx.T
    reduced = channel.rho_c if side else channel.rho_b
    rho = [reduced(x) for x in channel.x_alphabet]
    dim = (channel.dim_b, channel.dim_c)[side]
    states = []
    for i in range(probs.shape[0]):
        acc = np.zeros((dim, dim), dtype=complex)
        for j in range(probs.shape[1]):
            if probs[i, j] > 0.0:
                acc += probs[i, j] * rho[fx[i, j]]
        states.append(acc / marginal[i] if marginal[i] > 0.0 else acc)
    return marginal, states


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
        for xi in np.unique(x_indices):
            mask = x_indices == xi
            flat[mask] = np.searchsorted(self._cdf[xi], u[mask], side="right")
        return flat // self._nz, flat % self._nz
