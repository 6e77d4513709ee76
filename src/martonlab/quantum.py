"""Finite-dimensional operators and states.

Plain numpy arrays do the arithmetic.  ``DensityOperator`` is the one
validated type: it checks a state's hermiticity, positivity and trace at
construction, so an invalid state fails there instead of deep inside an
experiment.  The tolerances are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, NormalizationError, PositivityError, ValidationError

__all__ = [
    "DensityOperator",
    "partial_trace",
    "hayashi_nagaoka_check",
    "real_trace",
    "pinv_sqrt",
    "matrix_to_json",
    "matrix_from_json",
    "HERMITICITY_TOL",
    "POVM_TOL",
]

HERMITICITY_TOL = 1e-10
POVM_TOL = 1e-9
# relative eigenvalue cutoff below which a direction counts as outside the support
SUPPORT_RCUT = 1e-12


def _square_complex(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    return arr


def real_trace(a, b=None) -> float:
    """Tr[a b] (or Tr[a]) with the imaginary part discarded."""
    a = np.asarray(a)
    if b is None:
        return float(np.trace(a).real)
    return float(np.einsum("ij,ji->", a, np.asarray(b)).real)


@dataclass(frozen=True)
class DensityOperator:
    """A validated quantum state: Hermitian, PSD, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _square_complex(self.matrix)
        dev = float(np.max(np.abs(arr - arr.conj().T), initial=0.0))
        if dev > HERMITICITY_TOL:
            raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e} > {HERMITICITY_TOL}")
        arr = (arr + arr.conj().T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        low = float(np.linalg.eigvalsh(arr)[0])
        if low < -HERMITICITY_TOL:
            raise PositivityError(f"state has eigenvalue {low:.3e} < -{HERMITICITY_TOL}")
        tr = real_trace(arr)
        if abs(tr - 1.0) > HERMITICITY_TOL:
            raise NormalizationError(f"state trace {tr!r} differs from 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def partial_trace(op, dims, keep):
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    op : array
        Operator on the tensor product of subsystems with dimensions ``dims``.
    dims : sequence of int
        Subsystem dimensions, in tensor order.
    keep : sequence of int
        Indices of the subsystems to keep, in their original order.

    Returns
    -------
    The reduced operator on the kept subsystems, an array.
    """
    arr = np.asarray(op, dtype=complex)
    dims = tuple(int(d) for d in dims)
    keep = tuple(int(k) for k in keep)
    n = len(dims)
    total = int(np.prod(dims))
    if arr.shape != (total, total):
        raise ValidationError(f"operator shape {arr.shape} does not match dims {dims}")
    if sorted(set(keep)) != sorted(keep) or any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep={keep} is not a valid subset of range({n})")
    if keep != tuple(sorted(keep)):
        raise ValidationError("keep must be in increasing order (no implicit permutation)")
    tens = arr.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out_axes = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tens, row + col, out_axes)
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return reduced.reshape(kept_dim, kept_dim)


def pinv_sqrt(matrix: np.ndarray):
    """Pseudo-inverse square root and support projector of a PSD matrix."""
    vals, vecs = np.linalg.eigh(matrix)
    top = float(vals[-1]) if vals.size else 0.0
    mask = vals > max(top, 0.0) * SUPPORT_RCUT
    if top <= 0.0:
        mask = np.zeros_like(vals, dtype=bool)
    inv = np.zeros_like(vals)
    inv[mask] = vals[mask] ** -0.5
    v = vecs
    return (v * inv) @ v.conj().T, (v * mask.astype(float)) @ v.conj().T


def hayashi_nagaoka_check(s, t) -> float:
    """Smallest eigenvalue of the operator-inequality slack.

    For ``0 <= S <= I`` and ``T >= 0`` the inequality
    ``I - (S+T)^{-1/2} S (S+T)^{-1/2} <= 2(I-S) + 4T`` holds, with the
    inverse square root taken on the support of ``S+T``.  Returns the
    minimum eigenvalue of ``2(I-S) + 4T - (I - (S+T)^{-1/2} S (S+T)^{-1/2})``,
    which should only be negative at the level of rounding error.
    """
    s_arr = _square_complex(s)
    t_arr = _square_complex(t)
    if s_arr.shape != t_arr.shape:
        raise ValidationError("S and T must have the same shape")
    s_arr = (s_arr + s_arr.conj().T) / 2.0
    t_arr = (t_arr + t_arr.conj().T) / 2.0
    eye = np.eye(s_arr.shape[0])
    s_eigs = np.linalg.eigvalsh(s_arr)
    if float(s_eigs[0]) < -POVM_TOL or float(s_eigs[-1]) > 1.0 + POVM_TOL:
        raise ValidationError(f"S must satisfy 0 <= S <= I, eigenvalues span [{s_eigs[0]:.3e}, {s_eigs[-1]:.3e}]")
    if float(np.linalg.eigvalsh(t_arr)[0]) < -POVM_TOL:
        raise PositivityError("T must be positive semidefinite")
    inv_sqrt, _ = pinv_sqrt(s_arr + t_arr)
    pinched = inv_sqrt @ s_arr @ inv_sqrt
    slack = 2.0 * (eye - s_arr) + 4.0 * t_arr - (eye - pinched)
    return float(np.linalg.eigvalsh(slack)[0])


def matrix_to_json(matrix) -> dict:
    """Serialize a complex matrix as nested [re, im] pairs."""
    arr = _square_complex(matrix)
    return {
        "dim": arr.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in arr],
    }


def matrix_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise ValidationError("matrix JSON must carry 'dim' and 'entries'")
    dim = int(data["dim"])
    rows = data["entries"]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValidationError(f"matrix entries do not form a {dim}x{dim} grid")
    try:
        arr = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
    except (TypeError, IndexError) as exc:
        raise ValidationError(f"matrix entries must be [re, im] pairs: {exc}") from None
    return arr
