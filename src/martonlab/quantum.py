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
from .prob import MALFORMED_JSON, _check_count, _float_array

__all__ = [
    "DensityOperator",
    "partial_trace",
    "real_trace",
    "pinv_sqrt",
    "matrix_to_json",
    "matrix_from_json",
]

HERMITICITY_TOL = 1e-10
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


@dataclass(frozen=True, eq=False)
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


def matrix_to_json(matrix) -> dict:
    """Serialize a complex matrix as nested [re, im] pairs."""
    arr = _square_complex(matrix)
    return {
        "dim": arr.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in arr],
    }


def matrix_from_json(data: dict) -> np.ndarray:
    """The complex matrix ``matrix_to_json`` wrote; a missing key or a field
    of the wrong type raises ValidationError."""
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise ValidationError("matrix JSON must carry 'dim' and 'entries'")
    dim = _check_count(data["dim"], "matrix dim")
    try:
        parts = _float_array(data["entries"], "matrix entries")
    except MALFORMED_JSON as exc:  # a ragged grid
        raise ValidationError(f"matrix JSON: malformed field ({exc})") from None
    if parts.shape != (dim, dim, 2):
        raise ValidationError(f"matrix entries do not form a {dim}x{dim} grid of [re, im] pairs")
    return parts.view(complex)[..., 0]
