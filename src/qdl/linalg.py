"""Dense complex-matrix kernel: Hermitian spectra, trace norms,
the purity and copy-count checks shared by every module, and qubit states.

Matrices are plain complex ``numpy`` arrays in row-major order.  All
operations are pure functions of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-9
# purities this close to an endpoint of [0, 1] are rounding error (a grid
# such as np.arange(0.3, 1.0001, 0.1) ends one ulp above 1) and snap onto it
PURITY_SLACK = 4 * np.finfo(float).eps


def check_purity(r, *, zero: bool = True, note: str = "") -> float:
    """Return the Bloch-vector length ``r`` as a float in [0, 1], or in
    (0, 1] when ``zero`` is false.

    Values within ``PURITY_SLACK`` of an allowed endpoint snap onto it.  Any
    other value outside the range, NaN or inf raises a ``ValueError`` that
    names it, followed by ``note``.
    """
    x = float(r)
    if 1.0 < x <= 1.0 + PURITY_SLACK:
        return 1.0
    if zero and -PURITY_SLACK <= x <= 0.0:
        return 0.0
    if 0.0 < x <= 1.0:
        return x
    interval = "[0, 1]" if zero else "(0, 1]"
    raise ValueError(f"purity {r} outside {interval}{note}")


def check_count(name: str, n) -> int:
    """Return the copy count ``n`` as an int, raising a ``ValueError`` that
    names it as ``name`` unless it is an integer >= 1 (a bool is not)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} {n!r} is not an integer >= 1")
    return int(n)


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
    return a


def require_hermitian(m, tol: float = HERMITICITY_TOL, names=None) -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not Hermitian.

    With ``names``, ``m`` is a sequence of equally shaped square matrices,
    one per name, checked in one vectorized comparison and returned stacked
    with shape (len(names), d, d).  The error message names the entry with
    the largest deviation from the conjugate transpose, and the matrix it
    lies in by its name.
    """
    if names is None:
        a = as_matrix(m)
        stack, names = a[None], ("matrix",)
    else:
        a = stack = np.asarray(m, dtype=complex)
        if stack.ndim != 3 or len(stack) != len(names):
            raise ValueError(
                f"expected {len(names)} matrices, got an array of shape {stack.shape}"
            )
    if stack.shape[1] != stack.shape[2]:
        raise ValueError(f"matrix of shape {stack.shape[1:]} is not square")
    if stack.shape[1] == 0:
        raise ValueError(f"{names[0]} is empty: shape {stack.shape[1:]}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, refused below
        dev = np.abs(stack - stack.conj().transpose(0, 2, 1))
    k, i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    if not dev[k, i, j] <= tol:
        raise ValueError(
            f"{names[k]} is not Hermitian: entry ({i},{j}) deviates from its "
            f"conjugate by {dev[k, i, j]:.3e}"
        )
    return a


def herm_eigvals(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending."""
    a = require_hermitian(m)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return np.ascontiguousarray(w[::-1])


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(herm_eigvals(m))))


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _PAULI_X.copy(), _PAULI_Y.copy(), _PAULI_Z.copy()


@dataclass(frozen=True)
class QubitState:
    """Qubit parametrized by purity ``r`` and a unit Bloch vector."""

    purity: float
    bloch: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        object.__setattr__(self, "purity", check_purity(self.purity))
        v = np.asarray(self.bloch, dtype=float)
        if v.shape != (3,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
            raise ValueError(f"bloch {self.bloch!r} must be a finite unit 3-vector")
        object.__setattr__(self, "bloch", v)

    def density(self) -> np.ndarray:
        """(1 + r v.sigma)/2; eigenvalues (1 +- r)/2."""
        r, v = self.purity, self.bloch
        return (
            np.eye(2, dtype=complex)
            + r * (v[0] * _PAULI_X + v[1] * _PAULI_Y + v[2] * _PAULI_Z)
        ) / 2
