"""Binary discrimination of known quantum states.

Minimum-error (Helstrom) and unambiguous rates, weak/strong error margins
with their measurement angles, conclusive-outcome confidence, classical and
quantum Chernoff distances, multicopy error rates evaluated block by block
(each block of a tensor power is a diagonal turned by one Wigner rotation
matrix from ``angular``), and minimum-error comparison of two single-copy
preparations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .angular import HalfInt, multiplicity_table, wigner_d
from .linalg import QubitState, trace_norm

_GOLDEN = (math.sqrt(5) - 1) / 2
# trace and eigenvalue slack of a density matrix: rounding, not a state
_DENSITY_TOL = 1e-9


def _require_density(name: str, m) -> np.ndarray:
    """Return ``m`` as a complex array, raising a ``ValueError`` that names it
    as ``name`` unless it is a density matrix: Hermitian, unit trace and no
    eigenvalue below zero, each within ``_DENSITY_TOL``."""
    a = linalg.require_hermitian(m)
    trace = np.trace(a).real
    if not abs(trace - 1.0) <= _DENSITY_TOL:
        raise ValueError(f"{name} is not a density matrix: trace {trace:.9g}")
    low = np.linalg.eigvalsh(a)[0]
    if low < -_DENSITY_TOL:
        raise ValueError(f"{name} is not a density matrix: eigenvalue {low:.9g}")
    return a


@dataclass(frozen=True)
class BinaryHypotheses:
    """Two density matrices of equal dimension with prior eta1 (eta2 = 1-eta1)."""

    rho1: np.ndarray
    rho2: np.ndarray
    eta1: float = 0.5

    def __post_init__(self):
        r1 = _require_density("rho1", self.rho1)
        r2 = _require_density("rho2", self.rho2)
        if r1.shape != r2.shape:
            raise ValueError(f"dimension mismatch: {r1.shape} vs {r2.shape}")
        if not 0.0 <= self.eta1 <= 1.0:
            raise ValueError(f"prior {self.eta1} outside [0, 1]")
        object.__setattr__(self, "rho1", r1)
        object.__setattr__(self, "rho2", r2)

    @property
    def eta2(self) -> float:
        return 1.0 - self.eta1


@dataclass(frozen=True)
class MarginResult:
    """Outcome rates of margin-constrained discrimination.

    ``phi`` is the polar angle of the conclusive measurement vectors; it is
    None when the optimal measurement direction is not defined (identical
    states under the strong condition).  ``regime`` is "margin-limited"
    below the critical margin and "minimum-error" above it.
    """

    p_success: float
    p_error: float
    p_inconclusive: float
    phi: float | None
    regime: str


def helstrom_error(h: BinaryHypotheses) -> float:
    """Minimum average error (1 - ||eta1 rho1 - eta2 rho2||_1) / 2."""
    gamma = h.eta1 * h.rho1 - h.eta2 * h.rho2
    return (1.0 - trace_norm(gamma)) / 2.0


def pure_overlap_error(c: float, eta1: float = 0.5) -> float:
    """Minimum error (1 - sqrt(1 - x)) / 2, x = 4 eta1 eta2 c^2, for two pure
    states with overlap |<psi1|psi2>| = c, taken as x / (2 (1 + sqrt(1 - x)))
    with 1 - x = (eta1 - eta2)^2 + 4 eta1 eta2 (1 - c) (1 + c): nothing cancels."""
    _check_unit("overlap", c)
    _check_unit("prior", eta1)
    eta2 = 1.0 - eta1
    w, y = 4.0 * eta1 * eta2, (eta1 - eta2) ** 2
    return w * c * c / (2.0 * (1.0 + math.sqrt(y + w * (1.0 - c) * (1.0 + c))))


def unambiguous_q(c: float, eta1: float = 0.5) -> float:
    """Minimum inconclusive rate of unambiguous discrimination of two pure
    states with overlap c; piecewise in the prior because the three-outcome
    measurement only exists for moderate bias."""
    _check_unit("overlap", c)
    _check_unit("prior", eta1)
    eta2 = 1.0 - eta1
    if c == 0.0:
        return 0.0
    lo = c * c / (1.0 + c * c)
    hi = 1.0 / (1.0 + c * c)
    if eta1 < lo:
        return eta1 + eta2 * c * c
    if eta1 > hi:
        return eta1 * c * c + eta2
    return 2.0 * math.sqrt(eta1 * eta2) * c


def critical_margin(c: float) -> float:
    """Margin above which the optimum is plain minimum-error discrimination:
    the minimum error of equal priors."""
    return pure_overlap_error(c)


def weak_margin(c: float, r: float) -> MarginResult:
    """Maximum success rate when the average error may not exceed r.

    Below the critical margin the error saturates the margin and
    P_s = (sqrt(r) + sqrt(1-c))^2; above it the rates are those of
    minimum-error discrimination.
    """
    rc = critical_margin(c)  # checks the overlap
    _check_unit("margin", r)
    if r >= rc:
        return MarginResult(1.0 - rc, rc, 0.0, math.pi / 2, "minimum-error")
    ps = (math.sqrt(r) + math.sqrt(1.0 - c)) ** 2
    q = max(0.0, 1.0 - ps - r)
    phi = 2.0 * math.atan2(math.sqrt(1.0 + c), math.sqrt(1.0 - c) + 2.0 * math.sqrt(r))
    return MarginResult(ps, r, q, phi, "margin-limited")


def strong_margin(c: float, r: float) -> MarginResult:
    """Maximum success rate when each conditional mislabeling probability may
    not exceed r.

    Equivalent to a weak margin r_w = r (P_s + P_e); the critical margin is
    the same as in the weak scheme.  For c = 1 below the critical margin the
    two conclusive operators coincide, the angle is undefined and the machine
    always abstains.
    """
    rc = critical_margin(c)  # checks the overlap
    _check_unit("margin", r)
    if r >= rc:
        return MarginResult(1.0 - rc, rc, 0.0, math.pi / 2, "minimum-error")
    if c == 1.0:
        return MarginResult(0.0, 0.0, 1.0, None, "margin-limited")
    ps = (math.sqrt(1.0 - r) / (math.sqrt(r) - math.sqrt(1.0 - r))) ** 2 * (1.0 - c)
    pe = r * ps / (1.0 - r)
    q = max(0.0, 1.0 - ps - pe)
    phi = 2.0 * math.atan2(
        (math.sqrt(1.0 - r) - math.sqrt(r)) * math.sqrt(1.0 + c),
        (math.sqrt(1.0 - r) + math.sqrt(r)) * math.sqrt(1.0 - c),
    )
    return MarginResult(ps, pe, q, phi, "margin-limited")


def strong_from_weak(c: float, r_weak: float) -> float:
    """Strong margin realized by the optimal weak-margin measurement at r_weak."""
    res = weak_margin(c, r_weak)
    if res.p_success + res.p_error == 0.0:
        return 0.0
    return res.p_error / (res.p_success + res.p_error)


def confidence(c: float, r: float, scheme: str = "weak") -> float:
    """Relative success probability P_s / (1 - Q) of the conclusive outcomes."""
    if scheme == "weak":
        res = weak_margin(c, r)
    elif scheme == "strong":
        res = strong_margin(c, r)
    else:
        raise ValueError(f"scheme must be 'weak' or 'strong', got {scheme!r}")
    conclusive = 1.0 - res.p_inconclusive
    if conclusive <= 0.0:
        raise ValueError("no conclusive outcomes: confidence undefined (Q = 1)")
    return res.p_success / conclusive


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Location of the minimum of a convex scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (a + b) / 2


def chernoff_classical(p1, p2) -> float:
    """Chernoff distance -log min_s sum_i p1(i)^s p2(i)^(1-s).

    Zero iff the distributions coincide; infinity (returned, not raised) for
    disjoint supports.
    """
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("distributions must be 1-D of equal length")
    for name, p in (("p1", a), ("p2", b)):
        if not (p.min() >= -1e-12 and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError(f"{name} {p.tolist()} is not a normalized distribution")
    joint = (a > 0) & (b > 0)
    if not np.any(joint):
        return math.inf
    return _chernoff_distance(np.log(a[joint]), np.log(b[joint]), 1.0)


def chernoff_quantum(rho1, rho2) -> float:
    """Quantum Chernoff distance -log min_s tr(rho1^s rho2^(1-s)).

    Evaluated via both eigendecompositions; powers of zero eigenvalues follow
    the support-projector limit, so the value is infinity only for disjoint
    supports.
    """
    r1 = _require_density("rho1", rho1)
    r2 = _require_density("rho2", rho2)
    if r1.shape != r2.shape:
        raise ValueError(f"dimension mismatch: {r1.shape} vs {r2.shape}")
    w1, v1 = np.linalg.eigh(r1)
    w2, v2 = np.linalg.eigh(r2)
    overlap = np.abs(v1.conj().T @ v2) ** 2
    tol = 1e-12
    keep1, keep2 = w1 > tol, w2 > tol
    ov = overlap[np.ix_(keep1, keep2)]
    if ov.size == 0 or ov.sum() <= 0.0:
        return math.inf
    return _chernoff_distance(np.log(w1[keep1])[:, None], np.log(w2[keep2])[None, :], ov)


def _chernoff_distance(la, lb, w) -> float:
    """-log of the smallest of f(0), f(1) and f at the golden-section minimum
    over [0, 1] of f(s) = sum w exp(s la + (1 - s) lb); infinity at f = 0."""

    def f(s):
        return float((np.exp(s * la + (1.0 - s) * lb) * w).sum())

    val = min(f(_golden_min(f, 0.0, 1.0)), f(0.0), f(1.0))
    return -math.log(val) if val > 0.0 else math.inf


def multicopy_error(q1: QubitState, q2: QubitState, eta1: float, n_copies: int) -> float:
    """Minimum error for discriminating n-fold tensor powers of two qubits.

    The permutation-invariant block structure splits the trace norm into a
    multiplicity-weighted sum over total-spin blocks.  With the pair placed
    in the xz plane, q1 along z, the spin-j block of the power of a
    z-aligned qubit is diagonal in |j m>, s = p^((n+2m)/2) (1-p)^((n-2m)/2)
    with p = (1+r)/2, and q2's block is its own diagonal turned by the
    relative Bloch angle theta, d^j(theta) diag(s_2) d^j(theta)^T.  The cost
    is two (2j+1)-dimensional eigensolves per block.

    Error budget: the result is (1 - sum_j nu_j sum |w_j|)/2, a difference
    that cancels, so its absolute error is about n eps.  Below Pe ~ 1e-13
    the value is rounding noise: at n = 160, r = 0.9 and orthogonal Bloch
    vectors it returns about 4e-15, where the Chernoff rate puts the true
    value near 1e-25.  From n = 1035 on a multiplicity overflows a float,
    and n is refused.
    """
    n = linalg.check_count("n_copies", n_copies)
    _check_unit("prior", eta1)
    theta = math.acos(float(np.clip(np.dot(q1.bloch, q2.bloch), -1.0, 1.0)))
    try:
        nu = [float(v) for v in multiplicity_table(n)]
    except OverflowError:
        raise ValueError(f"n_copies {n} is too large: a multiplicity overflows a float") from None
    eta2 = 1.0 - eta1
    total = 0.0
    for j2 in range(n % 2, n + 1, 2):
        ups = (n + np.arange(-j2, j2 + 1, 2)) // 2
        s1, s2 = (((1 + r) / 2) ** ups * ((1 - r) / 2) ** (n - ups) for r in (q1.purity, q2.purity))
        d = wigner_d(HalfInt(j2), theta)
        w = np.linalg.eigvalsh(np.diag(eta1 * s1) - (d * (eta2 * s2)) @ d.T)
        total += nu[j2] * float(np.abs(w).sum())
    return (1.0 - total) / 2.0


def compare_error(c: float, eta1: float = 0.5) -> float:
    """Minimum error for deciding whether two single-copy preparations drawn
    from a known pure pair with overlap c are equal or different.

    Reduces to Helstrom discrimination of the equal-parts and different-parts
    two-copy mixtures with priors eta1^2 + eta2^2 and 2 eta1 eta2.
    """
    _check_unit("overlap", c)
    _check_unit("prior", eta1)
    eta2 = 1.0 - eta1
    theta = math.acos(c)
    psi1 = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
    psi2 = np.array([math.cos(theta / 2), -math.sin(theta / 2)], dtype=complex)

    def proj(u, v):
        w = np.kron(u, v)
        return np.outer(w, w.conj())

    rho_eq = eta1**2 * proj(psi1, psi1) + eta2**2 * proj(psi2, psi2)
    rho_diff = eta1 * eta2 * (proj(psi1, psi2) + proj(psi2, psi1))
    return (1.0 - trace_norm(rho_eq - rho_diff)) / 2.0


def _check_unit(name: str, x: float):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} {x} outside [0, 1]")
