"""Exact SU(2) combinatorics: multiplicities of permutation-invariant qubit
blocks, block coefficients of tensor-power states, Jordan overlaps, rotation
matrices, and the orthogonal recoupling matrices between the two orders of
coupling three angular momenta.

All angular momenta are carried as exact doubled integers (``2j``), which
removes half-integer parity bugs.

Both are eigenvector matrices of symmetric tridiagonal angular-momentum
operators with known eigenvalues, found there by one batched twisted
factorization (``_eigenvectors``; Dhillon & Parlett, Linear Algebra Appl. 387,
1 (2004)) in O(dim^2) per matrix, where a dense eigensolve costs O(dim^3):

- recoupling matrices: J_bc^2 in the basis of the intermediate momentum j_ab
  (the Schulten-Gordon recursion, J. Math. Phys. 16, 1961 (1975)), of
  eigenvalues j_bc (j_bc + 1); up to column signs every entry is within
  about 1e-14 of exact rational 6j symbols through 2j = 400;
- rotation matrices d^j(theta): J_x in the |j m> basis, whose eigenvalues
  are the known m (Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307 (2015)).

Neither needs a sign convention: the block sums see a recoupling matrix only
as Lambda diag(s) Lambda^T, and a rotation sees its eigenvectors only as
U (.) U^T.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import check_count, check_purity


@dataclass(frozen=True, order=True)
class HalfInt:
    """Angular momentum stored as the exact doubled value ``2j``."""

    twice: int

    def __float__(self) -> float:
        return self.twice / 2.0

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _twice(x) -> int:
    """2x for a HalfInt, an int, or a float within 1e-9 of a half-integer."""
    if isinstance(x, HalfInt):
        return x.twice
    if isinstance(x, int):
        return 2 * x
    d = 2 * float(x)
    if not math.isfinite(d):
        raise ValueError(f"{x} is not finite")
    r = round(d)
    if abs(d - r) > 1e-9:
        raise ValueError(f"{x} is not an integer or half-integer")
    return int(r)


def check_spin(name: str, j, n=None) -> int:
    """Doubled spin 2j, raising a ValueError that names it unless 2j >= 0
    and, for a block of n copies, 2j <= n with the parity of n."""
    try:
        j2 = _twice(j)
    except ValueError as err:  # its message starts with the value
        raise ValueError(f"spin {name}={err}") from None
    if j2 < 0 or n is not None and (j2 > n or (n - j2) % 2):
        where = "" if n is None else f" for n={n} (2j must be 0..n with the parity of n)"
        raise ValueError(f"spin {name}={HalfInt(j2)!r} is impossible{where}")
    return j2


def multiplicity(n: int, j) -> int:
    """Number of equivalent spin-j blocks of n qubits.

    Counts standard two-row Young tableaux, equivalently nonnegative
    random-walk paths of n half-steps ending at j.
    """
    n = check_count("n", n)
    k = (n - check_spin("j", j, n)) // 2
    return math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)


def block_coefficient(n: int, j, r: float) -> float:
    """Diagonal weight (per basis state) of the spin-j block of an n-fold
    tensor power of a qubit of purity r.

    Satisfies sum_j multiplicity * (2j+1) * coefficient = 1.
    """
    n = check_count("n", n)
    return _block_coefficient(n, check_spin("j", j, n), check_purity(r))


def _block_coefficient(n: int, j2: int, r: float) -> float:
    """block_coefficient of checked arguments, the spin doubled."""
    k = (n - j2) // 2
    if r == 0.0:
        return 0.5**n
    # singlet pairs contribute det(rho) = ((1-r)/2)((1+r)/2) each, a product
    # so that nothing cancels as r -> 1; the rest is the trace of the
    # symmetric part, (((1+r)/2)^J - ((1-r)/2)^J) / r with J = 2j+1, whose
    # difference is ((1+r)/2)^J (1 - e^(-2 J atanh r)), free of cancellation.
    # 1 - r is exact for r >= 1/2; the rounding of 1 + r, raised to the
    # power k + J, is restored to first order from its exact residual
    big_j = j2 + 1
    gap = 1.0 if r == 1.0 else -math.expm1(-2.0 * big_j * math.atanh(r))
    up = 1 + r
    up_power = (up / 2) ** (k + big_j) * (1 + (k + big_j) * ((r - (up - 1)) / up))
    return ((1 - r) / 2) ** k * up_power * (gap / (r * big_j))


def jordan_overlap(n: int, nprime: int, k: int) -> float:
    """Overlap of the paired orthogonal (Jordan) basis vectors of the two
    three-system couplings with n copies at each outer port and nprime in
    the middle, in the sector k = 0..n above the smallest total momentum.

    Equals C(n,k) / C(n+nprime, n-k), correctly rounded because Python's
    true division of two ints is; increases with k and reaches 1 in the
    totally symmetric sector k = n.
    """
    n, nprime = check_count("n", n), check_count("nprime", nprime)
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 <= k <= n:
        raise ValueError(f"k={k!r} is not an integer in 0..{n}")
    return math.comb(n, k) / math.comb(n + nprime, n - k)


def _recoupling_tridiagonal(ja2, jb2, jc2, j2, dim: int):
    """Diagonal (B, dim) and off-diagonal (B, dim - 1) of 4 J_bc^2 in the
    basis of ascending j_ab, for B sectors given as arrays of doubled spins.

    With c(t) = 2t (2t + 2) = 4 t (t + 1) and x = j_ab, the diagonal is
    c(jb) + c(jc) + (c(x) + c(jb) - c(ja)) (c(J) - c(x) - c(jc)) / (2 c(x)),
    the projection of J_b onto J_ab.  At x = 0 (so ja = jb and J = jc) both
    factors of the fraction vanish and the entry is c(jb) + c(jc), J_b having
    no expectation value in a scalar of (ab).  Rows x - 1 and x couple with
    the positive Schulten-Gordon coefficient E(x) / (2 x sqrt(4 x^2 - 1)).
    """
    ja2, jb2, jc2, j2 = (np.asarray(v, dtype=float)[:, None] for v in (ja2, jb2, jc2, j2))
    x2 = np.maximum(np.abs(ja2 - jb2), np.abs(j2 - jc2)) + 2.0 * np.arange(dim)
    ca, cb, cc, cj, cx = (t * (t + 2.0) for t in (ja2, jb2, jc2, j2, x2))
    diag = cb + cc + (cx + cb - ca) * (cj - cx - cc) / (2.0 * np.maximum(cx, 1.0))
    u = x2[:, 1:] * x2[:, 1:]
    off = (
        np.sqrt((u - (ja2 - jb2) ** 2) * ((ja2 + jb2 + 2.0) ** 2 - u))
        * np.sqrt((u - (jc2 - j2) ** 2) * ((jc2 + j2 + 2.0) ** 2 - u))
        / (4.0 * x2[:, 1:] * np.sqrt(u - 1.0))
    )
    return diag, off


def recoupling_batch(ja2, jb2, jc2, j2, dim: int) -> np.ndarray:
    """Recoupling matrices of a stack of sectors with ``dim`` intermediate
    momenta each.

    ``ja2``, ``jb2``, ``jc2`` and ``j2`` are equal-length arrays of doubled
    spins, one entry per sector.  Returns shape (B, dim, dim): rows run over
    ascending j_ab and columns over ascending j_bc, column k being the
    eigenvector of 4 J_bc^2 with eigenvalue c(y) = y (y + 2) at the doubled
    momentum y = max(|jb2 - jc2|, |ja2 - j2|) + 2k.  Each column is fixed
    only up to sign, which products such as Lambda diag(s) Lambda^T never
    see.
    """
    y2 = np.maximum(np.abs(np.subtract(jb2, jc2)), np.abs(np.subtract(ja2, j2)))
    y2 = y2[:, None] + 2.0 * np.arange(dim)
    return _eigenvectors(*_recoupling_tridiagonal(ja2, jb2, jc2, j2, dim), y2 * (y2 + 2.0))


def _eigenvectors(diag: np.ndarray, off: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Unit eigenvectors (B, dim, dim), up to sign, of symmetric tridiagonal
    matrices (``diag``, positive ``off``) at their eigenvalues ``ev`` (B, dim):
    the pivots of T - lambda from the top and from the bottom, z_r = 1 at the
    twist r of least |gamma_r| = 1 / |(T - lambda)^-1_rr|, and z outward from
    it by the ratios -off / pivot.  As in LAPACK's dlar1v a pivot below pivmin
    = eps^2 max(|lambda|, 1) is -pivmin: an exact zero pivot marks an exact
    zero of z, which stays finite, and no pair depends on the rest of the stack."""
    (b, dim), m, lam = diag.shape, diag.size, ev.T.copy()
    pivmin = np.finfo(float).eps ** 2 * np.maximum(np.abs(np.concatenate([lam, lam])), 1.0).ravel()
    # row i: top pivot i of each (eigenvalue, matrix), then bottom pivot dim - 1 - i
    piv, couple = np.empty((dim, 2, dim, b)), np.empty((dim - 1, 2, 1, b))
    np.subtract(diag.T[:, None, :], lam, out=piv[:, 0])
    np.subtract(diag.T[::-1, None, :], lam, out=piv[:, 1])
    couple[:, 0, 0], couple[:, 1, 0] = off.T, off.T[::-1]
    square, rows = couple * couple, piv.reshape(dim, 2 * m)
    step, small = np.empty((2, dim, b)), np.empty(2 * m, dtype=bool)
    flat, low = step.reshape(2 * m), -pivmin
    for i, row in enumerate(rows):
        if i:
            np.divide(square[i - 1], piv[i - 1], out=step)
            row -= flat
        np.copyto(row, low, where=np.less(np.abs(row, out=flat), pivmin, out=small))
    # |gamma_i| = |top_i - off_i^2 / bot_(i+1)|, least i by int64 keys with i in the low bits
    gamma = (out := np.empty((b, dim, dim))).reshape(dim, dim, b)
    np.divide(square[:, 0], piv[-2::-1, 1], out=gamma[:-1])
    np.subtract(piv[:-1, 0], gamma[:-1], out=gamma[:-1])
    gamma[-1] = piv[-1, 0]
    key, bits = np.abs(gamma, out=gamma).reshape(dim, m).view(np.int64), 2 ** dim.bit_length() - 1
    np.bitwise_or(np.bitwise_and(key, ~bits, out=key), np.arange(dim)[:, None], out=key)
    twist = np.empty((2, m), dtype=np.intp)
    np.subtract(dim - 1, np.bitwise_and(key.min(axis=0), bits, out=twist[0]), out=twist[1])
    # ratios z_i / z_(i+1) inside the twist (1 beyond it), multiplied up from the last row
    np.divide(np.negative(couple, out=couple), piv[:-1], out=piv[:-1])
    piv[-1] = 1.0
    inside = np.less(np.arange(dim)[:, None, None], twist).reshape(dim, 2 * m)
    np.add(np.multiply(rows, inside, out=rows), np.logical_not(inside, out=inside), out=rows)
    for i in range(dim - 2, -1, -1):
        rows[i] *= rows[i + 1]
    z = np.multiply(piv[:, 0], piv[::-1, 1], out=piv[:, 0])
    norm = np.sqrt(np.einsum("ikb,ikb->kb", z, z))
    return np.divide(z.transpose(2, 0, 1), norm.T[:, None, :], out=out)


def wigner_d(j, theta: float) -> np.ndarray:
    """Rotation matrix d^j(theta) = <j m| exp(-i theta J_y) |j m'>, rows and
    columns over ascending m.

    In the |j m> basis 2 J_x is real symmetric tridiagonal with eigenvalues
    2m, and the phase S = diag((-i)^k) takes J_x to J_y = S J_x S^dagger, so
    d = S U diag(e^(-i theta m)) U^T S^dagger with U the eigenvectors of
    2 J_x.  U enters only as U (.) U^T, so its column signs never matter.
    """
    j2 = check_spin("j", j)
    if not math.isfinite(theta):
        raise ValueError(f"theta={theta!r} is not finite")
    m2 = np.arange(-j2, j2 + 1, 2.0)
    off = np.sqrt((j2 - m2[:-1]) * (j2 + m2[:-1] + 2.0)) / 2.0
    u = _eigenvectors(np.zeros((1, j2 + 1)), off[None], m2[None])[0]
    w = (u * np.exp(-0.5j * theta * m2)) @ u.T
    k = np.arange(j2 + 1)
    phase = np.array([1.0, -1j, -1.0, 1j])[(k[:, None] - k[None, :]) % 4]
    return (phase * w).real


@lru_cache(maxsize=256)
def multiplicity_table(n: int) -> tuple:
    """multiplicity(n, j) indexed by the doubled momentum 2j (0 for parity
    mismatches)."""
    out = [0] * (n + 1)
    for j2 in range(n % 2, n + 1, 2):
        out[j2] = multiplicity(n, HalfInt(j2))
    return tuple(out)
