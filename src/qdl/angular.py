"""Exact SU(2) combinatorics: Clebsch-Gordan coefficients, 6j symbols,
rotation matrices, multiplicities of permutation-invariant qubit blocks,
block coefficients of tensor-power states, and the orthogonal recoupling
matrices between the two orders of coupling three angular momenta.

All angular momenta are carried as exact doubled integers (``2j``), which
removes half-integer parity bugs.

No SU(2) coefficient goes through an alternating Racah sum.  Each is an
entry of the eigenvector matrix of a symmetric tridiagonal angular-momentum
operator built from a few small integers, and one batched symmetric
eigensolve (``_eigenvectors``) serves them all:

- recoupling matrices, and the scalar 6j symbol read from them: J_bc^2 in
  the basis of the intermediate momentum j_ab (the Schulten-Gordon
  recursion, J. Math. Phys. 16, 1961 (1975)); every entry is within about
  1e-13 of exact rational 6j symbols through 2j = 400;
- Clebsch-Gordan slices, and the scalar coefficient read from them: J^2 in
  the product basis |m_a, m - m_a> of fixed m; within 1e-13 of exact
  rational values through 2j = 200;
- rotation matrices d^j(theta): J_x in the |j m> basis, whose eigenvalues
  are the known m (Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307 (2015)).

One helper, ``_condon_shortley``, fixes the eigenvector signs of the first
two by Sturm pivots; the rotation matrices need none.
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

    @staticmethod
    def coerce(x) -> "HalfInt":
        return x if isinstance(x, HalfInt) else HalfInt(_twice(x))

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
    r = round(d)
    if abs(d - r) > 1e-9:
        raise ValueError(f"{x} is not an integer or half-integer")
    return int(r)


def _triangle2(a2: int, b2: int, c2: int) -> bool:
    return (
        abs(a2 - b2) <= c2 <= a2 + b2
        and (a2 + b2 + c2) % 2 == 0
        and a2 >= 0
        and b2 >= 0
        and c2 >= 0
    )


def triangle(j1, j2, j3) -> bool:
    """Whether (j1, j2, j3) can couple: |j1-j2| <= j3 <= j1+j2 with parity."""
    return _triangle2(_twice(j1), _twice(j2), _twice(j3))


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """<j1 m1; j2 m2 | j m> in the Condon-Shortley convention, read from
    the slice :func:`clebsch_gordan_slices` returns for (j1, j2, m), and so
    as accurate as it at every spin.

    Returns 0 when the triangle condition or m = m1 + m2 fails, never an
    error.
    """
    j1_2, m1_2 = _twice(j1), _twice(m1)
    j2_2, m2_2 = _twice(j2), _twice(m2)
    j_2, m_2 = _twice(j), _twice(m)
    if m1_2 + m2_2 != m_2:
        return 0.0
    if not _triangle2(j1_2, j2_2, j_2):
        return 0.0
    if abs(m1_2) > j1_2 or abs(m2_2) > j2_2 or abs(m_2) > j_2:
        return 0.0
    if (j1_2 + m1_2) % 2 or (j2_2 + m2_2) % 2 or (j_2 + m_2) % 2:
        return 0.0
    (c,) = clebsch_gordan_slices([(j1_2, j2_2, m_2)])
    row = (m1_2 - max(-j1_2, m_2 - j2_2)) // 2
    col = (j_2 - max(abs(j1_2 - j2_2), abs(m_2))) // 2
    return float(c[row, col])


def clebsch_gordan_slices(slices) -> list:
    """Every Clebsch-Gordan coefficient of each (2ja, 2jc, 2m) slice in the
    list ``slices``, as one orthogonal matrix per slice.

    Entry [i, k] is <ja m_a; jc m - m_a | J m> with rows over ascending
    m_a = max(-ja, m - jc) + i and columns over ascending
    J = max(|ja - jc|, |m|) + k.  In the |m_a, m - m_a> basis the operator
    4 J^2 is symmetric tridiagonal: its diagonal is c(ja) + c(jc) +
    2 (2m_a)(2m_c), with c(t) = 2t (2t + 2), and rows m_a and m_a + 1 couple
    with the positive 4 <m_a + 1, m_c - 1| J_a+ J_c- |m_a, m_c>.  Column k is
    its eigenvector of eigenvalue c(J), signed so that the last row (m_a = ja
    or m_c = -jc, a stretched coupling) is positive.  Slices of equal
    dimension share one batched eigensolve; slices of dimension 1 hold 1.
    """
    out = [None] * len(slices)
    groups = {}
    for i, (ja2, jc2, m2) in enumerate(slices):
        if min(ja2, jc2) < 0 or abs(m2) > ja2 + jc2 or (ja2 + jc2 + m2) % 2:
            raise ValueError(f"no coupled states for ja={HalfInt(ja2)} jc={HalfInt(jc2)} "
                             f"m={HalfInt(m2)}")
        dim = (min(ja2, m2 + jc2) - max(-ja2, m2 - jc2)) // 2 + 1
        groups.setdefault(dim, []).append(i)
    for dim, idx in groups.items():
        if dim == 1:
            for i in idx:
                out[i] = np.ones((1, 1))
            continue
        ja2, jc2, m2 = (np.array(v, dtype=float)[:, None] for v in zip(*(slices[i] for i in idx)))
        ma2 = np.maximum(-ja2, m2 - jc2) + 2.0 * np.arange(dim)
        mc2 = m2 - ma2
        diag = ja2 * (ja2 + 2.0) + jc2 * (jc2 + 2.0) + 2.0 * ma2 * mc2
        a2, c2 = ma2[:, :-1], mc2[:, :-1]
        off = np.sqrt((ja2 - a2) * (ja2 + a2 + 2.0)) * np.sqrt((jc2 + c2) * (jc2 - c2 + 2.0))
        big_j2 = np.maximum(np.abs(ja2 - jc2), np.abs(m2)) + 2.0 * np.arange(dim)
        vecs = _condon_shortley(_eigenvectors(diag, off), diag, off, big_j2 * (big_j2 + 2.0))
        for i, v in zip(idx, vecs):
            out[i] = v
    return out


def wigner6j(j1, j2, j12, j3, j, j23) -> float:
    """Wigner 6j symbol {j1 j2 j12; j3 j j23}, read from the recoupling
    matrix Lambda = overlap_matrix(j1, j2, j3, j), and so as accurate as it
    at every spin: (-1)^(j1+j2+j3+j) Lambda[j12, j23] / sqrt((2j12+1)(2j23+1)).

    Triangle violations on any of the four triads return 0.
    """
    a2, b2, c2 = _twice(j1), _twice(j2), _twice(j12)
    d2, e2, f2 = _twice(j3), _twice(j), _twice(j23)
    tri = (
        _triangle2(a2, b2, c2)
        and _triangle2(a2, e2, f2)
        and _triangle2(d2, b2, f2)
        and _triangle2(d2, e2, c2)
    )
    if not tri:
        return 0.0
    lam = overlap_matrix(j1, j2, j3, j)
    # rows and columns descend from the largest allowed j12 and j23
    row = (min(a2 + b2, d2 + e2) - c2) // 2
    col = (min(b2 + d2, a2 + e2) - f2) // 2
    phase = -1.0 if ((a2 + b2 + d2 + e2) // 2) % 2 else 1.0
    return phase * float(lam[row, col]) / math.sqrt((c2 + 1) * (f2 + 1))


def check_spin(name: str, j, n=None) -> int:
    """Doubled spin 2j, raising a ValueError that names it unless 2j >= 0
    and, for a block of n copies, 2j <= n with the parity of n."""
    j2 = _twice(j)
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
    j2 = check_spin("j", j, n)
    r = check_purity(r)
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


def intermediate_couplings(ja, jb, jc, j) -> tuple[tuple, tuple]:
    """Allowed intermediate momenta (j_ab list, j_bc list) for total j,
    each in descending order.  The two lists always have equal length."""
    ja2, jb2, jc2, j2 = _twice(ja), _twice(jb), _twice(jc), _twice(j)
    jab = [
        HalfInt(x2)
        for x2 in range(ja2 + jb2, abs(ja2 - jb2) - 1, -2)
        if _triangle2(x2, jc2, j2)
    ]
    jbc = [
        HalfInt(x2)
        for x2 in range(jb2 + jc2, abs(jb2 - jc2) - 1, -2)
        if _triangle2(ja2, x2, j2)
    ]
    return tuple(jab), tuple(jbc)


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
    only up to sign; :func:`overlap_matrix` applies the Condon-Shortley
    signs, which products such as Lambda diag(s) Lambda^T never see.
    """
    if dim == 1:
        # one intermediate momentum each: the 1 x 1 eigenvector is (1)
        return np.ones((len(ja2), 1, 1))
    return _eigenvectors(*_recoupling_tridiagonal(ja2, jb2, jc2, j2, dim))


def _eigenvectors(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvectors, by ascending eigenvalue, of a stack of symmetric
    tridiagonal matrices."""
    dim = diag.shape[1]
    t = np.zeros((len(diag), dim, dim))
    k = np.arange(dim)
    t[:, k, k] = diag
    t[:, k[1:], k[:-1]] = off
    t[:, k[:-1], k[1:]] = off
    return np.linalg.eigh(t)[1]


def _condon_shortley(vecs, diag, off, ev) -> np.ndarray:
    """Sign each column of a stack of eigenvector matrices ``vecs``
    (B, dim, dim) of the symmetric tridiagonal matrices (``diag``,
    positive ``off``) so that its last row is positive; ``ev`` (B, dim)
    holds the exact eigenvalues, ascending.

    The last entry can underflow, so each column carries the sign down to
    its largest entry with the Sturm pivots of the eigenvalue equation,
    v[i] = v[i+1] g[i+1] / off[i] with g[i] = ev - diag[i] - off[i]^2 / g[i+1];
    a pivot rounding through zero flips the next pivot too, so the sign
    products stay right.
    """
    b, dim = diag.shape
    sign = np.ones((b, dim, dim))
    g = ev - diag[:, -1:]
    with np.errstate(divide="ignore"):
        for i in range(dim - 2, -1, -1):
            sign[:, i] = np.where(g < 0, -sign[:, i + 1], sign[:, i + 1])
            g = ev - diag[:, i : i + 1] - off[:, i : i + 1] ** 2 / g
    rows, cols = np.arange(b)[:, None], np.arange(dim)
    peak = np.argmax(np.abs(vecs), axis=1)
    return vecs * (sign[rows, peak, cols] * np.sign(vecs[rows, peak, cols]))[:, None, :]


def overlap_matrix(ja, jb, jc, j) -> np.ndarray:
    """Orthogonal change of basis between the (ab)c and a(bc) coupling
    schemes in the sector of total momentum j.

    Rows run over j_ab and columns over j_bc, both descending.  The sign
    convention is Condon-Shortley throughout: the top row (largest j_ab) is
    positive, since a stretched triad leaves one Racah term, of sign
    (-1)^(ja+jb+jc+J).
    """
    ja2, jb2, jc2, j2 = _twice(ja), _twice(jb), _twice(jc), _twice(j)
    jab, jbc = intermediate_couplings(ja, jb, jc, j)
    if not jab or not jbc:
        raise ValueError(
            f"empty coupling sector ja={HalfInt(ja2)} jb={HalfInt(jb2)} "
            f"jc={HalfInt(jc2)} J={HalfInt(j2)}"
        )
    diag, off = _recoupling_tridiagonal([ja2], [jb2], [jc2], [j2], len(jab))
    ev = np.array([[y.twice * (y.twice + 2.0) for y in reversed(jbc)]])
    lam = _condon_shortley(_eigenvectors(diag, off), diag, off, ev)[0]
    return lam[::-1, ::-1].copy()


def wigner_d(j, theta: float) -> np.ndarray:
    """Rotation matrix d^j(theta) = <j m| exp(-i theta J_y) |j m'>, rows and
    columns over ascending m.

    In the |j m> basis 2 J_x is real symmetric tridiagonal with eigenvalues
    2m, and the phase S = diag((-i)^k) takes J_x to J_y = S J_x S^dagger, so
    d = S U diag(e^(-i theta m)) U^T S^dagger with U the eigenvectors of
    2 J_x.  U enters only as U (.) U^T, so its column signs never matter.
    """
    j2 = _twice(j)
    m2 = np.arange(-j2, j2 + 1, 2.0)
    off = np.sqrt((j2 - m2[:-1]) * (j2 + m2[:-1] + 2.0)) / 2.0
    u = _eigenvectors(np.zeros((1, j2 + 1)), off[None])[0]
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
