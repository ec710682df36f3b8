"""Exact SU(2) combinatorics: Clebsch-Gordan coefficients, 6j symbols,
multiplicities of permutation-invariant qubit blocks, block coefficients of
tensor-power states, and the orthogonal recoupling matrices between the two
orders of coupling three angular momenta.

All angular momenta are carried as exact doubled integers (``2j``), which
removes half-integer parity bugs.  The scalar Clebsch-Gordan coefficient
is a single Racah sum over log-gamma terms; its alternating sum loses
precision as the spins grow, so it serves small spins and tests.

Recoupling matrices, and the scalar 6j symbol read from them, never go
through a Racah sum.  In the basis of the intermediate momentum j_ab, the
operator J_bc^2 is symmetric tridiagonal with entries built from a few
small integers (the Schulten-Gordon recursion, J. Math. Phys. 16, 1961
(1975)), and its eigenvector matrix is the recoupling matrix.  One batched
symmetric eigensolve over a stack of sectors gives every entry to about
1e-13, measured against exact rational 6j symbols through 2j = 400.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import check_purity


def _lf(n: int) -> float:
    return math.lgamma(n + 1)


@dataclass(frozen=True, order=True)
class HalfInt:
    """Angular momentum stored as the exact doubled value ``2j``."""

    twice: int

    @staticmethod
    def coerce(x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return HalfInt(2 * x)
        d = 2 * float(x)
        r = round(d)
        if abs(d - r) > 1e-9:
            raise ValueError(f"{x} is not an integer or half-integer")
        return HalfInt(int(r))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _twice(x) -> int:
    return HalfInt.coerce(x).twice


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


def _log_delta2(a2: int, b2: int, c2: int) -> float:
    return 0.5 * (
        _lf((a2 + b2 - c2) // 2)
        + _lf((a2 - b2 + c2) // 2)
        + _lf((-a2 + b2 + c2) // 2)
        - _lf((a2 + b2 + c2) // 2 + 1)
    )


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """<j1 m1; j2 m2 | j m> in the Condon-Shortley convention.

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

    log_pref = 0.5 * (
        math.log(j_2 + 1)
        + _lf((j_2 + m_2) // 2)
        + _lf((j_2 - m_2) // 2)
        + _lf((j1_2 + m1_2) // 2)
        + _lf((j1_2 - m1_2) // 2)
        + _lf((j2_2 + m2_2) // 2)
        + _lf((j2_2 - m2_2) // 2)
    ) + _log_delta2(j1_2, j2_2, j_2)

    # summation index z: all factorial arguments below must be nonnegative
    z_lo = max(0, (j2_2 - j_2 - m1_2) // 2, (j1_2 + m2_2 - j_2) // 2)
    z_hi = min(
        (j1_2 + j2_2 - j_2) // 2, (j1_2 - m1_2) // 2, (j2_2 + m2_2) // 2
    )
    terms = []
    for z in range(z_lo, z_hi + 1):
        log_t = (
            _lf(z)
            + _lf((j1_2 + j2_2 - j_2) // 2 - z)
            + _lf((j1_2 - m1_2) // 2 - z)
            + _lf((j2_2 + m2_2) // 2 - z)
            + _lf((j_2 - j2_2 + m1_2) // 2 + z)
            + _lf((j_2 - j1_2 - m2_2) // 2 + z)
        )
        terms.append((-1.0) ** z * math.exp(log_pref - log_t))
    return math.fsum(terms)


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


def multiplicity(n: int, j) -> int:
    """Number of equivalent spin-j blocks of n qubits.

    Counts standard two-row Young tableaux, equivalently nonnegative
    random-walk paths of n half-steps ending at j.
    """
    j2 = _twice(j)
    if n < 1 or j2 < 0 or j2 > n:
        raise ValueError(f"j={HalfInt(j2)} out of range for n={n}")
    if (n - j2) % 2:
        raise ValueError(f"j={HalfInt(j2)} has wrong parity for n={n}")
    k = (n - j2) // 2
    return math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)


def block_coefficient(n: int, j, r: float) -> float:
    """Diagonal weight (per basis state) of the spin-j block of an n-fold
    tensor power of a qubit of purity r.

    Satisfies sum_j multiplicity * (2j+1) * coefficient = 1.
    """
    r = check_purity(r)
    j2 = _twice(j)
    if (n - j2) % 2 or j2 < 0 or j2 > n:
        raise ValueError(f"j={HalfInt(j2)} invalid for n={n}")
    k = (n - j2) // 2
    if r == 0.0:
        return 0.5**n
    # singlet pairs contribute det(rho) each; the rest is the trace of the
    # symmetric part, (((1+r)/2)^J - ((1-r)/2)^J) / r with J = 2j+1, whose
    # difference is ((1+r)/2)^J (1 - e^(-2 J atanh r)), free of cancellation
    big_j = j2 + 1
    gap = 1.0 if r == 1.0 else -math.expm1(-2.0 * big_j * math.atanh(r))
    return ((1 - r * r) / 4) ** k * ((1 + r) / 2) ** big_j * (gap / (r * big_j))


def jordan_overlap(n: int, nprime: int, k: int) -> float:
    """Overlap of the paired orthogonal (Jordan) basis vectors of the two
    three-system couplings with n copies at each outer port and nprime in
    the middle, in the sector k = 0..n above the smallest total momentum.

    Equals C(n,k) / C(n+nprime, n-k); increases with k and reaches 1 in the
    totally symmetric sector k = n.
    """
    if n < 1 or nprime < 1:
        raise ValueError("port loads must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if n + nprime <= 60:
        return float(Fraction(math.comb(n, k), math.comb(n + nprime, n - k)))
    return math.exp(
        _lf(n) - _lf(k) - _lf(n - k)
        - (_lf(n + nprime) - _lf(n - k) - _lf(nprime + k))
    )


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


def overlap_matrix(ja, jb, jc, j) -> np.ndarray:
    """Orthogonal change of basis between the (ab)c and a(bc) coupling
    schemes in the sector of total momentum j.

    Rows run over j_ab and columns over j_bc, both descending.  The sign
    convention is Condon-Shortley throughout.
    """
    ja2, jb2, jc2, j2 = _twice(ja), _twice(jb), _twice(jc), _twice(j)
    jab, jbc = intermediate_couplings(ja, jb, jc, j)
    if not jab or not jbc:
        raise ValueError(
            f"empty coupling sector ja={HalfInt(ja2)} jb={HalfInt(jb2)} "
            f"jc={HalfInt(jc2)} J={HalfInt(j2)}"
        )
    dim = len(jab)
    diag, off = _recoupling_tridiagonal([ja2], [jb2], [jc2], [j2], dim)
    lam = _eigenvectors(diag, off)[0]
    diag, off = diag[0], off[0]
    # In the Condon-Shortley convention the top row (largest j_ab) is
    # positive: a stretched triad leaves one Racah term, of sign
    # (-1)^(ja+jb+jc+J).  That entry can underflow, so each column carries
    # the sign down to its largest entry with the Sturm pivots of the
    # eigenvalue equation, v[i] = v[i+1] g[i+1] / off[i] with
    # g[i] = ev - diag[i] - off[i]^2 / g[i+1]; a pivot rounding through zero
    # flips the next pivot too, so the sign products stay right.
    ev = np.array([y.twice * (y.twice + 2.0) for y in reversed(jbc)])
    sign = np.ones((dim, dim))
    g = ev - diag[-1]
    with np.errstate(divide="ignore"):
        for i in range(dim - 2, -1, -1):
            sign[i] = np.where(g < 0, -sign[i + 1], sign[i + 1])
            g = ev - diag[i] - off[i] ** 2 / g
    peak = np.argmax(np.abs(lam), axis=0)
    cols = np.arange(dim)
    lam = lam * (sign[peak, cols] * np.sign(lam[peak, cols]))
    return lam[::-1, ::-1].copy()


@dataclass(frozen=True)
class BlockState:
    """Block form of an n-fold tensor power of a qubit aligned with z.

    ``blocks`` holds (j, multiplicity, diagonal block matrix of dim 2j+1)
    triples; the total trace sum_j nu_j tr(block_j) is 1.
    """

    n_copies: int
    purity: float
    blocks: tuple

    def total_trace(self) -> float:
        return float(
            sum(nu * np.trace(b).real for _, nu, b in self.blocks)
        )


def block_state(n: int, r: float) -> BlockState:
    """Assemble the z-aligned block decomposition of the n-fold power of a
    qubit with purity r."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = check_purity(r)
    blocks = []
    for j2 in range(n % 2, n + 1, 2):
        nu = multiplicity(n, HalfInt(j2))
        k = (n - j2) // 2
        det = (1 - r * r) / 4
        # diagonal over m = -j..j: det^k * ((1-r)/2)^(j-m) ((1+r)/2)^(j+m)
        m2 = np.arange(-j2, j2 + 1, 2)
        diag = det**k * ((1 - r) / 2) ** ((j2 - m2) / 2) * ((1 + r) / 2) ** (
            (j2 + m2) / 2
        )
        blocks.append((HalfInt(j2), nu, np.diag(diag.astype(complex))))
    return BlockState(n_copies=n, purity=r, blocks=tuple(blocks))


@lru_cache(maxsize=256)
def multiplicity_table(n: int) -> tuple:
    """multiplicity(n, j) indexed by the doubled momentum 2j (0 for parity
    mismatches)."""
    out = [0] * (n + 1)
    for j2 in range(n % 2, n + 1, 2):
        out[j2] = multiplicity(n, HalfInt(j2))
    return tuple(out)
