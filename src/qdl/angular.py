"""Exact SU(2) combinatorics: Clebsch-Gordan coefficients, 6j symbols,
multiplicities of permutation-invariant qubit blocks, block coefficients of
tensor-power states, and the orthogonal overlap matrices between the two
orders of coupling three angular momenta.

All angular momenta are carried as exact doubled integers (``2j``), which
removes half-integer parity bugs.  Factorials are exact integers up to 64!
and log-gamma based beyond; alternating sums run in log space with
compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import check_purity

# log k! table for the vectorized paths, grown on demand
_LOG_FACT = np.array([0.0])


def _log_fact_table(nmax: int) -> np.ndarray:
    global _LOG_FACT
    if _LOG_FACT.size <= nmax:
        hi = max(nmax + 1, 2 * _LOG_FACT.size, 128)
        _LOG_FACT = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, hi)))])
    return _LOG_FACT


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
    """Wigner 6j symbol {j1 j2 j12; j3 j j23} by the single-sum Racah form.

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
    log_pref = (
        _log_delta2(a2, b2, c2)
        + _log_delta2(a2, e2, f2)
        + _log_delta2(d2, b2, f2)
        + _log_delta2(d2, e2, c2)
    )
    s_abc = (a2 + b2 + c2) // 2
    s_aef = (a2 + e2 + f2) // 2
    s_dbf = (d2 + b2 + f2) // 2
    s_dec = (d2 + e2 + c2) // 2
    q_abde = (a2 + b2 + d2 + e2) // 2
    q_bcef = (b2 + c2 + e2 + f2) // 2
    q_acdf = (a2 + c2 + d2 + f2) // 2
    z_lo = max(s_abc, s_aef, s_dbf, s_dec)
    z_hi = min(q_abde, q_bcef, q_acdf)
    terms = []
    for z in range(z_lo, z_hi + 1):
        log_t = _lf(z + 1) - (
            _lf(z - s_abc)
            + _lf(z - s_aef)
            + _lf(z - s_dbf)
            + _lf(z - s_dec)
            + _lf(q_abde - z)
            + _lf(q_bcef - z)
            + _lf(q_acdf - z)
        )
        terms.append((-1.0) ** z * math.exp(log_pref + log_t))
    return math.fsum(terms)


def wigner6j_batch(a2, b2, c2, d2, e2, f2) -> np.ndarray:
    """Vectorized 6j over arrays of doubled angular momenta.

    Same value as :func:`wigner6j`; the alternating z-sum is accumulated with
    Kahan compensation.  Invalid triads yield 0.
    """
    a2, b2, c2, d2, e2, f2 = np.broadcast_arrays(
        *(np.asarray(x, dtype=np.int64) for x in (a2, b2, c2, d2, e2, f2))
    )
    shape = a2.shape
    a2, b2, c2, d2, e2, f2 = (x.ravel() for x in (a2, b2, c2, d2, e2, f2))

    def tri(x2, y2, z2):
        return (
            (np.abs(x2 - y2) <= z2)
            & (z2 <= x2 + y2)
            & ((x2 + y2 + z2) % 2 == 0)
            & (x2 >= 0)
            & (y2 >= 0)
            & (z2 >= 0)
        )

    ok = tri(a2, b2, c2) & tri(a2, e2, f2) & tri(d2, b2, f2) & tri(d2, e2, c2)
    out = np.zeros(a2.shape)
    if not np.any(ok):
        return out.reshape(shape)
    a2, b2, c2, d2, e2, f2 = (x[ok] for x in (a2, b2, c2, d2, e2, f2))
    lf = _log_fact_table(int((a2 + b2 + d2 + e2).max()) // 2 + 2)

    def log_delta(x2, y2, z2):
        return 0.5 * (
            lf[(x2 + y2 - z2) // 2]
            + lf[(x2 - y2 + z2) // 2]
            + lf[(-x2 + y2 + z2) // 2]
            - lf[(x2 + y2 + z2) // 2 + 1]
        )

    log_pref = (
        log_delta(a2, b2, c2)
        + log_delta(a2, e2, f2)
        + log_delta(d2, b2, f2)
        + log_delta(d2, e2, c2)
    )
    s1 = (a2 + b2 + c2) // 2
    s2 = (a2 + e2 + f2) // 2
    s3 = (d2 + b2 + f2) // 2
    s4 = (d2 + e2 + c2) // 2
    q1 = (a2 + b2 + d2 + e2) // 2
    q2 = (b2 + c2 + e2 + f2) // 2
    q3 = (a2 + c2 + d2 + f2) // 2
    z_lo = np.maximum.reduce([s1, s2, s3, s4])
    z_hi = np.minimum.reduce([q1, q2, q3])

    total = np.zeros(a2.shape)
    comp = np.zeros(a2.shape)
    for t in range(int((z_hi - z_lo).max()) + 1):
        z = z_lo + t
        live = z <= z_hi
        zl = z[live]
        log_t = lf[zl + 1] - (
            lf[zl - s1[live]]
            + lf[zl - s2[live]]
            + lf[zl - s3[live]]
            + lf[zl - s4[live]]
            + lf[q1[live] - zl]
            + lf[q2[live] - zl]
            + lf[q3[live] - zl]
        )
        term = np.where(zl % 2 == 0, 1.0, -1.0) * np.exp(log_pref[live] + log_t)
        # Kahan step
        y = term - comp[live]
        s = total[live] + y
        comp[live] = (s - total[live]) - y
        total[live] = s
    out[ok] = total
    return out.reshape(shape)


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
    # symmetric part, a geometric sum over magnetic numbers
    t = (((1 + r) / 2) ** (j2 + 1) - ((1 - r) / 2) ** (j2 + 1)) / r
    return ((1 - r * r) / 4) ** k * t / (j2 + 1)


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
    phase = -1.0 if ((ja2 + jb2 + jc2 + j2) // 2) % 2 else 1.0
    out = np.empty((len(jab), len(jbc)))
    for a, x in enumerate(jab):
        for b, y in enumerate(jbc):
            out[a, b] = (
                phase
                * math.sqrt((x.twice + 1) * (y.twice + 1))
                * wigner6j(HalfInt(ja2), HalfInt(jb2), x, HalfInt(jc2), HalfInt(j2), y)
            )
    return out


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
