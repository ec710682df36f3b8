"""Programmable discrimination machines for qubits.

A device with two program ports (n copies of each unknown state) and one
data port (nprime copies of the state to label) is optimal when it
discriminates the two direction-averaged global states.  Averaging makes
those states block diagonal over total-spin sectors, so every rate below
reduces to small per-sector computations: binomial overlaps for pure
states, and multiplicity-weighted trace norms of small rotated blocks for
mixed states of known or unknown purity (two-level blocks in closed form).
Error margins interpolate between the unambiguous and minimum-error extremes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial import legendre

from .angular import (
    _recoupling_tridiagonal,
    block_coefficient,
    check_spin,
    jordan_overlap,
    multiplicity_table,
    recoupling_batch,
)
from .linalg import check_count, check_purity

# discarded total block mass in the mixed-state sums; the induced error on
# the error probability is at most a quarter of this
_MASS_TOL = 1e-14
# batch size of the mixed-state sums: sectors enumerated at a time, and
# matrix entries per batched recoupling eigensolve
_BATCH_ELEMENTS = 1 << 20
# the mixed-state sums refuse n + nprime above _MAX_COPIES: every block coefficient
# of weight above 2^-100 stays a normal float, and far from overflow once scaled
_MAX_COPIES = 900
# zeta_series stops at the first term below _ZETA_TOL and refuses an x that
# would need more than _ZETA_MAX_TERMS terms (a fraction of a second)
_ZETA_TOL = 1e-15
_ZETA_MAX_TERMS = 10**6


class Rates(NamedTuple):
    q: float
    pe: float


@dataclass(frozen=True)
class PortLoad:
    """Copies fed to the two program ports (a, c) and the data port (b)."""

    n_a: int
    n_b: int
    n_c: int

    def __post_init__(self):
        for name in ("n_a", "n_b", "n_c"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))

    def canonical(self) -> "PortLoad":
        """The two program ports are interchangeable; orient n_a >= n_c."""
        if self.n_a >= self.n_c:
            return self
        return PortLoad(self.n_c, self.n_b, self.n_a)


@dataclass(frozen=True)
class PuritySpec:
    """Purity prior: a known value or one of three unbiased distributions."""

    kind: str
    r: float | None = None

    _KINDS = ("fixed", "hard-sphere", "bures", "chernoff")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.kind == "fixed":
            if self.r is None:
                raise ValueError("fixed purity requires r in [0, 1]")
            object.__setattr__(self, "r", check_purity(self.r))
        elif self.r is not None:
            raise ValueError(f"prior {self.kind!r} takes no purity value")


def pure_rates(n: int, nprime: int) -> Rates:
    """Inconclusive rate Q and minimum error Pe for pure states with n copies
    at each program port and nprime at the data port."""
    n, nprime = check_count("n", n), check_count("nprime", nprime)
    q = 1.0 - n * nprime / ((n + 1) * (nprime + 2))
    d = (n + 1) * (n + nprime + 1)
    pe_sum = 0.0
    for k in range(n + 1):
        c = jordan_overlap(n, nprime, k)
        pe_sum += (nprime + 2 * k + 1) / d * math.sqrt(max(0.0, 1.0 - c * c))
    return Rates(q=q, pe=(1.0 - pe_sum) / 2.0)


def general_rates(load: PortLoad) -> Rates:
    """Q and Pe for an arbitrary number of copies at every port.

    The two global states may differ in dimension; the part of the larger
    support outside the common one never produces errors, which yields the
    first (dimension-mismatch) term of Q.
    """
    load = load.canonical()
    na, nb, nc = load.n_a, load.n_b, load.n_c
    d1 = (na + nb + 1) * (nc + 1)
    d2 = (na + 1) * (nb + nc + 1)
    d_abc = na + nb + nc + 1

    def c2(k: int) -> float:
        num = math.comb(na + nb - nc + k, nb) * math.comb(nb + k, nb)
        den = math.comb(na + nb, nb) * math.comb(nc + nb, nb)
        return num / den

    q = 0.5 * (1 / math.sqrt(d1) - 1 / math.sqrt(d2)) ** 2 * d_abc
    pe = 0.0
    for k in range(nc + 1):
        dim_j = na + nb - nc + 2 * k + 1
        q += dim_j * math.sqrt(c2(k)) / math.sqrt(d1 * d2)
        pe -= (
            (d1 + d2)
            / (d1 * d2)
            * dim_j
            * math.sqrt(max(0.0, 1.0 - 4.0 * d1 * d2 / (d1 + d2) ** 2 * c2(k)))
        )
    pe = 0.25 * (1.0 + d1 / d2 + pe)
    return Rates(q=q, pe=pe)


def zeta_series(x: float) -> float:
    """sum_k (1 - sqrt(1 - x^k)) for 0 < x < 1, summed until a term drops
    below 1e-15.  That takes about log(2e-15) / log(x) terms, so an x whose
    sum would need more than _ZETA_MAX_TERMS of them is refused."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x {x} outside (0, 1)")
    if math.log(2.0 * _ZETA_TOL) < _ZETA_MAX_TERMS * math.log(x):
        raise ValueError(f"x {x} too close to 1: the sum needs over {_ZETA_MAX_TERMS} terms")
    total = 0.0
    k = 0
    while True:
        term = 1.0 - math.sqrt(1.0 - x**k)
        total += term
        if k > 0 and term < _ZETA_TOL:
            return total
        k += 1


def pure_asymptotics(mode: str, n: int | None = None, nprime: int | None = None) -> Rates:
    """Closed-form limiting rates of the pure-state machine.

    mode="program-limit": infinitely many program copies, nprime data copies
        (pass n to include the 1 - 1/n approach of the error term).
    mode="data-limit": infinitely many data copies, n program copies; the
        machine degenerates to state comparison.
    mode="symmetric": n = nprime large; both rates decay as 1/n.
    """
    if mode == "program-limit":
        nprime = check_count("nprime", nprime)
        if n is not None:
            n = check_count("n", n)
        q = 2.0 / (nprime + 2)
        pe = 0.5 - (
            math.sqrt(math.pi)
            / 4.0
            * math.gamma(1.0 + 1.0 / nprime)
            / math.gamma(1.5 + 1.0 / nprime)
        ) * (1.0 - (1.0 / n if n else 0.0))
        return Rates(q=q, pe=pe)
    if mode == "data-limit":
        n = check_count("n", n)
        return Rates(q=1.0 / (n + 1), pe=1.0 / (2 * (n + 1)))
    if mode == "symmetric":
        n = check_count("n", n)
        return Rates(q=3.0 / n, pe=0.75 * zeta_series(0.25) / n)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# mixed states: block sums
# ---------------------------------------------------------------------------


def _prior_table(prior: PuritySpec, m: int) -> np.ndarray:
    """Block coefficient of an m-fold power under a purity prior, indexed by
    the doubled spin."""
    if prior.kind == "chernoff":
        return _chernoff_table(m)
    out = np.zeros(m + 1)
    for j2 in range(m % 2, m + 1, 2):
        out[j2] = (block_coefficient(m, j2 / 2, prior.r) if prior.kind == "fixed"
                   else averaged_block_coefficient(prior.kind, m, j2 / 2))
    return out


def _nu_split(m: int):
    """multiplicity_table(m) as mantissas in [1/2, 1) and exact exponents of 2."""
    exp = [v.bit_length() for v in multiplicity_table(m)]
    return np.array([v / (1 << e) for v, e in zip(multiplicity_table(m), exp)]), np.array(exp)


def _block_error(n: int, nprime: int, tables) -> list[float]:
    """Minimum errors from the sector-by-sector trace norms, one per table.

    ``tables`` is a sequence of (coeff_n, coeff_t) pairs: the (possibly
    prior-averaged) block coefficient tables of the n-fold and
    (n+nprime)-fold powers.  Sectors are labelled by the port spins and the
    total spin; equivalent representations enter only through multiplicative
    weights, mantissas times exact powers of two so that none overflows.
    Each table is pruned by its own mass: the (ja, jb, jc) triples whose
    combined trace weight is negligible for it (total discarded mass below
    _MASS_TOL) are skipped, so each error keeps exactly the sectors it would
    keep alone.  The sectors of the union of kept triples are enumerated
    once, and each recoupling matrix serves every table that keeps its sector.

    Both program ports carry n copies, so swapping ja and jc maps the sector
    matrix M = diag(s1) - Lambda diag(s2) Lambda^T onto -Lambda^T M Lambda:
    s1 and s2 trade places and Lambda becomes its transpose.  The mirror has
    the same |eigenvalues| and the same mass, so only triples with ja <= jc
    are enumerated and those with ja < jc count twice.  Sectors are built and
    solved in batches of bounded size (see _sector_sums), so the memory stays
    bounded as n grows.
    """
    (mant_n, exp_n), (mant_p, exp_p) = _nu_split(n), _nu_split(nprime)
    ja2, jb2, jc2 = (g.ravel() for g in np.meshgrid(
        *(range(m % 2, m + 1, 2) for m in (n, nprime, n)), indexing="ij"))
    folded = ja2 <= jc2
    ja2, jb2, jc2 = ja2[folded], jb2[folded], jc2[folded]
    # nu_a nu_b nu_c = weight 2^shift, with the mirror's 2 in weight; the
    # power of two scales one factor, exactly, before it meets the other, and
    # leaves it below 2^(n + nprime + 3) (see _MAX_COPIES)
    weight = np.where(ja2 < jc2, 2.0, 1.0) * mant_n[ja2] * mant_p[jb2] * mant_n[jc2]
    shift = exp_n[ja2] + exp_p[jb2] + exp_n[jc2]

    # mass of each (ja, jb, jc) triple and its mirror: their total
    # trace-weight contribution to gamma * (tr sigma1 + tr sigma2), summed in
    # closed form over J; wsum[hi + 2] - wsum[lo] sums (x2 + 1) coeff_t[x2]
    # over lo <= x2 <= hi in steps of 2
    keep = np.zeros((len(tables), len(ja2)), dtype=bool)
    for row, (coeff_n, coeff_t) in zip(keep, tables):
        dim_t = np.arange(1, n + nprime + 2) * coeff_t
        wsum = np.zeros(n + nprime + 3)
        wsum[2::2] = np.cumsum(dim_t[0::2])
        wsum[3::2] = np.cumsum(dim_t[1::2])
        s_ab = np.ldexp(wsum[ja2 + jb2 + 2] - wsum[np.abs(ja2 - jb2)], shift)
        s_bc = np.ldexp(wsum[jb2 + jc2 + 2] - wsum[np.abs(jb2 - jc2)], shift)
        mass = weight * ((jc2 + 1) * coeff_n[jc2] * s_ab + (ja2 + 1) * coeff_n[ja2] * s_bc)
        order = np.argsort(mass, kind="stable")
        row[order[np.searchsorted(np.cumsum(mass[order]), _MASS_TOL, side="right"):]] = True

    # the sectors of the kept triples are enumerated about _BATCH_ELEMENTS
    # at a time, so that their index arrays stay bounded too
    used = np.flatnonzero(keep.any(axis=0))
    ja2, jb2, jc2, weight, shift = ja2[used], jb2[used], jc2[used], weight[used], shift[used]
    keep = keep[:, used]
    ends = np.cumsum(_j_range(ja2, jb2, jc2)[1])
    cuts = np.searchsorted(
        ends, np.arange(_BATCH_ELEMENTS, ends[-1], _BATCH_ELEMENTS), side="right"
    )
    # with equal loads (one copy each has no two sectors to share) the
    # recoupling matrices are shared across 6j orbits
    orbits = n == nprime > 1
    total = sum(
        _sector_sums(ja2[part], jb2[part], jc2[part], weight[part], shift[part],
                     keep[:, part], tables, orbits)
        for part in np.split(np.arange(len(ends)), cuts)
    )
    return [(1.0 - t / 2.0) / 2.0 for t in total.tolist()]


def _j_range(ja2, jb2, jc2):
    """Lowest doubled total spin of each triple and the number of total
    spins: J runs from the smallest |j_ab - jc| up to ja + jb + jc."""
    j_lo = np.maximum.reduce(
        [np.abs(ja2 - jb2) - jc2, jc2 - ja2 - jb2, (ja2 + jb2 + jc2) % 2]
    )
    return j_lo, (ja2 + jb2 + jc2 - j_lo) // 2 + 1


def _orbit_keys(a, b, c, d):
    """Orbit of each sector (a, b, c, d) = (ja, jb, jc, J), as doubled
    spins, under the eight relabellings that keep (j_ab, j_bc) as its
    intermediate pair, and whether its own labelling is a mirror of the
    orbit's label.

    The 6j symbol {a b x; c d y} is invariant under (b, a, d, c),
    (c, d, a, b) and (d, c, b, a), so those sectors share |Lambda| with the
    same row and column order; their a <-> c mirrors share |Lambda^T|
    (Schulten and Gordon, J. Math. Phys. 16, 1961 (1975)).  The label is the
    smallest packed image; a member whose mirror flag differs from another
    member's has the transpose of that member's |Lambda|.
    """
    base = int(max(a.max(), b.max(), c.max(), d.max())) + 1

    def pack(p, q, r, s):
        return ((p * base + q) * base + r) * base + s

    key, flip = pack(a, b, c, d), np.zeros(len(a), dtype=bool)
    for mirror, image in (
        (False, (b, a, d, c)), (False, (c, d, a, b)), (False, (d, c, b, a)),
        (True, (c, b, a, d)), (True, (d, a, b, c)), (True, (a, d, c, b)), (True, (b, c, d, a)),
    ):
        other = pack(*image)
        lower = other < key
        key = np.where(lower, other, key)
        flip[lower] = mirror
    return key, flip


def _sector_sums(ja2, jb2, jc2, weight, shift, keep, tables, orbits: bool) -> np.ndarray:
    """Sum of weight times trace norm over every sector of the given
    triples, one sum per table, which counts only the triples it keeps
    (``keep``, tables x triples); each sector holds the j_ab (and as many
    j_bc) allowed by both of its triads, and its n-fold coefficients are
    scaled by 2^shift.  A sector with one or two j_ab is solved in closed
    form, from T = 4 J_bc^2 alone; a larger one by a batched eigensolve.

    With ``orbits`` (equal loads, so that the data port and the total spin
    range over the program spins too) each larger recoupling matrix is built
    once per orbit of _orbit_keys, and a member of the other mirror class
    forms its M with s1 and s2 traded: -Lambda M Lambda^T of its own sector.
    Row and column signs of a shared Lambda enter M only as a diagonal +-1
    congruence, so no spectrum changes.  Each dimension group is solved in
    slices of whole orbits whose members hold about _BATCH_ELEMENTS matrix
    entries or fewer.
    """
    j_lo, count = _j_range(ja2, jb2, jc2)
    triple = np.repeat(np.arange(len(ja2)), count)
    j2 = j_lo[triple] + 2 * (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count))
    ja2, jb2, jc2, keep = ja2[triple], jb2[triple], jc2[triple], keep[:, triple]
    gamma = weight[triple] * (j2 + 1)
    x_lo = np.maximum(np.abs(ja2 - jb2), np.abs(j2 - jc2))
    y_lo = np.maximum(np.abs(jb2 - jc2), np.abs(ja2 - j2))
    dims = (np.minimum(ja2 + jb2, j2 + jc2) - x_lo) // 2 + 1
    everywhere = keep.all(axis=1)  # the tables that keep every triple here
    if orbits:
        # sectors by dimension, the members of one orbit side by side with
        # its first sector at the head, and mirror flags relative to the head
        key, flip = _orbit_keys(ja2, jb2, jc2, j2)
        order = np.lexsort((key, dims))
        key = key[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = key[1:] != key[:-1]
        rank = np.cumsum(head) - 1  # the orbit of each sector
        flip = flip[order]
        flip ^= flip[head][rank]
    else:
        order = np.argsort(dims, kind="stable")
    dims = dims[order]

    total = np.zeros(len(tables))
    bounds = (np.flatnonzero(dims[1:] != dims[:-1]) + 1).tolist()
    for lo, hi in zip([0] + bounds, bounds + [len(dims)]):
        dim = int(dims[lo])
        step = max(1, _BATCH_ELEMENTS // (dim * dim))
        idx = np.arange(dim)
        cuts = list(range(lo + step, hi, step))
        if orbits and cuts:
            # a slice holds whole orbits: it ends before the first head
            # past step members
            heads = lo + np.flatnonzero(head[lo:hi])
            cuts = heads[np.flatnonzero(np.diff((heads - lo) // step)) + 1].tolist()
        for a, b in zip([lo] + cuts, cuts + [hi]):
            sel = order[a:b]
            reps = sel[head[a:b]] if orbits else sel
            up = shift[triple[sel]]  # each sector's power of two
            if dim == 1:  # one j_ab: P plays no part
                lam = np.zeros((len(sel), 1))
            elif dim == 2:  # P of _two_level_norms
                lam = np.hstack(_recoupling_tridiagonal(ja2[sel], jb2[sel], jc2[sel], j2[sel], dim))
                lam[:, :dim] -= y_lo[sel][:, None] * (y_lo[sel][:, None] + 2.0)
                lam /= 4.0 * y_lo[sel][:, None] + 8.0
            elif len(reps) < len(sel):
                # the members' copy first: the heads' matrices, freed once it
                # is filled, then leave no hole below it in the heap
                lam = np.empty((len(sel), dim, dim))
                np.take(recoupling_batch(ja2[reps], jb2[reps], jc2[reps], j2[reps], dim),
                        rank[a:b] - rank[a], axis=0, out=lam)
            else:
                lam = recoupling_batch(ja2[reps], jb2[reps], jc2[reps], j2[reps], dim)
            for t, (coeff_n, coeff_t) in enumerate(tables):
                if everywhere[t]:
                    kept, mem, lam_t, up_t = slice(None), sel, lam, up
                else:
                    kept = keep[t, sel]
                    mem, lam_t, up_t = sel[kept], lam[kept], up[kept]
                    if not len(mem):
                        continue
                ca, cc = (np.ldexp(coeff_n[j[mem]], up_t) for j in (ja2, jc2))
                s1 = coeff_t[x_lo[mem][:, None] + 2 * idx] * cc[:, None]
                s2 = ca[:, None] * coeff_t[y_lo[mem][:, None] + 2 * idx]
                if dim <= 2:
                    w = _two_level_norms(s1, s2, lam_t)
                else:
                    if orbits:
                        swap = flip[a:b][kept][:, None]
                        s1, s2 = np.where(swap, s2, s1), np.where(swap, s1, s2)
                    m = -(lam_t * s2[:, None, :]) @ lam_t.transpose(0, 2, 1)
                    m[:, idx, idx] += s1
                    w = np.abs(np.linalg.eigvalsh(m)).sum(axis=1)
                total[t] += float(gamma[mem] @ w)
    return total


def _two_level_norms(s1, s2, p) -> np.ndarray:
    """Trace norms of sector matrices M = diag(s1) - Lambda diag(s2) Lambda^T
    with one or two j_ab: Lambda diag(s2) Lambda^T = s2_0 + (s2_1 - s2_0) P, the
    upper eigenprojector P = (T - y (y + 2)) / (4 y + 8) of T = 4 J_bc^2 held in
    ``p`` as diag(P), P[0, 1]; ||[[a, b], [b, c]]||_1 = max(|a + c|, hypot(a - c, 2b))."""
    rise = s2[:, -1] - s2[:, 0]
    m = s1 - s2[:, :1] - rise[:, None] * p[:, : s1.shape[1]]
    return np.maximum(np.abs(m.sum(axis=1)), np.hypot(m[:, 0] - m[:, -1], 2.0 * rise * p[:, -1]))


def universal_errors(priors: Sequence[PuritySpec], n: int, nprime: int) -> list[float]:
    """Minimum errors of the fully universal machine at one port load, one
    per purity prior, in order.

    A fixed-purity prior is a state of known purity (see :func:`mixed_error`);
    the isotropic direction average is the same for every prior, so only the
    block coefficients are replaced by their prior averages.  The priors
    share one pass over the sectors, so each recoupling matrix is built once
    for all of them; each value is the one-prior value to rounding.
    """
    n, nprime = check_count("n", n), check_count("nprime", nprime)
    if n + nprime > _MAX_COPIES:
        raise ValueError(f"n {n} plus nprime {nprime} is above {_MAX_COPIES} copies")
    tables = [(_prior_table(p, n), _prior_table(p, n + nprime)) for p in priors]
    return _block_error(n, nprime, tables) if tables else []


def mixed_error(n: int, nprime: int, r: float) -> float:
    """Minimum error of the programmable machine for states of known purity r.

    Reduces to :func:`pure_rates` at r = 1 and decreases with r.
    """
    return universal_errors([PuritySpec("fixed", r)], n, nprime)[0]


def mixed_asymptote(n: int, r: float) -> float:
    """Large-n error 1/2 - r/3 + 1/(3 n r) for one data copy.

    The expansion breaks down for purities of order 1/n; r = 0 is singular.
    """
    n = check_count("n", n)
    r = check_purity(r, zero=False, note="; the r = 0 limit is singular")
    return 0.5 - r / 3.0 + 1.0 / (3.0 * n * r)


def averaged_block_coefficient(kind: str, m: int, j) -> float:
    """Block coefficient of an m-fold power averaged over a purity prior.

    kind "hard-sphere" uses w(r) ~ r^2, "bures" w(r) ~ r^2/sqrt(1-r^2), and
    "chernoff" the distinguishability-induced measure, whose average is read
    from the quadrature table of :func:`_chernoff_table`.
    """
    m = check_count("m", m)
    j2 = check_spin("j", j, m)
    half_m = m / 2.0
    jv = j2 / 2.0
    if kind == "hard-sphere":
        return 6.0 * math.exp(
            math.lgamma(half_m + jv + 2.0)
            + math.lgamma(half_m - jv + 1.0)
            - math.lgamma(m + 4.0)
        )
    if kind == "bures":
        return (4.0 / math.pi) * math.exp(
            math.lgamma(half_m + jv + 1.5)
            + math.lgamma(half_m - jv + 0.5)
            - math.lgamma(m + 3.0)
        )
    if kind == "chernoff":
        return float(_chernoff_table(m)[j2])
    raise ValueError(f"unknown prior kind {kind!r}")


@lru_cache(maxsize=64)
def _chernoff_table(m: int) -> np.ndarray:
    """Chernoff-prior block coefficients of an m-fold power, indexed by 2j.

    Under t = sin^2, the summand B_1/2(a, b) - 2 B_1/2(a + 1/2, b + 1/2) of
    the average at mu = 2 m_z is 2 int_0^(pi/4) sin^(m-mu) cos^(m+mu)
    (cos - sin)^2, non-negative, and each window |mu| <= 2j sums the positive
    pairs f(mu) + f(-mu): nothing cancels.  The peaks are about 1/sqrt(m)
    wide, so 3 sqrt(m) + 16 Gauss-Legendre nodes suffice (within 5e-14 of
    60-digit values through m = 300).
    """
    x, w = legendre.leggauss(int(3 * math.sqrt(m)) + 16)
    theta = (x + 1.0) * (math.pi / 8.0)
    s, c = np.sin(theta), np.cos(theta)
    mu = np.arange(-m, m + 1, 2)[:, None]
    f = (s ** (m - mu) * c ** (m + mu)) @ (w * (c - s) ** 2)
    pairs = (f + f[::-1])[(m + 1) // 2 :]
    if m % 2 == 0:
        pairs[0] /= 2.0
    out = np.zeros(m + 1)
    j2 = np.arange(m % 2, m + 1, 2)
    out[j2] = np.cumsum(pairs) * (math.pi / 2.0) / ((math.pi - 2.0) * (j2 + 1))
    out.flags.writeable = False
    return out


def universal_error(prior: PuritySpec, n: int, nprime: int) -> float:
    """Minimum error of the fully universal machine under a purity prior
    (see :func:`universal_errors`); a fixed-purity prior degenerates to
    :func:`mixed_error`."""
    return universal_errors([prior], n, nprime)[0]


# ---------------------------------------------------------------------------
# error margins
# ---------------------------------------------------------------------------


class MarginCurve(NamedTuple):
    """Success rate at a global margin with the per-sector margins and the
    (weak) saturation points where sectors freeze at their critical values."""

    p_success: float
    per_subspace_margins: tuple
    saturation_points: tuple


@lru_cache(maxsize=128)
def _margin_tables(n: int, nprime: int):
    """Per-sector overlaps, weights, critical margins and saturation ladder."""
    count = n + 1
    c = np.array([jordan_overlap(n, nprime, k) for k in range(count)])
    p = np.array(
        [(nprime + 2 * k + 1) / ((n + 1) * (n + nprime + 1)) for k in range(count)]
    )
    rc = (1.0 - np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0
    # xi[b]: frozen-error mass below sector b; chi[b]: remaining 1-c weight
    xi = np.concatenate([[0.0], np.cumsum(p * rc)])
    chi = np.concatenate([np.cumsum((p * (1.0 - c))[::-1])[::-1], [0.0]])
    r_global = float(np.sum(p * rc))
    sat = []
    for b in range(count - 1):
        sat.append(rc[b] / (1.0 - c[b]) * chi[b] + xi[b])
    sat.append(r_global)
    psat = np.concatenate(
        [[0.0], np.cumsum(0.5 * p * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))))]
    )
    return c, p, rc, xi, chi, np.array(sat), psat, r_global


def _weak_eval(n: int, nprime: int, big_r: float):
    """Success rate and per-sector weak margins at global weak margin big_r."""
    c, p, rc, xi, chi, sat, psat, r_global = _margin_tables(n, nprime)
    count = n + 1
    if big_r >= r_global:
        ps = 1.0 - pure_rates(n, nprime).pe
        return ps, np.array(rc), sat
    b = bisect.bisect_left(sat, big_r)  # sectors 0..b-1 are frozen
    margins = np.array(rc)
    if chi[b] > 0.0:
        margins[b:] = (1.0 - c[b:]) * (big_r - xi[b]) / chi[b]
    else:
        # only the totally symmetric sector (c = 1) remains: the success
        # rate grows linearly with the allowed error
        margins[count - 1] = (big_r - xi[b]) / p[count - 1]
    ps = psat[b] + (math.sqrt(max(0.0, big_r - xi[b])) + math.sqrt(chi[b])) ** 2
    return ps, margins, sat


def _weak_from_strong(n: int, nprime: int, r_strong: float) -> float:
    """Invert the strong->weak margin map r_s = r_w / (P_s(r_w) + r_w).

    Piecewise closed form: inside each saturation interval P_s(r_w) is a
    shifted square-root square, so the inverse solves a quadratic in
    sqrt(r_w - xi_b).
    """
    c, p, rc, xi, chi, sat, psat, r_global = _margin_tables(n, nprime)
    if r_strong >= r_global:
        return r_global
    # strong saturation ladder through the same measurement correspondence
    sat_strong = []
    for b, rw in enumerate(sat):
        ps, _, _ = _weak_eval(n, nprime, rw)
        sat_strong.append(rw / (ps + rw) if ps + rw > 0 else 0.0)
    b = bisect.bisect_left(sat_strong, r_strong)
    s = r_strong
    # s * (psat_b + (u + sqrt(chi_b))^2 + xi_b + u^2) = xi_b + u^2
    a2 = 2.0 * s - 1.0
    a1 = 2.0 * s * math.sqrt(chi[b])
    a0 = s * (psat[b] + chi[b] + xi[b]) - xi[b]
    if abs(a2) < 1e-15:
        u = -a0 / a1 if a1 != 0.0 else 0.0
    else:
        disc = max(0.0, a1 * a1 - 4.0 * a2 * a0)
        u = (-a1 + math.sqrt(disc)) / (2.0 * a2)
        if u < 0.0:
            u = (-a1 - math.sqrt(disc)) / (2.0 * a2)
    u = max(0.0, u)
    return min(xi[b] + u * u, r_global)


def margin_success(n: int, nprime: int, big_r: float, scheme: str = "weak") -> MarginCurve:
    """Maximum success rate of the machine under a global error margin.

    The weak condition bounds the average mislabeling rate; the strong one
    bounds each conditional mislabeling probability and maps onto a tighter
    weak margin.  At zero margin the rate equals the unambiguous success
    rate, and beyond the critical margin it equals one minus the
    minimum-error rate.  Per-sector margins saturate at their critical
    values in order of increasing sector overlap.
    """
    n, nprime = check_count("n", n), check_count("nprime", nprime)
    if not 0.0 <= big_r <= 1.0:
        raise ValueError(f"margin {big_r} outside [0, 1]")
    if scheme == "weak":
        ps, margins, sat = _weak_eval(n, nprime, big_r)
        return MarginCurve(ps, tuple(margins), tuple(sat))
    if scheme != "strong":
        raise ValueError(f"scheme must be 'weak' or 'strong', got {scheme!r}")
    rw = _weak_from_strong(n, nprime, big_r)
    ps, weak_margins, sat = _weak_eval(n, nprime, rw)
    c, p, rc, *_ = _margin_tables(n, nprime)
    strong_margins = []
    for k, (rm, ck) in enumerate(zip(weak_margins, c)):
        if ck >= 1.0:
            strong_margins.append(0.5)  # the symmetric sector is always frozen
        elif rm >= rc[k] - 1e-15:
            strong_margins.append(rc[k])
        else:
            psk = (math.sqrt(rm) + math.sqrt(1.0 - ck)) ** 2
            strong_margins.append(rm / (psk + rm))
    return MarginCurve(ps, tuple(strong_margins), tuple(sat))
