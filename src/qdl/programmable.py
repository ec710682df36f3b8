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

import collections
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial import legendre

from .angular import (_block_coefficient, _recoupling_tridiagonal, check_spin, multiplicity_table,
                      recoupling_batch)
from .linalg import check_count, check_purity

# batch sizes of the mixed-state sums: sectors enumerated at a time; the
# entries of one slice's matrices, each (row, sector) pair's dim^2 entries
# and 64 more for its other arrays; and the sectors and (row, triple) pairs
# of a pass and the terms held before they are folded into exact sums, 100
# to 200 bytes each at their peak
_BATCH_SECTORS = 1 << 20
_BATCH_ELEMENTS = 1 << 18
_BATCH_PAIRS = 1 << 16
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
    at each program port and nprime at the data port: Q in closed form, Pe
    the weighted sum of the per-sector errors of :func:`_pure_table`."""
    n, nprime = check_count("n", n), check_count("nprime", nprime)
    q = 1.0 - n * nprime / ((n + 1) * (nprime + 2))
    return Rates(q=q, pe=_pure_table(n, nprime).pe)


def general_rates(load: PortLoad) -> Rates:
    """Q and Pe for an arbitrary number of copies at every port.

    The two global states may differ in dimension; the part of the larger
    support outside the common one never produces errors, which yields the
    first (dimension-mismatch) term of Q.  Pe is the math.fsum of the sector
    errors dim c^2 / (d1 + d2 + sqrt((d2 - d1)^2 + 4 d1 d2 (1 - c^2))), each
    non-negative, so nothing cancels.
    """
    load = load.canonical()
    na, nb, nc = load.n_a, load.n_b, load.n_c
    d1 = (na + nb + 1) * (nc + 1)
    d2 = (na + 1) * (nb + nc + 1)
    q = 0.5 * (1 / math.sqrt(d1) - 1 / math.sqrt(d2)) ** 2 * (na + nb + nc + 1)
    terms = []
    for k, c2 in enumerate(_jordan_sectors(na, nb, nc)[0].tolist()):
        dim_j = na + nb - nc + 2 * k + 1
        q += dim_j * math.sqrt(c2) / math.sqrt(d1 * d2)
        terms.append(dim_j * c2 / (d1 + d2 + math.sqrt((d2 - d1) ** 2 + 4 * d1 * d2 * (1.0 - c2))))
    return Rates(q=q, pe=math.fsum(terms))


@lru_cache(maxsize=32)
def _jordan_sectors(na: int, nb: int, nc: int) -> tuple[np.ndarray, np.ndarray]:
    """The Jordan sectors k = 0..nc of a load with na >= nc, read-only: each
    sector's squared overlap C(na + nb - nc + k, nb) C(nb + k, nb) / (C(na + nb,
    nb) C(nc + nb, nb)), and C(nb + k, nb) / C(nc + nb, nb), the overlap itself
    (:func:`angular.jordan_overlap`) when na = nc.  Exact integer recurrences in
    k give the numerators, and each value is one correctly rounded int division."""
    left, right, den_c = math.comb(na + nb - nc, nb), 1, math.comb(nc + nb, nb)
    den = math.comb(na + nb, nb) * den_c
    c2, c = np.empty(nc + 1), np.empty(nc + 1)
    for k in range(nc + 1):
        c2[k], c[k] = left * right / den, right / den_c
        left = left * (na + nb - nc + k + 1) // (na - nc + k + 1)
        right = right * (nb + k + 1) // (k + 1)
    c2.flags.writeable = c.flags.writeable = False
    return c2, c


_PureTable = collections.namedtuple("_PureTable", "c p rc xi chi psat sat strong pe")


@lru_cache(maxsize=128)
def _pure_table(n: int, nprime: int) -> _PureTable:
    """The sectors of the load (n, nprime, n), read-only: overlaps c, weights p
    and minimum errors rc (the critical margins); xi[b] and psat[b], the error
    and success frozen below sector b, and chi[b], the 1 - c weight from b up;
    the weak saturation points sat, the strong margins met at them, and Pe, the
    math.fsum of p rc.  Each rc = (1 - sqrt(1 - c^2)) / 2 is taken as c^2 / (2
    (1 + sqrt((1 - c) (1 + c)))), which does not cancel."""
    c2, c = _jordan_sectors(n, nprime, n)
    p = (nprime + 2 * np.arange(n + 1) + 1) / ((n + 1) * (n + nprime + 1))
    root = np.sqrt((1.0 - c) * (1.0 + c))
    rc = c2 / (2.0 * (1.0 + root))
    pe = math.fsum(p * rc)
    xi = np.concatenate([[0.0], np.cumsum(p * rc)])
    chi = np.concatenate([np.cumsum((p * (1.0 - c))[::-1])[::-1], [0.0]])
    psat = np.concatenate([[0.0], np.cumsum(0.5 * p * (1.0 + root))])
    sat = np.append(rc[:n] / (1.0 - c[:n]) * chi[:n] + xi[:n], pe)
    # the weak success rate at each saturation point (as _weak_eval) and
    # the strong margin r_w / (P_s + r_w) of the measurement that reaches it
    b = np.searchsorted(sat, sat)
    ps = np.where(sat >= pe, 1.0 - pe,
                  psat[b] + (np.sqrt(np.maximum(0.0, sat - xi[b])) + np.sqrt(chi[b])) ** 2)
    table = _PureTable(c, p, rc, xi, chi, psat, sat, sat / (ps + sat), pe)
    for v in table[:-1]:
        v.flags.writeable = False
    return table


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
    the doubled spin; m and the prior's purity are checked already."""
    if prior.kind == "chernoff":
        return _chernoff_table(m)
    out = np.zeros(m + 1)
    for j2 in range(m % 2, m + 1, 2):
        out[j2] = (_block_coefficient(m, j2, prior.r) if prior.kind == "fixed"
                   else _averaged_coefficient(prior.kind, m, j2))
    return out


def _block_error(rows) -> list[float]:
    """Minimum errors from the sector-by-sector trace norms, one per row
    (n, nprime, coeff_n, coeff_t): the (possibly prior-averaged) block
    coefficient tables of the n-fold and (n+nprime)-fold powers at the load
    (n, nprime), the rows of one load side by side.

    Sectors are labelled by the port spins and the total spin; equivalent
    representations enter only through multiplicative weights, mantissas
    times exact powers of two so that none overflows.  Each row is pruned
    by its own mass: the lightest (ja, jb, jc) triples, of total trace
    weight up to 2^-52 times the load's pure-state error (a lower bound on
    every row's error, so the value moves by a quarter ulp at most), are
    skipped, and each row's own terms are summed exactly.

    Both program ports carry n copies, so swapping ja and jc maps the sector
    matrix M = diag(s1) - Lambda diag(s2) Lambda^T onto -Lambda^T M Lambda:
    s1 and s2 trade places and Lambda becomes its transpose.  The mirror has
    the same |eigenvalues| and the same mass, so only triples with ja <= jc
    are enumerated and those with ja < jc count twice.

    The rows go through _pass in order, in passes of whole rows holding
    about _BATCH_PAIRS sectors and (row, triple) pairs or fewer, so memory
    stays bounded; no value depends on the pass it falls in.
    """
    cost, last = [], None
    for n, nprime, _, _ in rows:
        ja2, *_, sectors = _load(n, nprime)
        cost.append(len(ja2) + ((n, nprime) != last) * sectors)
        last = (n, nprime)
    fill = np.cumsum(cost, dtype=int) // _BATCH_PAIRS
    return [e for _, part in itertools.groupby(zip(fill.tolist(), rows), lambda p: p[0])
            for e in _pass([row for _, row in part])]


def _pass(rows) -> list[float]:
    """_block_error of the rows (n, nprime, coeff_n, coeff_t), one sector pass for all."""
    coeff_n = np.zeros((len(rows), max(n for n, _, _, _ in rows) + 1))
    coeff_t = np.zeros((len(rows), max(n + p for n, p, _, _ in rows) + 1))
    triples, row = [], 0
    for (n, nprime), load in itertools.groupby(rows, lambda r: r[:2]):
        load = list(load)
        ja2, jb2, jc2, weight, shift, _ = _load(n, nprime)
        # mass of each (ja, jb, jc) triple and its mirror, one per row:
        # their total trace-weight contribution to gamma * (tr sigma1 + tr
        # sigma2), summed in closed form over J; wsum[hi + 2] - wsum[lo] sums
        # (x2 + 1) coeff_t[x2] over lo <= x2 <= hi in steps of 2
        table_n = coeff_n[row:row + len(load), :n + 1]
        table_t = coeff_t[row:row + len(load), :n + nprime + 1]
        _, _, table_n[:], table_t[:] = zip(*load)
        dim_t = np.arange(1, n + nprime + 2) * table_t
        wsum = np.zeros((len(load), n + nprime + 3))
        wsum[:, 2::2] = np.cumsum(dim_t[:, 0::2], axis=1)
        wsum[:, 3::2] = np.cumsum(dim_t[:, 1::2], axis=1)
        s_ab = np.ldexp(wsum[:, ja2 + jb2 + 2] - wsum[:, np.abs(ja2 - jb2)], shift)
        s_bc = np.ldexp(wsum[:, jb2 + jc2 + 2] - wsum[:, np.abs(jb2 - jc2)], shift)
        mass = weight * ((jc2 + 1) * table_n[:, jc2] * s_ab + (ja2 + 1) * table_n[:, ja2] * s_bc)
        # a row keeps its triples past the lightest ones of total mass up to
        # 2^-52 of the load's pure-state error; the triples kept by any row,
        # with the rows that keep each
        tol = 2.0**-52 * pure_rates(n, nprime).pe
        light = (np.cumsum(np.sort(mass, axis=1), axis=1) <= tol).sum(axis=1)
        keep = np.argsort(np.argsort(mass, axis=1, kind="stable"), axis=1) >= light[:, None]
        used = keep.any(axis=0)
        keep = keep[:, used]
        triples.append((ja2[used], jb2[used], jc2[used], weight[used], shift[used],
                        keep.sum(axis=0), np.nonzero(keep.T)[1] + row))
        row += len(load)
    totals = _sector_sums(*map(np.concatenate, zip(*triples)), coeff_n, coeff_t)
    return [(1.0 - t / 2.0) / 2.0 for t in totals]


@lru_cache(maxsize=32)
def _load(n: int, nprime: int):
    """The triples of a load, read-only: the doubled port spins (ja, jb, jc)
    with ja <= jc, their weight and shift, and the number of their sectors."""
    # the multiplicities as mantissas in [1/2, 1) and exact exponents of 2
    (mant_n, exp_n), (mant_p, exp_p) = ((np.array([v / (1 << v.bit_length()) for v in nu]),
                                         np.array([v.bit_length() for v in nu], dtype=np.intc))
                                        for nu in map(multiplicity_table, (n, nprime)))
    k, a, b = np.arange((n // 2 + 1) ** 2 * (nprime // 2 + 1)), n // 2 + 1, nprime // 2 + 1
    grid = 2 * np.array((k // (a * b), k // a % b, k % a))
    spins = (grid + [[n % 2], [nprime % 2], [n % 2]])[:, grid[0] <= grid[2]]
    ja2, jb2, jc2 = spins
    # nu_a nu_b nu_c = weight 2^shift, with the mirror's 2 in weight; the
    # power of two scales one factor, exactly, before it meets the other, and
    # leaves it below 2^(n + nprime + 3) (see _MAX_COPIES)
    weight = np.where(ja2 < jc2, 2.0, 1.0) * mant_n[ja2] * mant_p[jb2] * mant_n[jc2]
    shift = exp_n[ja2] + exp_p[jb2] + exp_n[jc2]
    for v in (spins, weight, shift):
        v.flags.writeable = False
    return ja2, jb2, jc2, weight, shift, int(_j_range(ja2, jb2, jc2)[1].sum())


def _j_range(ja2, jb2, jc2):
    """Lowest doubled total spin of each triple and the number of total
    spins: J runs from the smallest |j_ab - jc| up to ja + jb + jc."""
    j_lo = np.maximum(np.maximum(np.abs(ja2 - jb2) - jc2, jc2 - ja2 - jb2), (ja2 + jb2 + jc2) % 2)
    return j_lo, (ja2 + jb2 + jc2 - j_lo) // 2 + 1


def _runs(count):
    """Run of each element of consecutive runs of the given lengths, and its place in it."""
    run = np.repeat(np.arange(len(count)), count)
    return run, np.arange(len(run)) - (np.cumsum(count) - count)[run]


# the relabellings of _orbit_keys as positions in (a, b, c, d) and its Regge
# image (4 to 7): the identity, three 6j symmetries and their a <-> c mirrors
_IMAGES = np.array([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0),
                    (2, 1, 0, 3), (3, 0, 1, 2), (0, 3, 2, 1), (1, 2, 3, 0)])
_IMAGES, _MIRRORS = np.vstack([_IMAGES, _IMAGES + 4]), np.arange(16) % 8 >= 4


def _orbit_keys(a, b, c, d):
    """Orbit of each sector (a, b, c, d) = (ja, jb, jc, J), as doubled
    spins, under the sixteen relabellings that keep (j_ab, j_bc) as its
    intermediate pair: the orbit's key, whether the sector is a mirror of
    the orbit's label, and that label (the sector of the key, as (4, B)).

    The 6j symbol {a b x; c d y} is invariant under (b, a, d, c),
    (c, d, a, b) and (d, c, b, a), so those sectors share |Lambda| with the
    same row and column order; their a <-> c mirrors share |Lambda^T|
    (Schulten and Gordon, J. Math. Phys. 16, 1961 (1975)).  Regge's image
    (s - a, s - b, s - c, s - d), s = (a + b + c + d) / 2, keeps x and y
    and commutes with all eight (T. Regge, Nuovo Cimento 11, 116 (1959)),
    so it doubles each orbit.  The key is the smallest image packed in base
    (largest spin + 1), exact in floats below 2^53 (see _MAX_COPIES); a
    mirror has the transpose of its label's |Lambda|.
    """
    s = (a + b + c + d) // 2
    spins = np.stack([a, b, c, d, s - a, s - b, s - c, s - d])
    base = int(spins.max(initial=0)) + 1
    weights = np.zeros((16, 8))
    weights[np.arange(16)[:, None], _IMAGES] = 16.0 * base ** np.arange(3.0, -1.0, -1.0)
    best = np.empty(len(a), dtype=np.int64)  # 16 x each smallest image, plus its number
    for lo in range(0, len(a), 4096):  # all sixteen packed, 4096 sectors at a time
        packed = weights @ spins[:, lo:lo + 4096] + np.arange(16.0)[:, None]
        best[lo:lo + 4096] = packed.min(axis=0)
    key = best >> 4  # and the label's spins, its digits
    label = np.stack([key // base**3, key // base**2 % base, key // base % base, key % base])
    return key, _MIRRORS[best & 15], label


def _sector_sums(ja2, jb2, jc2, weight, shift, count, rows, coeff_n, coeff_t) -> list[float]:
    """Sum of weight times trace norm over the sectors of the given triples,
    one sum per row of ``coeff_n`` and ``coeff_t``: triple k adds its
    sectors, times weight[k], to the sums of the next count[k] ``rows``, the
    n-fold coefficients of each scaled by 2^shift[k].  Each sector holds the
    j_ab (and as many j_bc) allowed by both of its triads.  A sector with
    one or two j_ab is solved in closed form, from T = 4 J_bc^2 alone; a
    larger one by an eigensolve of M = c_c diag(G_x) - c_a Lambda diag(G_y)
    Lambda^T, G_x and G_y the coeff_t rows over its j_ab and j_bc.

    Sectors are enumerated about _BATCH_SECTORS at a time, grouped by
    dimension and by orbit of _orbit_keys (6j and Regge (1959) symmetries),
    whose Lambda is built once, at the label.  Each (row, orbit) pair forms
    one P = Lambda diag(G_y) Lambda^T from the label's rows, and a member's
    M is c_c diag(G_x) - c_a P, c_c and c_a traded for a mirror (-Lambda M
    Lambda^T of its own sector); a shared Lambda's signs are a +-1 congruence.
    Slices of whole orbits of about _BATCH_ELEMENTS entries (see there)
    share one eigvalsh call.  Terms depend on their own matrices alone; they
    are folded into exact per-row partials (see _fold) whenever more than
    _BATCH_PAIRS are held, and once at the end, and each sum is the math.fsum
    of its row's partials: no sum depends on who shares the pass.
    """
    # the tables flat, row v of coeff_t starting at v * width
    (count_rows, width_n), width = coeff_n.shape, coeff_t.shape[1]
    coeff_n, coeff_t = coeff_n.ravel(), coeff_t.ravel()
    start = np.cumsum(count) - count
    j_lo, spins = _j_range(ja2, jb2, jc2)
    block = np.cumsum(spins) // _BATCH_SECTORS
    cuts = (np.nonzero(block[1:] != block[:-1])[0] + 1).tolist()
    sums, values, terms, held = [[] for _ in range(count_rows)], [], [], 0
    for first, last in zip([0] + cuts, cuts + [len(ja2)]):
        triple, offset = _runs(spins[first:last])
        triple += first
        a2, b2, c2, j2 = ja2[triple], jb2[triple], jc2[triple], j_lo[triple] + 2 * offset
        x_lo = np.maximum(np.abs(a2 - b2), np.abs(j2 - c2))
        y_lo = np.maximum(np.abs(b2 - c2), np.abs(a2 - j2))
        dims = (np.minimum(a2 + b2, j2 + c2) - x_lo) // 2 + 1
        # the larger sectors by orbit of _orbit_keys, the others orbits of one;
        # x_lo and y_lo are now those of each sector's label (a mirror's swap)
        key, flip = -1 - np.arange(len(j2)), np.zeros(len(j2), dtype=bool)
        label, big = (a2, b2, c2, j2), np.flatnonzero(dims > 2)
        if len(big):
            label = np.array(label)
            key[big], flip[big], label[:, big] = _orbit_keys(*label[:, big])
            x_lo, y_lo = np.where(flip, y_lo, x_lo), np.where(flip, x_lo, y_lo)
        # sectors by dimension, those with one j_ab among those with two (see
        # below), the members of one orbit side by side, and the (row,
        # sector) pairs of each
        group = np.maximum(dims, 2)
        order = np.lexsort((key, group))
        dims, key, group = dims[order], key[order], group[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = key[1:] != key[:-1]
        size = count[triple[order]]
        bounds = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
        for lo, hi in zip([0] + bounds, bounds + [len(dims)]):
            dim = int(group[lo])
            step = max(1, _BATCH_ELEMENTS // (dim * dim + 64))
            # slices of whole orbits, each ending before the first head past step pairs
            cuts = []
            if size[lo:hi].sum() > step:
                heads = np.flatnonzero(head[lo:hi])
                before = (np.cumsum(size[lo:hi]) - size[lo:hi])[heads]
                cuts = (lo + heads[np.flatnonzero(np.diff(before // step)) + 1]).tolist()
            for a, b in zip([lo] + cuts, cuts + [hi]):
                sel = order[a:b]
                # each (row, sector) pair: its place in the slice, sector, row,
                # scaled n-fold coefficients and coeff_t row over the label's j_ab
                own, pair = _runs(size[a:b])
                sector = sel[own]
                t = triple[sector]
                v, up = rows[start[t] + pair], shift[t]
                ca, cc = (np.ldexp(coeff_n[v * width_n + j[sector]], up) for j in (a2, c2))
                x, y = (v * width + j[sector] for j in (x_lo, y_lo))
                if dim == 2:  # closed forms, column by column, with P for each sector;
                    # one j_ab is two equal ones with P = 0, whose norm halves exactly
                    two = dims[a:b] == 2
                    rise = np.where(two, 2, 0)[own]
                    s1, s2 = ([coeff_t[x] * cc, coeff_t[x + rise] * cc],
                              [ca * coeff_t[y], ca * coeff_t[y + rise]])
                    q, p = y_lo[sel[two]], np.zeros((3, b - a))
                    diag, off = _recoupling_tridiagonal(*(lab[sel[two]] for lab in label), 2)
                    p[:, two] = (diag[:, 0] - q * (q + 2.0), diag[:, 1] - q * (q + 2.0), off[:, 0])
                    p[:, two] /= 4.0 * q + 8.0
                    w = _two_level_norms(s1, s2, p[:, own]) * np.where(two, 1.0, 0.5)[own]
                else:  # one P for each (row, orbit) pair
                    reps = sel[head[a:b]]
                    # the (row, orbit) pairs present, in order, and each pair's place
                    slot = (np.cumsum(head[a:b]) - 1)[own] * count_rows + v
                    present = np.zeros(len(reps) * count_rows, dtype=bool)
                    present[slot] = True
                    orbit, row = np.divmod(np.flatnonzero(present), count_rows)
                    of_pair = (np.cumsum(present) - 1)[slot]
                    lam = recoupling_batch(*(lab[reps] for lab in label), dim)
                    if len(orbit) > len(reps):  # an orbit met by more than one row
                        lam = lam[orbit]
                    idx = np.arange(dim)
                    g_y = coeff_t[(row * width + y_lo[reps][orbit])[:, None] + 2 * idx]
                    m = ((lam * g_y[:, None, :]) @ lam.transpose(0, 2, 1))[of_pair]
                    swap = flip[sector]
                    m *= -np.where(swap, cc, ca)[:, None, None]
                    m.reshape(len(m), -1)[:, :: dim + 1] += (np.where(swap, ca, cc)[:, None]
                                                             * coeff_t[x[:, None] + 2 * idx])
                    w = np.abs(np.linalg.eigvalsh(m)).sum(axis=1)
                if held > _BATCH_PAIRS:  # the terms so far into the exact sums
                    _fold(sums, values, terms)
                    values, terms, held = [], [], 0
                values.append(v)
                terms.append(weight[t] * (j2[sector] + 1) * w)
                held += len(v)
    _fold(sums, values, terms)
    return [math.fsum(s) for s in sums]


def _fold(sums, rows, terms) -> None:
    """Add the terms (arrays, beside arrays of their rows) to the sums of their
    rows, each held exactly as the successive math.fsum remainders of its
    terms.  The terms of one row and binary exponent are first summed in
    exact integers, the two halves of their 53-bit mantissas."""
    rows, terms = np.concatenate(rows), np.concatenate(terms)
    if not np.isfinite(terms).all():
        raise FloatingPointError("a sector term is not finite")
    mant, exp = np.frexp(terms)
    order = np.argsort(rows * 4096 + exp)  # by row, then exponent (-1073 to 1024)
    whole, exp, rows = np.ldexp(mant[order], 53).astype(np.int64), exp[order], rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (rows[1:] != rows[:-1]) | (exp[1:] != exp[:-1])
    first = np.flatnonzero(head)
    held = {}
    for v, *part in zip(rows[first].tolist(), *(
            np.ldexp(np.add.reduceat(half, first).astype(float), exp[first] - shift).tolist()
            for half, shift in ((whole >> 26, 27), (whole & (1 << 26) - 1, 53)))):
        held.setdefault(v, []).extend(part)
    for v, x in held.items():
        x, sums[v] = sums[v] + x, []
        while (s := math.fsum(x)) != 0.0:
            sums[v].append(s)
            x.append(-s)


def _two_level_norms(s1, s2, p) -> np.ndarray:
    """Trace norms of sector matrices M = diag(s1) - Lambda diag(s2) Lambda^T
    with one or two j_ab, given as columns over the matrices: Lambda diag(s2)
    Lambda^T = s2_0 + (s2_1 - s2_0) P, the upper eigenprojector
    P = (T - y (y + 2)) / (4 y + 8) of T = 4 J_bc^2 held in ``p`` as diag(P),
    P[0, 1]; ||[[a, b], [b, c]]||_1 = max(|a + c|, hypot(a - c, 2b))."""
    rise = s2[-1] - s2[0]
    m = [s - s2[0] - rise * q for s, q in zip(s1, p)]
    return np.maximum(np.abs(sum(m)), np.hypot(m[0] - m[-1], 2.0 * rise * p[-1]))


def load_errors(priors: Sequence[PuritySpec], loads) -> list[list[float]]:
    """Minimum errors of the fully universal machine, one list per port load
    (n, nprime) of one per purity prior, in order; ``load_errors(priors, [(n,
    nprime)])[0]`` is the one-load call.  A fixed-purity prior is a state of
    known purity (see :func:`mixed_error`); the direction average is the same
    for every prior, so only the block coefficients are averaged.  Every
    (load, prior) pair is one row of one _block_error call, so all share one
    pass over the sectors: each recoupling matrix and prior table is built
    once, and each value is exactly its one-load, one-prior one.  Purity 1
    builds no sector: it is pure_rates'."""
    loads = [check_load(n, nprime) for n, nprime in loads]
    pure, table = PuritySpec("fixed", 1.0), lru_cache(maxsize=None)(_prior_table)
    errors = iter(_block_error([(n, nprime, table(p, n), table(p, n + nprime))
                                for n, nprime in loads for p in priors if p != pure]))
    return [[pure_rates(n, nprime).pe if p == pure else next(errors) for p in priors]
            for n, nprime in loads]


def check_load(n: int, nprime: int) -> tuple[int, int]:
    """A port load (n, nprime) of the mixed-state sums, checked: copy counts,
    at most _MAX_COPIES in all."""
    n, nprime = check_count("n", n), check_count("nprime", nprime)
    if n + nprime > _MAX_COPIES:
        raise ValueError(f"n {n} plus nprime {nprime} is above {_MAX_COPIES} copies")
    return n, nprime


def mixed_error(n: int, nprime: int, r: float) -> float:
    """Minimum error of the programmable machine for states of known purity r.

    Reduces to :func:`pure_rates` at r = 1 and decreases with r.
    """
    return load_errors([PuritySpec("fixed", r)], [(n, nprime)])[0][0]


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
    return _averaged_coefficient(kind, m, check_spin("j", j, m))


def _averaged_coefficient(kind: str, m: int, j2: int) -> float:
    """averaged_block_coefficient of checked m and doubled spin j2."""
    a, b = (m + j2) // 2 + 1, (m - j2) // 2  # a + b = m + 1
    if kind == "hard-sphere":  # 6 a! b! / (m + 3)!
        return 6 / ((m + 2) * (m + 3) * math.comb(m + 1, a))
    if kind == "bures":  # (4 / pi) G(a + 1/2) G(b + 1/2) / (m + 2)!
        return math.comb(2 * a, a) * math.comb(2 * b, b) / (
            4**m * (m + 2) * math.comb(m + 1, a))
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
    (see :func:`load_errors`); a fixed-purity prior degenerates to
    :func:`mixed_error`."""
    return load_errors([prior], [(n, nprime)])[0][0]


# ---------------------------------------------------------------------------
# error margins
# ---------------------------------------------------------------------------


class MarginCurve(NamedTuple):
    """Success rate at a global margin with the per-sector margins and the
    (weak) saturation points where sectors freeze at their critical values."""

    p_success: float
    per_subspace_margins: tuple
    saturation_points: tuple


def _weak_eval(t: _PureTable, big_r: float):
    """Success rate and per-sector weak margins of table t at global weak margin big_r."""
    margins = np.array(t.rc)
    if big_r >= t.pe:
        return 1.0 - t.pe, margins
    b = int(np.searchsorted(t.sat, big_r))  # sectors 0..b-1 are frozen
    if t.chi[b] > 0.0:
        margins[b:] = (1.0 - t.c[b:]) * (big_r - t.xi[b]) / t.chi[b]
    else:
        # only the totally symmetric sector (c = 1) remains: the success
        # rate grows linearly with the allowed error
        margins[-1] = (big_r - t.xi[b]) / t.p[-1]
    return t.psat[b] + (math.sqrt(max(0.0, big_r - t.xi[b])) + math.sqrt(t.chi[b])) ** 2, margins


def _weak_from_strong(t: _PureTable, r_strong: float) -> float:
    """Invert the strong->weak margin map r_s = r_w / (P_s(r_w) + r_w).

    Piecewise closed form: inside each saturation interval P_s(r_w) is a
    shifted square-root square, so the inverse solves a quadratic in
    sqrt(r_w - xi_b).
    """
    if r_strong >= t.pe:
        return t.pe
    b = int(np.searchsorted(t.strong, r_strong))
    xi, chi, s = t.xi[b], t.chi[b], r_strong
    # s * (psat_b + (u + sqrt(chi_b))^2 + xi_b + u^2) = xi_b + u^2
    a2 = 2.0 * s - 1.0
    a1 = 2.0 * s * math.sqrt(chi)
    a0 = s * (t.psat[b] + chi + xi) - xi
    if abs(a2) < 1e-15:
        u = -a0 / a1 if a1 != 0.0 else 0.0
    else:
        disc = max(0.0, a1 * a1 - 4.0 * a2 * a0)
        u = (-a1 + math.sqrt(disc)) / (2.0 * a2)
        if u < 0.0:
            u = (-a1 - math.sqrt(disc)) / (2.0 * a2)
    u = max(0.0, u)
    return min(xi + u * u, t.pe)


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
    t = _pure_table(n, nprime)
    if scheme == "weak":
        ps, margins = _weak_eval(t, big_r)
        return MarginCurve(ps, tuple(margins), tuple(t.sat))
    if scheme != "strong":
        raise ValueError(f"scheme must be 'weak' or 'strong', got {scheme!r}")
    ps, weak = _weak_eval(t, _weak_from_strong(t, big_r))
    # frozen sectors keep their critical margins, the symmetric one (c = 1) its 1/2
    live = (weak < t.rc - 1e-15) & (t.c < 1.0)
    rm, strong = weak[live], np.array(t.rc)
    strong[live] = rm / ((np.sqrt(rm) + np.sqrt(1.0 - t.c[live])) ** 2 + rm)
    return MarginCurve(ps, tuple(strong), tuple(t.sat))
