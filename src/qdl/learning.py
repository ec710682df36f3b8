"""Learning machines for qubit classification.

A training set of 2n labelled qubits is measured first and only classical
information is carried forward to a Stern-Gerlach measurement on the data
qubit.  The covariant training measurement is generated by a single seed
operator; with the right seed the machine attains the programmable-machine
error for every training-set size.  This module evaluates that error, the
estimate-and-discriminate and reversed-order alternatives, the mixed-state
conditional operators, and the optimal seed for noisy training sets from an
exact semidefinite program whose dual certifies the optimum.  It is posed, and
the seed kept, in the coupled |J m> basis, where its operators are tridiagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angular import HalfInt, block_coefficient, check_spin, multiplicity
from .linalg import check_count, check_purity

# log-barrier schedule of the seed solver: a centred sector's t grows by _BARRIER_GROWTH
# up to its last t, the first power of 10 with central-path gap (total block dimension)/t
# below _BARRIER_END, which is centred to the rounding floor.  Past it the primal
# blocks S_m^-1 / t lose precision as the S_m approach singularity.
_BARRIER_GROWTH = 100.0
_BARRIER_END = 1e-10


class EydRates(NamedTuple):
    pe: float
    excess_risk: float


class RobustnessFactors(NamedTuple):
    scaling: float
    excess_risk: float


def known_pair_error(r: float = 1.0) -> float:
    """Average single-copy minimum error over pairs of known states of
    purity r; the baseline that excess risks are measured from."""
    return 0.5 - check_purity(r) / 3.0


def lm_error(n: int) -> float:
    """Classification error of the trained machine for n pure copies per label.

    Computed from the norms of the two symmetric-subspace projections of the
    seed state joined with the data qubit; it equals the programmable-machine
    bound identically.
    """
    n = check_count("n", n)
    d = n + 1
    # projection amplitudes of the seed (+ data qubit) onto the symmetric
    # coupling of data and the opposite-label block, per total spin k - 1/2
    norm_sq = 0.0
    for k in range(1, n + 2):
        amp = math.sqrt(k / (2.0 * d)) * (math.sqrt(d + k) - math.sqrt(d - k))
        norm_sq += amp * amp
    return norm_sq / (d * (n + 2))


def spin_weights(j, r: float) -> np.ndarray:
    """Normalized magnetic-number weights of a spin-j block of a purity-r
    tensor power, ordered m = -j..j.

    Relative to the top weight, w_m = ((1 - r)/(1 + r))^(j - m), which
    cannot all underflow at large j."""
    j2 = check_spin("j", j)
    r = check_purity(r)
    w = ((1.0 - r) / (1.0 + r)) ** np.arange(j2, -1, -1)
    return w / w.sum()


def spin_z_expectation(j, r: float) -> float:
    """Mean magnetic number of a spin-j block at purity r, as sum_{m>0} m w_m
    (1 - q^(2m)) with q = (1 - r)/(1 + r), which does not cancel as r -> 0."""
    w = spin_weights(j, r)
    r = check_purity(r)
    m2 = np.arange(len(w) % 2 + 1, len(w), 2)
    shrink = -np.expm1(m2 * math.log1p(-2.0 * r / (1.0 + r))) if r < 1.0 else 1.0
    return float(np.dot(m2 / 2.0, w[len(w) - len(m2):] * shrink))


def block_probability(n: int, j, r: float) -> float:
    """Probability that an n-fold purity-r power projects onto spin j; an n
    whose block multiplicity overflows a float is refused."""
    n = check_count("n", n)
    j2 = check_spin("j", j, n)
    coeff = block_coefficient(n, j, r)
    try:
        weight = float(multiplicity(n, j) * (j2 + 1))
    except OverflowError:
        raise ValueError(f"n {n} is too large: a multiplicity overflows a float") from None
    return weight * coeff


def _conditional_factor(j2: int, r: float) -> float:
    """f_j = r <Jz>_j / (j (j + 1)), 0 at j = 0: a spin-j block of the
    training set contributes f_j Jz to the conditional operator."""
    j = j2 / 2.0
    return r * spin_z_expectation(HalfInt(j2), r) / (j * (j + 1.0)) if j2 else 0.0


def _gamma_coupled(n: int, r: float):
    """The conditional training-set operator after an up outcome on the data
    qubit, of every sector of n copies in the coupled basis, as one stack.

    Returns (keys, g): ``keys`` lists (2ja, 2jc, 2m) sector by sector (ja, then
    jc, ascending) and m ascending within a sector; ``g[i]`` is an (n+1)-square
    matrix holding G_m of ``keys[i]`` in its trailing corner, rows and columns
    over ascending J >= max(|ja - jc|, |m|), and zeros elsewhere.

    G_m = ((f_a + f_c) Jz_a - f_c m) / (2 (2ja+1) (2jc+1)), as Jz_c = m - Jz_a, and
    Jz_a is tridiagonal (projection theorem): m (J(J+1) + ja(ja+1) - jc(jc+1)) /
    (2 J(J+1)) on the diagonal, 0 at J = 0; between J - 1 and J the positive (Condon-
    Shortley) sqrt((J^2 - m^2)(J^2 - (ja-jc)^2)((ja+jc+1)^2 - J^2) / (4J^2 (4J^2 - 1))).
    """
    spins = range(n % 2, n + 1, 2)
    keys = [(a, c, m2) for a in spins for c in spins for m2 in range(-(a + c), a + c + 1, 2)]
    ja2, jc2, m2 = (np.array(col)[:, None] for col in zip(*keys))
    factor = np.array([_conditional_factor(j2, r) for j2 in range(n + 1)])
    fa, fc = factor[ja2], factor[jc2]
    ja, jc, m = ja2 / 2.0, jc2 / 2.0, m2 / 2.0
    size = n + 1
    # doubled J of each row, the top spin ja + jc in the last one
    j2 = ja2 + jc2 - 2 * np.arange(size - 1, -1, -1)
    rows = j2 >= np.maximum(np.abs(ja2 - jc2), np.abs(m2))
    j = j2 / 2.0
    jj = j * (j + 1.0)
    diag = m * (jj + ja * (ja + 1.0) - jc * (jc + 1.0)) / np.where(jj > 0.0, 2.0 * jj, 1.0)
    # the entries between J - 1 and J, both rows of the block
    pairs = rows[:, :-1]
    k2 = np.where(pairs, j[:, 1:] ** 2, 1.0)
    off = (fa + fc) * np.sqrt(np.maximum((k2 - m * m) * (k2 - (ja - jc) ** 2)
                                         * ((ja + jc + 1.0) ** 2 - k2)
                                         / (4.0 * k2 * (4.0 * k2 - 1.0)), 0.0))
    scale = 2.0 * (ja2 + 1) * (jc2 + 1)
    g = np.zeros((len(keys), size, size))
    flat = g.reshape(len(keys), -1)
    flat[:, ::size + 1] = np.where(rows, (fa + fc) * diag - fc * m, 0.0) / scale
    flat[:, 1::size + 1] = np.where(pairs, off, 0.0) / scale
    flat[:, size::size + 1] = flat[:, 1::size + 1]
    return keys, g


@dataclass(frozen=True)
class SeedOperator:
    """Seed of the covariant training measurement, in the coupled basis.

    ``blocks`` maps (2 j_a, 2 j_c, 2 m) to a PSD matrix on the states |J m> of
    that sector, J >= max(|j_a - j_c|, |m|) ascending.  Resolving the identity
    requires sum_m <J m|Omega_m|J m> = 2J + 1 for every J the sector supports.
    """

    n: int
    blocks: dict

    def resolution_residual(self) -> float:
        totals = {}
        for (ja2, jc2, _), b in self.blocks.items():
            tot = totals.setdefault((ja2, jc2), -np.arange(abs(ja2 - jc2) + 1.0, ja2 + jc2 + 2, 2))
            # block m carries the trailing spins J >= |m|
            tot[len(tot) - len(b):] += np.diag(b).real
        return max(float(np.abs(tot).max()) for tot in totals.values())

    def min_eigenvalue(self) -> float:
        return min(float(np.linalg.eigvalsh(b)[0]) for b in self.blocks.values())


class LmOptimum(NamedTuple):
    delta_lm: float
    seed: SeedOperator
    gap: float


def _solve_sectors(g, dims, starts, b):
    """Maximize sum_m tr(G_m X_m) over PSD X_m subject to
    sum_m (X_m)_jj = b_j = 2j + 1, in the coupled |j m> basis, for every
    sector at once.

    ``g`` stacks the G_m of all sectors, each in the trailing ``dims`` corner
    of a common square and scaled so that its sector's largest |entry| is 1;
    sector s owns the blocks from ``starts[s]`` to the next start, m
    ascending.  ``b[s]`` holds the sector's 2j + 1 in its trailing entries and
    0 before them; block m carries the trailing spins j >= |m|.  The dual,
    minimize b.y subject to S_m = diag(y_{j>=|m|}) - G_m >= 0, is solved with
    a log barrier and damped Newton steps.  Each pass solves the Hessian for
    the gradients at t and at the grown t: the Newton step there is the step at
    t plus (grown t - t) times the central path's tangent -H^-1 b.  A sector
    found centred (decrement below 1/4) at an intermediate t grows t and takes
    the damped step of the grown t at once (a predictor); the last t is centred
    with full steps until the decrement stops halving.  Each sector takes the
    steps it would take alone; one batched Cholesky, inverse and Hessian solve
    serve all sectors per pass.  Every iterate, the last one included, passes
    a Cholesky factorization of each S_m, so each b.y is a certified upper
    bound.  The primal blocks are S_m^-1 / t at the last centring, made
    exactly feasible by a diagonal congruence.  Returns per sector b.y and
    sum_m tr(G_m X_m), and the X_m.
    """
    (count, size), sectors = g.shape[:2], len(starts)
    sector = np.repeat(np.arange(sectors), np.diff(starts, append=count))
    # a block's own rows; the rest of its square is an identity, masked out
    own = np.arange(size) >= size - dims[:, None]
    mask = (own[:, :, None] & own[:, None, :]).astype(float)
    # rows no spin of the sector reaches: an identity in its Hessian
    idle = b == 0.0
    # G_m is orthogonally similar to a diagonal with entries in [-1, 1], so
    # this start has S_m >= I
    y = np.full(b.shape, 2.0)
    t, lam_prev, live = [1.0] * sectors, [math.inf] * sectors, [True] * sectors
    t_end = [next(10.0 ** k for k in range(99) if nu / 10.0 ** k < _BARRIER_END)
             for nu in np.add.reduceat(dims, starts).tolist()]
    # gradient rows: t b of each sector, then its blocks' diagonals in m
    # order, so that the fold below subtracts them one by one; in two
    # columns, at t and at the grown t
    heads = starts + np.arange(sectors)
    tails = np.arange(count) + sector + 1
    terms = np.empty((count + sectors, size, 2))
    s = -g
    s_diag = s.reshape(count, -1)[:, ::size + 1]
    s_diag[~own] = 1.0
    g_diag = g.reshape(count, -1)[:, ::size + 1]
    s_inv = np.empty_like(s)
    hess = np.empty((sectors, size, size))
    while any(live):
        np.subtract(y[sector], g_diag, out=s_diag, where=own)
        l_inv = np.linalg.inv(np.linalg.cholesky(s))
        np.matmul(np.swapaxes(l_inv, 1, 2), l_inv, out=s_inv)
        s_inv *= mask
        grown_t = [min(v * _BARRIER_GROWTH, e) for v, e in zip(t, t_end)]
        terms[heads] = b[:, :, None] * np.array([t, grown_t]).T[:, None, :]
        terms[tails] = s_inv.reshape(count, -1)[:, ::size + 1, None]
        grads = np.subtract.reduceat(terms, heads)
        np.add.reduceat(s_inv * s_inv, starts, out=hess)
        hess.reshape(sectors, -1)[:, ::size + 1] += idle
        # minus the Newton steps at t and at the grown t, and their squared decrements
        steps = np.linalg.solve(hess, grads)
        dots = (grads * steps).sum(axis=1).tolist()
        # the step each sector takes and its divisor, inf for no step
        divisor, grown = [math.inf] * sectors, [0] * sectors
        for k in (k for k, on in enumerate(live) if on):
            lam = math.sqrt(max(dots[k][0], 0.0))
            # centred at an intermediate t: grow t and take the grown t's step
            if lam < 0.25 and t[k] < t_end[k]:
                grown[k], t[k], lam = 1, grown_t[k], math.sqrt(max(dots[k][1], 0.0))
            if lam >= 0.25:
                divisor[k] = 1.0 + lam
            # exact full steps contract the decrement by 4/9 or more, so one
            # that does not halve it has reached the rounding floor: centred
            elif lam < lam_prev[k] / 2.0:
                lam_prev[k], divisor[k] = lam, 1.0
            else:
                live[k] = False
        y -= steps[np.arange(sectors), :, grown] / np.array(divisor)[:, None]
    xs = s_inv / np.array(t)[sector, None, None]
    occupation = np.add.reduceat(xs.reshape(count, -1)[:, ::size + 1], starts)
    d = np.sqrt(np.divide(b, occupation, out=np.zeros_like(b), where=~idle))[sector]
    xs *= d[:, :, None] * d[:, None, :]
    primal = np.add.reduceat((g * xs).sum(axis=(1, 2)), starts)
    return (b[:, None, :] @ y[:, :, None]).ravel(), primal, xs


def lm_mixed_optimize(n: int, r: float) -> LmOptimum:
    """Optimize the seed of the covariant training measurement for purity r.

    Every magnetic block of every sector is a variable, not only the m = 0
    one.  Returns the optimal trace-norm surrogate (the machine error is
    (1 - delta_lm/2)/2), the seed, and ``gap``, the dual upper bound on
    delta_lm minus delta_lm: no covariant seed reaches a surrogate above
    delta_lm + gap.  The programmable machine supplies the unbeatable lower
    bound on the error.  Both sum the sectors' values, weighted by the
    probabilities of their spins ja and jc.
    """
    n = check_count("n", n)
    if n > 5:
        raise ValueError("seed optimization is desk-scale: n must be 1..5")
    r = check_purity(r, zero=False)
    keys, g = _gamma_coupled(n, r)
    # G^(jc,ja)_m = G^(ja,jc)_-m and b is symmetric, so a sector (jc, ja) is
    # the SDP of its mirror: only ja <= jc is solved, the rest read its blocks
    half = [a2 <= c2 for a2, c2, _ in keys]
    (ja2, jc2, m2), g = np.array(keys)[half].T, g[half]
    dims = (ja2 + jc2 - np.maximum(np.abs(ja2 - jc2), np.abs(m2))) // 2 + 1
    # per sector (ja, jc): first block, block count, largest |G|, b = 2J + 1
    heads = np.flatnonzero(m2 == -(ja2 + jc2))
    a2, c2 = ja2[heads], jc2[heads]
    counts = a2 + c2 + 1
    scale = np.maximum.reduceat(np.abs(g).max(axis=(1, 2)), heads)
    j2 = (a2 + c2)[:, None] - 2 * np.arange(n, -1, -1)
    b = np.where(j2 >= np.abs(a2 - c2)[:, None], j2 + 1.0, 0.0)
    prob = np.array([block_probability(n, HalfInt(j), r) for j in range(n % 2, n + 1, 2)])
    weight = prob[a2 // 2] * prob[c2 // 2] * np.where(a2 < c2, 2.0, 1.0)
    # an all-zero sector scores 0 at every point, certified by y = 0, and
    # X_m = I is feasible (b = 2J + 1); the others are solved together
    live = scale > 0.0
    rows = np.repeat(live, counts)
    dual, primal = np.zeros((2, len(heads)))
    xs = np.broadcast_to(np.eye(n + 1), g.shape).copy()
    if live.any():
        dual[live], primal[live], xs[rows] = _solve_sectors(
            g[rows] / np.repeat(scale[live], counts[live])[:, None, None], dims[rows],
            np.cumsum(counts[live]) - counts[live], b[live])
    solved = {key: x[-d:, -d:] for key, d, x in zip(zip(ja2, jc2, m2), dims, xs)}
    blocks = {(a, c, m): solved[(a, c, m) if a <= c else (c, a, -m)] for a, c, m in keys}
    delta = 2.0 * sum((weight * (scale * primal)).tolist())
    gap = 2.0 * sum((weight * (scale * dual)).tolist()) - delta
    return LmOptimum(delta_lm=delta, seed=SeedOperator(n=n, blocks=blocks), gap=gap)


def eyd_qubit(n: int) -> EydRates:
    """Estimate-and-discriminate machine rates for n pure copies per label.

    ``pe`` follows the continuous covariant estimation measurement,
    (1 - 2n/(3(n+2)))/2.  The excess risk over known-state discrimination is
    2/(3(n+2)); at n = 1 the optimal finite estimation measurement does
    strictly better and attains (4 - sqrt(2))/12.
    """
    n = check_count("n", n)
    pe = (1.0 - 2.0 * n / (3.0 * (n + 2))) / 2.0
    if n == 1:
        return EydRates(pe=pe, excess_risk=(4.0 - math.sqrt(2.0)) / 12.0)
    return EydRates(pe=pe, excess_risk=2.0 / (3.0 * (n + 2)))


def reversed_error(n: int) -> float:
    """Error when the data qubit is measured before the training set.

    One classical bit flows backwards, so the rate (1 - n/(6(n+1)))/2 stays
    above 5/12 however large the training set."""
    n = check_count("n", n)
    return (1.0 - n / (6.0 * (n + 1))) / 2.0


# ---------------------------------------------------------------------------
# robustness of the trained machine
# ---------------------------------------------------------------------------


def robustness_factors(n: int, r: float) -> RobustnessFactors:
    """Noise and training-fluctuation scaling of the trained machine.

    Returns the factor r - (1-r)/(n r) by which the conditional
    averages shrink relative to the pure equal-split problem, and the
    resulting excess-risk prediction 1/(3 n r).  Training-set fluctuations
    only enter beyond this order.
    """
    n = check_count("n", n)
    r = check_purity(r, zero=False)
    scaling = r - (1.0 - r) / (n * r)
    return RobustnessFactors(scaling=scaling, excess_risk=1.0 / (3.0 * n * r))
