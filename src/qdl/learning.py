"""Learning machines for qubit classification.

A training set of 2n labelled qubits is measured first and only classical
information is carried forward to a Stern-Gerlach measurement on the data
qubit.  The covariant training measurement is generated by a single seed
operator; with the right seed the machine attains the programmable-machine
error for every training-set size.  This module evaluates that error, the
estimate-and-discriminate and reversed-order alternatives, the mixed-state
conditional operators, and the optimal seed for noisy training sets from an
exact semidefinite program whose dual certifies the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angular import HalfInt, clebsch_gordan, multiplicity
from .linalg import check_purity

# log-barrier schedule of the seed solver: t grows by _BARRIER_GROWTH until
# the central-path gap (total block dimension)/t of the scaled problem drops
# below _BARRIER_END.  A larger t buys nothing: as the S_m approach
# singularity, the primal blocks S_m^-1 / t lose precision.
_BARRIER_GROWTH = 10.0
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
    if n < 1:
        raise ValueError("n must be >= 1")
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
    tensor power, ordered m = -j..j."""
    j2 = HalfInt.coerce(j).twice
    r = check_purity(r)
    if r == 0.0:
        return np.full(j2 + 1, 1.0 / (j2 + 1))
    m2 = np.arange(-j2, j2 + 1, 2)
    w = ((1.0 - r) / 2.0) ** ((j2 - m2) / 2) * ((1.0 + r) / 2.0) ** ((j2 + m2) / 2)
    return w / w.sum()


def spin_z_expectation(j, r: float) -> float:
    """Mean magnetic number of a spin-j block at purity r."""
    j2 = HalfInt.coerce(j).twice
    m = np.arange(-j2, j2 + 1, 2) / 2.0
    return float(np.dot(m, spin_weights(j, r)))


def block_probability(n: int, j, r: float) -> float:
    """Probability that an n-fold purity-r power projects onto spin j."""
    j2 = HalfInt.coerce(j).twice
    nu = multiplicity(n, j)
    r = check_purity(r)
    if r == 0.0:
        return nu * (j2 + 1) * 0.5**n
    c_j = (((1 + r) / 2) ** (j2 + 1) - ((1 - r) / 2) ** (j2 + 1)) / r
    return nu * c_j * ((1 - r * r) / 4.0) ** ((n - j2) // 2)


def gamma_up(n: int, r: float, ja, jc) -> np.ndarray:
    """Conditional training-set operator after an up outcome on the data
    qubit, in the (ja, jc) sector.

    The operator is diagonal in the product magnetic basis; the returned
    array holds its diagonal values on the (m_a, m_c) grid.  At r = 1 and
    maximal spins it reduces to (Jz_a - Jz_c) / ((n+1)^2 (n+2)).
    """
    r = check_purity(r, zero=False)
    ja2 = HalfInt.coerce(ja).twice
    jc2 = HalfInt.coerce(jc).twice
    if (n - ja2) % 2 or (n - jc2) % 2:
        raise ValueError("sector spins must match the parity of n")
    ma = np.arange(-ja2, ja2 + 1, 2) / 2.0
    mc = np.arange(-jc2, jc2 + 1, 2) / 2.0

    def side(j2, mvals):
        if j2 == 0:
            return np.zeros(1)
        j = j2 / 2.0
        factor = r * spin_z_expectation(HalfInt(j2), r) / j
        return factor * mvals / (j + 1.0)

    grid = side(ja2, ma)[:, None] - side(jc2, mc)[None, :]
    return grid / (2.0 * (ja2 + 1) * (jc2 + 1))


def gamma_up_blocks(n: int, r: float) -> dict:
    """All sector operators with their occupation probabilities, keyed by
    the doubled sector spins (2 j_a, 2 j_c)."""
    out = {}
    for ja2 in range(n % 2, n + 1, 2):
        pa = block_probability(n, HalfInt(ja2), r)
        for jc2 in range(n % 2, n + 1, 2):
            pc = block_probability(n, HalfInt(jc2), r)
            out[(ja2, jc2)] = (pa * pc, gamma_up(n, r, HalfInt(ja2), HalfInt(jc2)))
    return out


@dataclass(frozen=True)
class SeedOperator:
    """Seed of the covariant training measurement.

    ``blocks`` maps (2 j_a, 2 j_c, 2 m) to a PSD matrix on the magnetic
    subspace m of that sector, ordered by ascending m_a.  Resolving the
    identity requires sum_m <j m|Omega_m|j m> = 2j + 1 for every total spin
    j the sector supports.
    """

    n: int
    blocks: dict

    def resolution_residual(self) -> float:
        worst = 0.0
        sectors = {(ja2, jc2) for ja2, jc2, _ in self.blocks}
        for ja2, jc2 in sectors:
            for j2 in range(abs(ja2 - jc2), ja2 + jc2 + 1, 2):
                tot = 0.0
                for m2 in range(-j2, j2 + 1, 2):
                    om = self.blocks.get((ja2, jc2, m2))
                    if om is None:
                        continue
                    cvec = _coupled_vector(ja2, jc2, j2, m2)
                    tot += float(np.real(cvec.conj() @ om @ cvec))
                worst = max(worst, abs(tot - (j2 + 1)))
        return worst

    def min_eigenvalue(self) -> float:
        return min(
            float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0])
            for b in self.blocks.values()
        )


def _m_basis(ja2: int, jc2: int, m2: int) -> list:
    """(m_a, m_c) pairs with m_a + m_c = m, ordered by ascending m_a."""
    out = []
    for ma2 in range(-ja2, ja2 + 1, 2):
        mc2 = m2 - ma2
        if -jc2 <= mc2 <= jc2:
            out.append((ma2, mc2))
    return out


def _coupled_vector(ja2: int, jc2: int, j2: int, m2: int) -> np.ndarray:
    basis = _m_basis(ja2, jc2, m2)
    return np.array(
        [
            clebsch_gordan(
                HalfInt(ja2), HalfInt(ma2), HalfInt(jc2), HalfInt(mc2), HalfInt(j2), HalfInt(m2)
            )
            for ma2, mc2 in basis
        ]
    )


class LmOptimum(NamedTuple):
    delta_lm: float
    seed: SeedOperator
    gap: float


def _solve_sector(gammas, b):
    """Maximize sum_m tr(G_m X_m) over PSD X_m subject to
    sum_m (X_m)_jj = b_j, all in the coupled |j m> basis.

    Block m carries the spins j >= |m|, the trailing entries of ``b``.  The
    dual, minimize b.y subject to S_m = diag(y_{j>=|m|}) - G_m >= 0, is
    solved with a damped-Newton log barrier; every iterate, the last one
    included, passes a Cholesky factorization of each S_m, so the returned
    b.y is a certified upper bound.  The primal blocks are S_m^-1 / t at the
    last centring, made exactly feasible by a diagonal congruence.
    Returns (dual value, primal value, primal blocks).
    """
    scale = max(np.abs(g).max() for g in gammas) or 1.0
    gs = [g / scale for g in gammas]
    offsets = [len(b) - len(g) for g in gs]
    nu = sum(len(g) for g in gs)
    # G_m is orthogonally similar to a diagonal with entries in [-1, 1], so
    # this start has S_m >= I
    y = np.full(len(b), 2.0)
    t = 1.0
    while True:
        lam_prev = math.inf
        while True:
            grad, hess = t * b, np.zeros((len(b), len(b)))
            s_inv = []
            for k, g in zip(offsets, gs):
                l_inv = np.linalg.inv(np.linalg.cholesky(np.diag(y[k:]) - g))
                s_inv.append(l_inv.T @ l_inv)
                grad[k:] -= np.diag(s_inv[-1])
                hess[k:, k:] += s_inv[-1] * s_inv[-1]
            step = -np.linalg.solve(hess, grad)
            lam = math.sqrt(max(-float(grad @ step), 0.0))
            if lam >= 0.25:
                y += step / (1.0 + lam)
                continue
            # exact full steps contract the decrement by 4/9 or more, so one
            # that does not halve it has reached the rounding floor: centred
            if lam >= lam_prev / 2.0:
                break
            lam_prev = lam
            y += step
        if nu / t < _BARRIER_END:
            break
        t *= _BARRIER_GROWTH
    xs = [s / t for s in s_inv]
    occupation = np.zeros(len(b))
    for k, x in zip(offsets, xs):
        occupation[k:] += np.diag(x)
    d = np.sqrt(b / occupation)
    xs = [x * np.outer(d[k:], d[k:]) for k, x in zip(offsets, xs)]
    primal = sum(float(np.sum(g * x)) for g, x in zip(gs, xs))
    return scale * float(b @ y), scale * primal, xs


def lm_mixed_optimize(n: int, r: float) -> LmOptimum:
    """Optimize the seed of the covariant training measurement for purity r.

    Every magnetic block of every sector is a variable, not only the m = 0
    one.  Returns the optimal trace-norm surrogate (the machine error is
    (1 - delta_lm/2)/2), the seed, and ``gap``, the dual upper bound on
    delta_lm minus delta_lm: no covariant seed reaches a surrogate above
    delta_lm + gap.  The programmable machine supplies the unbeatable lower
    bound on the error.
    """
    if not 1 <= n <= 5:
        raise ValueError("seed optimization is desk-scale: n must be 1..5")
    r = check_purity(r, zero=False)
    primal_total = dual_total = 0.0
    blocks = {}
    for (ja2, jc2), (p_xi, grid) in gamma_up_blocks(n, r).items():
        j_values = range(abs(ja2 - jc2), ja2 + jc2 + 1, 2)
        m_values = range(-(ja2 + jc2), ja2 + jc2 + 1, 2)
        c_by_m, g_by_m = [], []
        for m2 in m_values:
            c = np.column_stack(
                [_coupled_vector(ja2, jc2, j2, m2) for j2 in j_values if j2 >= abs(m2)]
            )
            g = [grid[(ma2 + ja2) // 2, (mc2 + jc2) // 2] for ma2, mc2 in _m_basis(ja2, jc2, m2)]
            c_by_m.append(c)
            g_by_m.append(c.T @ (np.array(g)[:, None] * c))
        dual, primal, xs = _solve_sector(g_by_m, np.array([j2 + 1.0 for j2 in j_values]))
        dual_total += p_xi * dual
        primal_total += p_xi * primal
        for m2, c, x in zip(m_values, c_by_m, xs):
            blocks[(ja2, jc2, m2)] = c @ x @ c.T
    delta = 2.0 * primal_total
    return LmOptimum(
        delta_lm=delta, seed=SeedOperator(n=n, blocks=blocks), gap=2.0 * dual_total - delta
    )


def eyd_qubit(n: int) -> EydRates:
    """Estimate-and-discriminate machine rates for n pure copies per label.

    ``pe`` follows the continuous covariant estimation measurement,
    (1 - 2n/(3(n+2)))/2.  The excess risk over known-state discrimination is
    2/(3(n+2)); at n = 1 the optimal finite estimation measurement does
    strictly better and attains (4 - sqrt(2))/12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pe = (1.0 - 2.0 * n / (3.0 * (n + 2))) / 2.0
    if n == 1:
        return EydRates(pe=pe, excess_risk=(4.0 - math.sqrt(2.0)) / 12.0)
    return EydRates(pe=pe, excess_risk=2.0 / (3.0 * (n + 2)))


def reversed_error(n: int) -> float:
    """Error when the data qubit is measured before the training set.

    One classical bit flows backwards, so the rate (1 - n/(6(n+1)))/2 stays
    above 5/12 however large the training set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1.0 - n / (6.0 * (n + 1))) / 2.0


# ---------------------------------------------------------------------------
# robustness of the trained machine
# ---------------------------------------------------------------------------


def robustness_factors(n: int, r: float, delta: float = 0.0) -> RobustnessFactors:
    """Noise and training-fluctuation scaling of the trained machine.

    Returns the factor r (1 - (1-r)/(n r^2)) by which the conditional
    averages shrink relative to the pure equal-split problem, and the
    resulting excess-risk prediction 1/(3 n r).  The fluctuation amplitude
    ``delta`` only enters beyond this order and is accepted for the record.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = check_purity(r, zero=False)
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    scaling = r * (1.0 - (1.0 - r) / (n * r * r))
    return RobustnessFactors(scaling=scaling, excess_risk=1.0 / (3.0 * n * r))
