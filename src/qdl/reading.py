"""Reading a binary classical memory with coherent light of uncertain
amplitude.

The reflected signal is either the vacuum or a coherent state whose
amplitude is only localised, by a Gaussian prior of width mu/sqrt(n), around
a known centre; n auxiliary modes from the same source help.  Closed forms
cover the asymptotic excess risk of the optimal collective measurement and
of estimate-and-discriminate receivers built on squeezed heterodyne
detection, including the optimal squeezing.  A finite-n oracle evaluates
both strategies on the coherent (product) states they mix, computing only
the overlap rows a pivoted span factor needs (<a|b> is analytic, so no
number-basis cutoff enters); eyd integrates each quadrature axis of its
heterodyne outcome with its own Gaussian kernel.

All closed forms take the amplitude modulus; a global phase rotation makes
the localisation centre real and nonnegative without loss of generality.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import check_count

# relative weight left out of a span factor (see _span_factor)
_SPAN_TOL = 1e-15
# largest |squeeze| for which e^(2 |squeeze|) is a finite float
_SQUEEZE_MAX = 0.5 * math.log(sys.float_info.max)


@dataclass(frozen=True)
class ReadingConfig:
    """Localisation centre, prior width, and number of auxiliary modes."""

    alpha0: complex
    mu: float
    n_aux: int

    def __post_init__(self):
        if not cmath.isfinite(self.alpha0):
            raise ValueError(f"amplitude alpha0 {self.alpha0} must be finite")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"prior width mu {self.mu} must be positive and finite")
        check_count("n_aux", self.n_aux)

    @property
    def amplitude(self) -> float:
        return abs(self.alpha0)


def _check_amplitude(alpha0) -> float:
    """Return |alpha0|, raising unless its square is a positive normal float."""
    a = abs(alpha0)
    if not sys.float_info.min <= a * a < math.inf:
        raise ValueError(
            f"amplitude {alpha0} must be nonzero and finite, and its square "
            "must neither underflow nor overflow"
        )
    return a


def _exp_terms(a: float):
    """x = a^2, q = e^-x, u = 1 - e^-x and s = sqrt(u), the building blocks
    of the closed forms, free of overflow and of cancellation at small x."""
    x = a * a
    u = -math.expm1(-x)
    return x, math.exp(-x), u, math.sqrt(u)


def _exp_remainder(x: float) -> float:
    """(x - (1 - e^-x)) / x for 0 < x <= 1, summed as x/2 - x^2/6 + ...
    because the direct difference cancels."""
    term, total, k = x / 2.0, 0.0, 2
    while total + term != total:
        total += term
        k += 1
        term *= -x / k
    return total


def collective_excess_risk(alpha0) -> float:
    """Excess risk of the optimal joint measurement on signal plus auxiliary
    modes, in the wide-prior limit.

    R = a^2 e^{-a^2/2} (2 e^{a^2} - 1) / (16 (e^{a^2} - 1)^{3/2}) with
    a = |alpha0|; exponentially suppressed for bright sources and growing
    like 1/(16 a) for faint ones.  Evaluated as (x/u) q (2 - q) / (16 sqrt(u))
    with x = a^2, q = e^-x and u = 1 - q.
    """
    x, q, u, s = _exp_terms(_check_amplitude(alpha0))
    return x / u * q * (2.0 - q) / (16.0 * s)


def collective_excess_risk_finite_prior(alpha0, mu: float) -> float:
    """Collective excess risk before the prior width is sent to infinity:
    the wide-prior value times 2 mu^2 / (2 mu^2 + 1).

    Approached by n (Pe(n) - Pe*(n)) from the finite-n oracle as n grows.
    """
    risk = collective_excess_risk(alpha0)
    if not 0 < mu < math.inf:
        raise ValueError(f"mu {mu} must be positive and finite")
    return risk * 2.0 * mu * mu / (2.0 * mu * mu + 1.0)


def _check_squeeze(r) -> float:
    """Return r, raising unless e^(2|r|) is a finite float."""
    if not abs(r) <= _SQUEEZE_MAX:
        raise ValueError(
            f"squeeze {r} must be finite, with |squeeze| <= {_SQUEEZE_MAX:.2f} "
            "so that e^(2|squeeze|) does not overflow"
        )
    return r


def eyd_excess_risk(alpha0, r_squeeze: float) -> float:
    """Excess risk of estimate-then-discriminate with a squeezed heterodyne
    estimation of squeezing r_squeeze (wide-prior limit).

    With t = e^(2 r_squeeze) the risk is q (1 + t) (den + num / t) / (16 s),
    a product of positive factors (see :func:`_squeeze_terms`), so nothing
    cancels at any amplitude or squeezing.
    """
    x, q, u, s = _exp_terms(_check_amplitude(alpha0))
    r_squeeze = _check_squeeze(r_squeeze)
    num, den = _squeeze_terms(x, q, u, s)
    t = math.exp(2.0 * r_squeeze)
    risk = (1.0 + t) * (q * den + q * num / t) / (16.0 * s)
    # a faint signal under strong squeezing carries a risk beyond the floats
    if not risk < math.inf:
        raise ValueError(
            f"r_squeeze {r_squeeze} at alpha0 {alpha0}: the closed form gives "
            f"{risk}, not a finite risk"
        )
    return risk


def _squeeze_terms(x: float, q: float, u: float, s: float):
    """The two positive coefficients of the heterodyne excess risk.

    In t = e^(2r) the risk lead cosh^2 r + cross sinh 2r reads
    lead/2 + t (lead/4 + cross/2) + (lead/4 - cross/2)/t, where
    lead/4 + cross/2 = q den / (16 s) and lead/4 - cross/2 = q num / (16 s)
    with den = 1/(1 + s) + (x/u) s and num = den - (x/u) q > 0.  For faint
    signals num ~ 3x/2, the shortfall of two terms near 1, so it is summed
    so that nothing cancels.
    """
    den = 1.0 / (1.0 + s) + x / u * s
    if x > 1.0:
        return 1.0 / (1.0 + s) + x / u * (s - q), den
    return u * (2.0 + s) / (1.0 + s) - _exp_remainder(x) * (x / u) * (1.0 - s - u), den


def optimal_squeezing(alpha0) -> float:
    """Squeezing minimizing the heterodyne excess risk.

    Negative for every amplitude (antisqueezing along the line to the
    vacuum), diverging like log(3 a^2 / 2) / 4 to -inf for faint signals
    (homodyne limit) and approaching zero for bright ones.  It is
    log(num / den) / 4, with the coefficients of :func:`_squeeze_terms`.
    """
    x, q, u, s = _exp_terms(_check_amplitude(alpha0))
    num, den = _squeeze_terms(x, q, u, s)
    if x > 1.0:
        # num falls short of den by x q / u
        return 0.25 * math.log1p(-x / u * q / den)
    return 0.25 * math.log(num / den)


def concentrate_modes(alpha: complex, n: int) -> complex:
    """Amplitude after piling n equal coherent modes into one with a chain of
    unbalanced beam splitters; energy n |alpha|^2 is conserved."""
    return math.sqrt(check_count("n", n)) * alpha


def coherent_overlap(a, b) -> np.ndarray:
    """Matrix of overlaps <a_i|b_j> of coherent product states.

    Row i of a (or b) holds the amplitudes of one product state, one column
    per mode; a 1-D input is one mode.  The overlap is
    exp(conj(a_i).b_j - |a_i|^2/2 - |b_j|^2/2), with the dot product and
    the norms summed over modes.
    """
    a = np.asarray(a, dtype=complex).reshape(len(a), -1)
    b = np.asarray(b, dtype=complex).reshape(len(b), -1)
    g = np.conj(a) @ b.T
    g -= np.add.outer((np.abs(a) ** 2).sum(axis=1) / 2.0, (np.abs(b) ** 2).sum(axis=1) / 2.0)
    return np.exp(g, out=g)


def _span_factor(amps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pivoted Cholesky factor R (rank x K) with R^H R ~= G, the Gram
    matrix of the K states sqrt(w_k)|amps_k> (product states as in
    :func:`coherent_overlap`).

    Each step takes the state farthest from the span of those taken so far
    and computes only its row of G; R^H R is the Gram matrix of the states
    projected onto that span, and d holds their squared distances from it,
    starting at the weights (coherent states have unit norm).  The loop
    stops once the discarded mass eps = sum(d), the trace of the Schur
    complement, is at most _SPAN_TOL * sum(weights).

    Error bound.  An operator sum_k c_k |v_k><v_k| (real c) is replaced by
    its compression to the span, whose nonzero spectrum is that of
    R diag(c) R^H.  Compression never raises the trace norm (pinching) and
    lowers it by at most 2 sqrt(T eps') + eps', with T = sum_k |c_k| w_k
    and eps' = sum_k |c_k| d_k.  Both oracles weigh each state by one in
    total (eyd up to its heterodyne quadrature) and have sum(weights) = 2,
    so up to rounding their error probability is never below the exact
    value at the given quadrature and exceeds it by at most
    sqrt(_SPAN_TOL) + _SPAN_TOL / 2, about 3.2e-8; against a truncated-Fock
    evaluation the excess is of the order of eps itself, a few 1e-15.
    """
    d = np.array(weights, dtype=float)
    sw = np.sqrt(d)
    stop = _SPAN_TOL * d.sum()
    k = len(d)
    r = np.zeros((min(k, 64), k), dtype=complex)
    for i in range(k):
        if d.sum() <= stop:
            return r[:i]
        if i == len(r):
            r = np.concatenate([r, np.zeros((min(i, k - i), k), dtype=complex)])
        p = int(np.argmax(d))
        row = coherent_overlap(amps[p : p + 1], amps)[0] * (sw[p] * sw)
        r[i] = (row - r[:i, p].conj() @ r[:i]) / math.sqrt(d[p])
        d -= np.abs(r[i]) ** 2
        d[p] = 0.0
    return r


def _prior_grid(mu: float, order: int):
    """The Gauss-Hermite rule (x, w) of the given order, and the complex nodes
    and weights of its tensor grid integrating the width-mu Gaussian prior."""
    x, w = np.polynomial.hermite.hermgauss(check_count("quadrature_order", order))
    u = mu * (x[:, None] + 1j * x[None, :])
    wt = (w[:, None] * w[None, :]) / math.pi
    return x, w, u.ravel(), wt.ravel()


def known_state_error(cfg: ReadingConfig, quadrature_order: int = 32) -> float:
    """Average minimum error when the drawn amplitude is known exactly;
    the baseline the excess risk is measured from."""
    _, _, u, wt = _prior_grid(cfg.mu, quadrature_order)
    amp2 = np.abs(cfg.amplitude + u / math.sqrt(cfg.n_aux)) ** 2
    # (1 - sqrt(1 - c^2)) / 2 at the overlap c^2 = e^-amp2, in a form that does not cancel
    pe = np.exp(-amp2) / (2.0 * (1.0 + np.sqrt(-np.expm1(-amp2))))
    return float(np.dot(wt, pe))


def finite_n_oracle(
    cfg: ReadingConfig,
    strategy: str = "collective",
    quadrature_order: int = 32,
    squeeze: float = 0.0,
) -> float:
    """Average error of a strategy at finite n.

    The Gaussian prior is integrated with a tensor Gauss-Hermite rule of the
    given order per axis, and the Helstrom operators are evaluated in the
    span of the coherent states they mix (error bound in
    :func:`_span_factor`).  ``strategy`` is "collective" (joint optimal
    measurement of the concentrated auxiliary mode and the signal) or "eyd"
    (squeezed-heterodyne estimation with squeezing ``squeeze``, followed by
    discrimination tuned to the posterior).
    """
    if strategy == "collective":
        return _oracle_collective(cfg, quadrature_order)
    if strategy == "eyd":
        return _oracle_eyd(cfg, quadrature_order, squeeze)
    raise ValueError(f"strategy must be 'collective' or 'eyd', got {strategy!r}")


def _oracle_collective(cfg: ReadingConfig, order: int) -> float:
    _, _, u, wt = _prior_grid(cfg.mu, order)
    k = len(u)
    # displaced frame: the auxiliary mode carries u, the signal -a0 (no hit)
    # or u/sqrt(n) (hit); the 2K product states sqrt(w_k)|u_k>|s>
    sig = np.concatenate([np.full(k, -cfg.amplitude), u / math.sqrt(cfg.n_aux)])
    r = _span_factor(np.stack([np.tile(u, 2), sig], axis=1), np.tile(wt, 2))
    # the hypotheses' difference V J V^H, J = diag(1, -1), has the nonzero
    # spectrum of R J R^H
    w = np.linalg.eigvalsh((r[:, :k] @ r[:, :k].conj().T) - (r[:, k:] @ r[:, k:].conj().T))
    return 0.5 * (1.0 - 0.5 * float(np.abs(w).sum()))


def _oracle_eyd(cfg: ReadingConfig, order: int, squeeze: float) -> float:
    mu = cfg.mu
    x, w, u, wu = _prior_grid(mu, order)
    # heterodyne noise variances 1/(2 (1 +- tanh r)) at squeezing r, written
    # (1 + e^(-+2r)) / 4 so that no finite r divides by zero
    r_sq = _check_squeeze(squeeze)
    var1, var2 = (1.0 + math.exp(-2.0 * r_sq)) / 4.0, (1.0 + math.exp(2.0 * r_sq)) / 4.0
    # one factor of the states |-a0> and sqrt(w_k)|u_k/sqrt(n)> serves every
    # heterodyne node
    states = np.concatenate([[-cfg.amplitude], u / math.sqrt(cfg.n_aux)])
    r = _span_factor(states[:, None], np.concatenate([[1.0], wu]))

    # heterodyne outcome v = u + Gaussian noise with axis variances var1 and
    # var2, integrated with a matched Gauss-Hermite grid; both grids are tensor
    # products, so p(v|u) = g1[i1, k1] g2[i2, k2] and each axis has its own
    # kernel and Jacobian sqrt(2) s w exp(+x^2)
    g, jac = [], []
    for var in (var1, var2):
        s = math.sqrt(mu * mu / 2.0 + var)
        du = mu * x[None, :] - math.sqrt(2.0) * s * x[:, None]
        g.append(np.exp(-(du * du) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var))
        jac.append(math.sqrt(2.0) * s * w * np.exp(x * x))
    v_jac = np.outer(*jac).ravel()
    p_v = (np.outer(g[0] @ w, g[1] @ w) / math.pi).ravel()

    # node v's operator p(v)|-a0><-a0| - sum_k p(v|u_k) w_k |u_k/sqrt(n)><.|
    # is R diag(c_v) R^H; R's columns carry sqrt(w_k), so the kernels contract
    # the outer products of the columns of R one axis at a time
    outer = r.T[:, :, None] * r.T.conj()[:, None, :]
    mixed = g[0] @ (g[1] @ outer[1:].reshape(order, order, -1)).reshape(order, -1)
    ops = p_v[:, None, None] * outer[0] - mixed.reshape(-1, len(r), len(r))
    # each node's trace norm is at most 2 p(v); dividing by the outcome mass
    # that the v rule integrates keeps Pe in [0, 1/2] at low orders, where
    # that mass can be off one by a quarter, and shrinks the quadrature error
    total = float(v_jac @ np.abs(np.linalg.eigvalsh(ops)).sum(axis=1))
    return 0.5 * (1.0 - 0.5 * total / float(v_jac @ p_v))
