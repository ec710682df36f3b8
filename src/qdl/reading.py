"""Reading a binary classical memory with coherent light of uncertain
amplitude.

The reflected signal is either the vacuum or a coherent state whose
amplitude is only localised, by a Gaussian prior of width mu/sqrt(n), around
a known centre; n auxiliary modes from the same source help.  Closed forms
cover the asymptotic excess risk of the optimal collective measurement and
of estimate-and-discriminate receivers built on squeezed heterodyne
detection, including the optimal squeezing.  A finite-n oracle evaluates
both strategies from the Gram matrices of the coherent states they mix:
<a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b) is analytic, so no number-basis
cutoff enters.

All closed forms take the amplitude modulus; a global phase rotation makes
the localisation centre real and nonnegative without loss of generality.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# relative Gram trace left out of a span factor (see _span_factor)
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
        if not (isinstance(self.n_aux, numbers.Integral) and self.n_aux >= 1):
            raise ValueError(f"n_aux {self.n_aux} must be an integer >= 1")

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
    estimation of squeezing r_squeeze (wide-prior limit)."""
    x, q, u, s = _exp_terms(_check_amplitude(alpha0))
    r_squeeze = _check_squeeze(r_squeeze)
    # every power of e^x is divided out, and 1 - s = q / (1 + s)
    lead = q / (4.0 * s * (1.0 + s)) + x / u * q * (2.0 * s - q) / (8.0 * s)
    cross = x / u * q * q / (16.0 * s)
    return lead * math.cosh(r_squeeze) ** 2 + cross * math.sinh(2.0 * r_squeeze)


def optimal_squeezing(alpha0) -> float:
    """Squeezing minimizing the heterodyne excess risk.

    Negative for every amplitude (antisqueezing along the line to the
    vacuum), diverging like log(3 a^2 / 2) / 4 to -inf for faint signals
    (homodyne limit) and approaching zero for bright ones.
    """
    x, q, u, s = _exp_terms(_check_amplitude(alpha0))
    # log of (u/(1+s) + x (s - q)) / (u/(1+s) + x s), both terms divided by
    # u; the numerator falls short of the denominator by x q / u
    den = 1.0 / (1.0 + s) + x / u * s
    if x > 1.0:
        return 0.25 * math.log1p(-x / u * q / den)
    # faint signals: the numerator, ~3x/2, rearranged so that nothing cancels
    num = u * (2.0 + s) / (1.0 + s) - _exp_remainder(x) * (x / u) * (1.0 - s - u)
    return 0.25 * math.log(num / den)


def concentrate_modes(alpha: complex, n: int) -> complex:
    """Amplitude after piling n equal coherent modes into one with a chain of
    unbalanced beam splitters; energy n |alpha|^2 is conserved."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(n) * alpha


def _hermite_nodes(order: int):
    if not (isinstance(order, numbers.Integral) and order >= 1):
        raise ValueError(f"quadrature_order {order!r} must be a positive integer")
    return np.polynomial.hermite.hermgauss(order)


def coherent_overlap(a, b) -> np.ndarray:
    """Matrix of coherent-state overlaps <a_i|b_j> for amplitude vectors a
    and b: exp(-|a_i|^2/2 - |b_j|^2/2 + conj(a_i) b_j)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    g = np.multiply.outer(np.conj(a), b)
    g -= np.add.outer(np.abs(a) ** 2 / 2.0, np.abs(b) ** 2 / 2.0)
    return np.exp(g, out=g)


def _span_factor(gram: np.ndarray) -> np.ndarray:
    """Pivoted Cholesky factor R (rank x K) with R^H R ~= gram, the Gram
    matrix of K states.

    Each step takes the state farthest from the span of those taken so far;
    R^H R is the Gram matrix of the states projected onto that span, and d
    holds their squared distances from it.  The loop stops once the
    discarded mass eps = sum(d), the trace of the Schur complement, is at
    most _SPAN_TOL * tr(gram).

    Error bound.  An operator sum_k c_k |v_k><v_k| (real c) is replaced by
    its compression to the span, whose nonzero spectrum is that of
    R diag(c) R^H.  Compression never raises the trace norm (pinching) and
    lowers it by at most 2 sqrt(T eps') + eps', with T = sum_k |c_k| gram_kk
    and eps' = sum_k |c_k| d_k.  Both oracles weigh each state by one in
    total (eyd up to its heterodyne quadrature) and have tr(gram) = 2, so
    up to rounding their error probability is never below the exact value
    at the given quadrature and exceeds it by at most
    sqrt(_SPAN_TOL) + _SPAN_TOL / 2, about 3.2e-8; against a truncated-Fock
    evaluation the excess is of the order of eps itself, a few 1e-15.
    """
    d = gram.diagonal().real.copy()
    stop = _SPAN_TOL * d.sum()
    r = np.zeros(gram.shape, dtype=gram.dtype)  # pages past the rank stay untouched
    for i in range(len(d)):
        if d.sum() <= stop:
            return r[:i]
        p = int(np.argmax(d))
        r[i] = (gram[p] - r[:i, p].conj() @ r[:i]) / math.sqrt(d[p])
        d -= np.abs(r[i]) ** 2
        d[p] = 0.0
    return r


def _prior_grid(mu: float, order: int):
    """Complex nodes and weights integrating the width-mu Gaussian prior."""
    x, w = _hermite_nodes(order)
    u = mu * (x[:, None] + 1j * x[None, :])
    wt = (w[:, None] * w[None, :]) / math.pi
    return u.ravel(), wt.ravel()


def known_state_error(cfg: ReadingConfig, quadrature_order: int = 32) -> float:
    """Average minimum error when the drawn amplitude is known exactly;
    the baseline the excess risk is measured from."""
    a0 = cfg.amplitude
    n = cfg.n_aux
    u, wt = _prior_grid(cfg.mu, quadrature_order)
    amp2 = np.abs(a0 + u / math.sqrt(n)) ** 2
    pe = 0.5 * (1.0 - np.sqrt(1.0 - np.exp(-amp2)))
    return float(np.dot(wt, pe))


def finite_n_oracle(
    cfg: ReadingConfig,
    strategy: str = "collective",
    quadrature_order: int = 32,
    squeeze: float = 0.0,
) -> float:
    """Average error of a strategy at finite n.

    The Gaussian prior is integrated with a tensor Gauss-Hermite rule of the
    given order per axis, and the Helstrom operators are evaluated on the
    Gram matrix of the coherent states they mix (error bound in
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
    u, wt = _prior_grid(cfg.mu, order)
    k = len(u)
    # displaced frame: the auxiliary mode carries u, the signal -a0 (no hit)
    # or u/sqrt(n) (hit); each weighted product state sqrt(w_k)|u_k>|s> has
    # the overlaps of its two modes multiplied
    sig = np.concatenate([np.full(k, -cfg.amplitude), u / math.sqrt(cfg.n_aux)])
    gram = coherent_overlap(sig, sig)
    sw = np.sqrt(wt)
    pairs = gram.reshape(2, k, 2, k)  # a view: (hypothesis, node) twice
    pairs *= (coherent_overlap(u, u) * np.outer(sw, sw))[:, None, :]
    r = _span_factor(gram)
    # the hypotheses' difference V J V^H, J = diag(1, -1), has the nonzero
    # spectrum of R J R^H
    w = np.linalg.eigvalsh((r[:, :k] @ r[:, :k].conj().T) - (r[:, k:] @ r[:, k:].conj().T))
    return 0.5 * (1.0 - 0.5 * float(np.abs(w).sum()))


def _oracle_eyd(cfg: ReadingConfig, order: int, squeeze: float) -> float:
    mu = cfg.mu
    u, wu = _prior_grid(mu, order)
    # heterodyne noise variances 1/(2 (1 +- tanh r)) at squeezing r, written
    # (1 + e^(-+2r)) / 4 so that no finite r divides by zero
    r_sq = _check_squeeze(squeeze)
    var1, var2 = (1.0 + math.exp(-2.0 * r_sq)) / 4.0, (1.0 + math.exp(2.0 * r_sq)) / 4.0
    # one factor of the states |-a0> and sqrt(w_k)|u_k/sqrt(n)> serves every
    # heterodyne node
    states = np.concatenate([[-cfg.amplitude], u / math.sqrt(cfg.n_aux)])
    sw = np.concatenate([[1.0], np.sqrt(wu)])
    r = _span_factor(coherent_overlap(states, states) * np.outer(sw, sw))

    # heterodyne outcome v = u + Gaussian noise with axis variances var1 and
    # var2; integrate v with a matched Gauss-Hermite grid
    x, w = _hermite_nodes(order)
    s1 = math.sqrt(mu * mu / 2.0 + var1)
    s2 = math.sqrt(mu * mu / 2.0 + var2)
    v_nodes = np.add.outer(math.sqrt(2.0) * s1 * x, 1j * (math.sqrt(2.0) * s2 * x)).ravel()
    # quadrature of integral dv^2 f(v): weights w_i w_j * 2 s1 s2 * exp(+x^2)
    v_jac = (2.0 * s1 * s2 * np.outer(w, w) * np.exp(x[:, None] ** 2 + x[None, :] ** 2)).ravel()
    du1 = np.real(u)[None, :] - np.real(v_nodes)[:, None]
    du2 = np.imag(u)[None, :] - np.imag(v_nodes)[:, None]
    p_v_u = np.exp(-(du1 * du1) / (2.0 * var1) - (du2 * du2) / (2.0 * var2))
    p_v_u /= 2.0 * math.pi * math.sqrt(var1 * var2)

    # node v's operator p(v)|-a0><-a0| - sum_k p(v|u_k) w_k |u_k/sqrt(n)><.|
    # is R diag(c_v) R^H: all of them come from one product of the weights
    # with the outer products of the columns of R
    p_v = p_v_u @ wu
    coef = np.concatenate([p_v[:, None], -p_v_u], axis=1)
    rank = len(r)
    outer = (r.T[:, :, None] * r.T.conj()[:, None, :]).reshape(len(states), rank * rank)
    ops = (coef @ outer).reshape(len(v_nodes), rank, rank)
    # each node's trace norm is at most 2 p(v); dividing by the outcome mass
    # that the v rule integrates keeps Pe in [0, 1/2] at low orders, where
    # that mass can be off one by a quarter, and shrinks the quadrature error
    total = float(v_jac @ np.abs(np.linalg.eigvalsh(ops)).sum(axis=1))
    return 0.5 * (1.0 - 0.5 * total / float(v_jac @ p_v))


def eigvec_overlap_identities(alpha0) -> dict:
    """Squared number-state overlaps of the eigenvectors of the rank-2
    difference of the two displaced signal hypotheses.

    Returns the overlaps with |0> and |1> of the +/- eigenvectors, the
    |1>-overlap of the in-plane-orthogonal complement, and the completeness
    defect of the three |1>-overlaps; closed forms that the construction
    from the number-state amplitudes must reproduce.
    """
    a = _check_amplitude(alpha0)
    x, q, u, s = _exp_terms(a)
    # |0> and |-a> overlap in e^(-x/2) = 1 - h; their normalized sum and
    # difference have norms sqrt(2 - h) and sqrt(h), and the vacuum entry of
    # the difference is -h, taken from expm1 rather than by subtraction
    h = -math.expm1(-x / 2.0)
    # only the |0> and |1> amplitudes of |-a>, e and -a e, enter
    e = math.exp(-x / 2.0)
    plus_dir = np.array([1.0 + e, -a * e]) / math.sqrt(2.0 - h)
    minus_dir = np.array([-h, -a * e]) / math.sqrt(h)
    v_plus = 0.5 * (plus_dir + minus_dir)
    v_minus = 0.5 * (plus_dir - minus_dir)
    ov0 = {
        "+": abs(v_plus[0]) ** 2,
        "-": abs(v_minus[0]) ** 2,
        "closed+": 0.5 * q / (1.0 + s),
        "closed-": 0.5 * (1.0 + s),
    }
    # x / (e^x - 1) = x q / u, and 1 - s = q / (1 + s)
    ov1 = {
        "+": abs(v_plus[1]) ** 2,
        "-": abs(v_minus[1]) ** 2,
        "closed+": 0.5 * x * q * (1.0 + s) / u,
        "closed-": 0.5 * x * q * q / ((1.0 + s) * u),
    }
    # 1 - x q / u; for faint signals u - x q = x (u - (x - u)/x), which
    # does not cancel
    if x > 1.0:
        ov1_perp = 1.0 - x * q / u
    else:
        ov1_perp = x * (u - _exp_remainder(x)) / u
    completeness = ov1["+"] + ov1["-"] + ov1_perp - 1.0
    gap0 = 2.0 * s
    return {
        "overlap0": ov0,
        "overlap1": ov1,
        "overlap1_perp": ov1_perp,
        "completeness_defect": completeness,
        "zero_order_gap": gap0,
    }
