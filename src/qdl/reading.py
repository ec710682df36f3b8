"""Reading a binary classical memory with coherent light of uncertain
amplitude.

The reflected signal is either the vacuum or a coherent state whose
amplitude is only localised, by a Gaussian prior of width mu/sqrt(n), around
a known centre; n auxiliary modes from the same source help.  Closed forms
cover the asymptotic excess risk of the optimal collective measurement and
of estimate-and-discriminate receivers built on squeezed heterodyne
detection, including the optimal squeezing.  A truncated-Fock oracle
evaluates both strategies at finite n.

All closed forms take the amplitude modulus; a global phase rotation makes
the localisation centre real and nonnegative without loss of generality.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class ReadingConfig:
    """Localisation centre, prior width, and number of auxiliary modes."""

    alpha0: complex
    mu: float
    n_aux: int

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("prior width mu must be positive")
        if self.n_aux < 1:
            raise ValueError("n_aux must be >= 1")

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


def eyd_excess_risk(alpha0, r_squeeze: float) -> float:
    """Excess risk of estimate-then-discriminate with a squeezed heterodyne
    estimation of squeezing r_squeeze (wide-prior limit)."""
    x, q, u, s = _exp_terms(_check_amplitude(alpha0))
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


def fock_cutoff(amplitude: float) -> int:
    """Truncation rank keeping the tail of a coherent state of the given
    modulus below 1e-12: ceil(a^2 + 8a + 20)."""
    a = abs(amplitude)
    return int(math.ceil(a * a + 8.0 * a + 20.0))


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of |alpha> truncated at the given rank.

    Raises when the truncated mass misses more than 1e-12.
    """
    k = np.arange(cutoff + 1)
    with np.errstate(divide="ignore"):
        logmag = np.where(k > 0, k * np.log(np.maximum(np.abs(alpha), 1e-300)), 0.0)
    log_norm = -abs(alpha) ** 2 / 2.0
    from scipy.special import gammaln

    amp = np.exp(log_norm + logmag - gammaln(k + 1) / 2.0) * np.exp(
        1j * k * np.angle(alpha)
    )
    tail = 1.0 - float(np.vdot(amp, amp).real)
    if tail > _TAIL_TOL:
        raise ValueError(
            f"coherent state |alpha|={abs(alpha):.3f} loses {tail:.2e} mass at "
            f"cutoff {cutoff}; increase the cutoff"
        )
    return amp


def _hermite_nodes(order: int):
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, w


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
    """Average error of a strategy at finite n in truncated Fock space.

    The Gaussian prior is integrated with a tensor Gauss-Hermite rule of the
    given order per axis.  ``strategy`` is "collective" (joint optimal
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
    a0 = cfg.amplitude
    n = cfg.n_aux
    u, wt = _prior_grid(cfg.mu, order)
    # displaced frame: auxiliary mode carries u, signal carries -a0 or u/sqrt(n)
    k1 = fock_cutoff(float(np.abs(u).max()))
    k2 = fock_cutoff(max(a0, float(np.abs(u).max()) / math.sqrt(n)))
    aux = np.stack([coherent_vector(z, k1) for z in u], axis=1)
    sig_vac = coherent_vector(-a0, k2)
    sig_hit = np.stack(
        [coherent_vector(z / math.sqrt(n), k2) for z in u], axis=1
    )
    sw = np.sqrt(wt)
    v1 = np.einsum("ak,bk->abk", aux * sw, np.tile(sig_vac[:, None], (1, len(u))))
    v2 = np.einsum("ak,bk->abk", aux * sw, sig_hit)
    d = (k1 + 1) * (k2 + 1)
    v1 = v1.reshape(d, len(u))
    v2 = v2.reshape(d, len(u))
    diff = v1 @ v1.conj().T - v2 @ v2.conj().T
    w = np.linalg.eigvalsh(diff)
    return 0.5 * (1.0 - 0.5 * float(np.abs(w).sum()))


def _oracle_eyd(cfg: ReadingConfig, order: int, squeeze: float) -> float:
    a0 = cfg.amplitude
    n = cfg.n_aux
    mu = cfg.mu
    u, wu = _prior_grid(mu, order)
    tanh_r = math.tanh(squeeze)
    cosh_r = math.cosh(squeeze)

    # heterodyne outcome v = u + Gaussian noise with axis variances
    # 1/(2 (1 +- tanh r)); integrate v with a matched Gauss-Hermite grid
    x, w = _hermite_nodes(order)
    s1 = math.sqrt(mu * mu / 2.0 + 1.0 / (2.0 * (1.0 + tanh_r)))
    s2 = math.sqrt(mu * mu / 2.0 + 1.0 / (2.0 * (1.0 - tanh_r)))
    v_nodes = (math.sqrt(2.0) * s1 * x)[:, None] + 1j * (
        math.sqrt(2.0) * s2 * x
    )[None, :]
    v_nodes = v_nodes.ravel()
    # quadrature of integral dv^2 f(v): weights w_i w_j * 2 s1 s2 * exp(+x^2)
    v_jac = (
        2.0
        * s1
        * s2
        * (w[:, None] * w[None, :])
        * np.exp(x[:, None] ** 2 + x[None, :] ** 2)
    ).ravel()

    k2 = fock_cutoff(max(a0, float(np.abs(u).max()) / math.sqrt(n)))
    sig_vac = coherent_vector(-a0, k2)
    sig_hit = np.stack([coherent_vector(z / math.sqrt(n), k2) for z in u], axis=1)

    du1 = np.real(u)[None, :] - np.real(v_nodes)[:, None]
    du2 = np.imag(u)[None, :] - np.imag(v_nodes)[:, None]
    p_v_u = (
        np.exp(-(du1 * du1) * (1.0 + tanh_r) - (du2 * du2) * (1.0 - tanh_r))
        / (math.pi * cosh_r)
    )
    post = p_v_u * wu[None, :]  # joint weight over (v, u)
    p_v = post.sum(axis=1)

    vac_proj = np.outer(sig_vac, sig_vac.conj())
    total = 0.0
    for i in range(len(v_nodes)):
        weights = post[i]
        sigma = (sig_hit * weights) @ sig_hit.conj().T
        wdiff = np.linalg.eigvalsh(p_v[i] * vac_proj - sigma)
        total += v_jac[i] * float(np.abs(wdiff).sum())
    return 0.5 * (1.0 - 0.5 * total)


def eigvec_overlap_identities(alpha0, cutoff: int | None = None) -> dict:
    """Squared number-state overlaps of the eigenvectors of the rank-2
    difference of the two displaced signal hypotheses.

    Returns the overlaps with |0> and |1> of the +/- eigenvectors, the
    |1>-overlap of the in-plane-orthogonal complement, and the completeness
    defect of the three |1>-overlaps; closed forms that the truncated-Fock
    construction must reproduce.
    """
    a = _check_amplitude(alpha0)
    if cutoff is None:
        cutoff = fock_cutoff(a)
    x = a * a
    s = math.sqrt(1.0 - math.exp(-x))
    minus = coherent_vector(-a, cutoff)
    zero = np.zeros(cutoff + 1)
    zero[0] = 1.0
    n_plus = math.sqrt(1.0 + math.exp(-x / 2.0))
    n_minus = math.sqrt(1.0 - math.exp(-x / 2.0))
    v_plus = 0.5 * ((minus + zero) / n_plus + (minus - zero) / n_minus)
    v_minus = 0.5 * ((minus + zero) / n_plus - (minus - zero) / n_minus)
    ov0 = {
        "+": abs(v_plus[0]) ** 2,
        "-": abs(v_minus[0]) ** 2,
        "closed+": 0.5 * (1.0 - s),
        "closed-": 0.5 * (1.0 + s),
    }
    ov1 = {
        "+": abs(v_plus[1]) ** 2,
        "-": abs(v_minus[1]) ** 2,
        "closed+": 0.5 * x * (1.0 + s) / (math.exp(x) - 1.0),
        "closed-": 0.5 * x * (1.0 - s) / (math.exp(x) - 1.0),
    }
    ov1_perp = 1.0 - x * math.exp(-x) / (1.0 - math.exp(-x))
    completeness = ov1["+"] + ov1["-"] + ov1_perp - 1.0
    gap0 = 2.0 * s
    return {
        "overlap0": ov0,
        "overlap1": ov1,
        "overlap1_perp": ov1_perp,
        "completeness_defect": completeness,
        "zero_order_gap": gap0,
    }
