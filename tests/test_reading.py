import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qdl import reading
from qdl.discrimination import pure_overlap_error


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_collective_excess_risk_value():
    assert reading.collective_excess_risk(1.0) == pytest.approx(0.0747, abs=5e-5)


def test_collective_excess_risk_limits():
    # exponential suppression for bright sources; for faint sources the
    # closed form grows like 1/(16 a) (the prior-rescaled problem never
    # becomes trivial as the hypotheses merge)
    assert reading.collective_excess_risk(8.0) < 1e-10
    for a in (1e-3, 1e-5, 1e-100):
        assert reading.collective_excess_risk(a) == pytest.approx(1 / (16 * a), rel=1e-3)
    with pytest.raises(ValueError):
        reading.collective_excess_risk(0.0)


def test_collective_excess_risk_phase_invariant():
    base = reading.collective_excess_risk(0.8)
    for phase in (0.3, 2.0, -1.1):
        assert reading.collective_excess_risk(0.8 * np.exp(1j * phase)) == pytest.approx(
            base, abs=1e-15
        )


def test_finite_prior_risk_approaches_wide_prior():
    a0 = 0.9
    wide = reading.collective_excess_risk(a0)
    assert reading.collective_excess_risk_finite_prior(a0, 300.0) == pytest.approx(
        wide, rel=1e-4
    )
    # finite width is always below the wide-prior limit
    assert reading.collective_excess_risk_finite_prior(a0, 1.0) < wide
    for mu in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"mu {mu}"):
            reading.collective_excess_risk_finite_prior(a0, mu)


def test_optimal_squeezing_properties():
    values = [reading.optimal_squeezing(a) for a in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(v < 0 for v in values)
    assert abs(values[-1]) < 1e-2  # approaches zero for bright signals
    assert values[0] < values[2] < values[-1]  # diverges toward homodyne
    # faint-signal limit log(3 a^2 / 2) / 4, whose O(a) correction vanishes
    for a in (1e-9, 1e-100):
        want = 0.25 * math.log(1.5 * a * a)
        assert reading.optimal_squeezing(a) == pytest.approx(want, rel=1e-8)


def test_optimal_squeezing_minimizes_closed_form():
    for a0 in (0.5, 1.0, 1.5):
        r = reading.optimal_squeezing(a0)
        base = reading.eyd_excess_risk(a0, r)
        for dr in (-0.05, -0.01, 0.01, 0.05):
            assert reading.eyd_excess_risk(a0, r + dr) >= base - 1e-14


def test_eyd_gap_closes_for_bright_signals():
    gaps = []
    for a0 in (1.0, 2.0, 3.0):
        gaps.append(
            reading.eyd_excess_risk(a0, reading.optimal_squeezing(a0))
            - reading.collective_excess_risk(a0)
        )
    assert gaps[0] > gaps[1] > gaps[2] >= 0


def test_collective_beats_eyd_on_grid_with_factor_two():
    grid = np.linspace(0.3, 1.5, 25)
    ratios = []
    for a0 in grid:
        col = reading.collective_excess_risk(float(a0))
        eyd = reading.eyd_excess_risk(float(a0), reading.optimal_squeezing(float(a0)))
        assert col < eyd
        ratios.append(eyd / col)
    assert max(ratios) > 2.0


def _eyd_risk_high_precision(a: float, r: float):
    """lead cosh^2 r + cross sinh 2r, the eyd closed form as written before
    its rearrangement, at 50 digits beyond the 2 |log10 a| its two
    cancelling terms cost."""
    with mpmath.workdps(50 + int(2 * max(0.0, -math.log10(a)))):
        x = mpmath.mpf(a) ** 2
        q, u = mpmath.exp(-x), -mpmath.expm1(-x)
        s = mpmath.sqrt(u)
        lead = q / (4 * s * (1 + s)) + x / u * q * (2 * s - q) / (8 * s)
        cross = x / u * q * q / (16 * s)
        return lead * mpmath.cosh(r) ** 2 + cross * mpmath.sinh(2 * r)


@pytest.mark.parametrize(
    "a", [*np.logspace(-150, -14, 18), 0.2, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
)
def test_eyd_risk_matches_high_precision_at_optimal_squeezing(a):
    # for faint signals the two terms of lead cosh^2 r + cross sinh 2r
    # cancel almost completely at the optimal squeezing
    r = reading.optimal_squeezing(float(a))
    got = reading.eyd_excess_risk(float(a), r)
    want = _eyd_risk_high_precision(float(a), r)
    assert abs(got - want) <= 1e-12 * want


def test_eyd_risk_finite_under_strong_antisqueezing_of_faint_signals():
    # both terms of lead cosh^2 r + cross sinh 2r overflow here, but their
    # sum does not
    for a, r in ((1e-9, -354.0), (1e-9, -20.0), (1e-150, -300.0)):
        got = reading.eyd_excess_risk(a, r)
        assert abs(got - _eyd_risk_high_precision(a, r)) <= 1e-12 * got


def test_plain_heterodyne_value():
    # squeezing zero evaluates the closed form directly
    a0 = 1.0
    x = a0 * a0
    e = math.exp(x)
    s = math.sqrt(1 - math.exp(-x))
    bracket = 4 * e * (1 - e) * (s - 1) + x * (4 * e * s - 2)
    want = math.exp(-x) / (16 * s * (e - 1)) * bracket
    assert reading.eyd_excess_risk(1.0, 0.0) == pytest.approx(want, abs=1e-15)


AMPLITUDE_CLOSED_FORMS = {
    "collective_excess_risk": reading.collective_excess_risk,
    "eyd_excess_risk": lambda a: reading.eyd_excess_risk(a, -0.3),
    "optimal_squeezing": reading.optimal_squeezing,
}


@pytest.mark.parametrize("name", sorted(AMPLITUDE_CLOSED_FORMS))
def test_closed_forms_finite_or_naming_the_amplitude(name):
    f = AMPLITUDE_CLOSED_FORMS[name]
    # finite wherever the squared amplitude is a positive normal float
    for a in (1.5e-154, 1e-9, 0.05, 1.0, 5.0, 26.0, 40.0, 1e154, -1e-9, 3.0j):
        assert math.isfinite(f(a))
    # zero, non-finite, and squares that underflow or overflow
    for bad in (0.0, 1e-155, 1e155, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"amplitude {re.escape(str(bad))}"):
            f(bad)


def test_concentrate_modes():
    assert reading.concentrate_modes(0.5 + 0.5j, 1) == 0.5 + 0.5j
    assert reading.concentrate_modes(0.3 + 0.1j, 4) == pytest.approx(0.6 + 0.2j)
    alpha, n = 0.7 + 0.2j, 9
    assert abs(reading.concentrate_modes(alpha, n)) ** 2 == pytest.approx(
        n * abs(alpha) ** 2
    )


@pytest.mark.parametrize("bad", [0, -3, 2.5, math.nan, True, "4"])
def test_concentrate_modes_bad_mode_count_raises_naming_it(bad):
    with pytest.raises(ValueError, match=f"^n {re.escape(repr(bad))} "):
        reading.concentrate_modes(1.0, bad)


# ---------------------------------------------------------------------------
# coherent states: truncated Fock reference and analytic overlaps
# ---------------------------------------------------------------------------


def test_coherent_vector_normalized_at_rule_cutoff():
    for a in (0.5, 2.0, 5.0, 9.0):
        vec = oracles.coherent_vector(a, oracles.fock_cutoff(a))
        assert 1.0 - float(np.vdot(vec, vec).real) < 1e-12


def test_coherent_vector_overlap():
    k = oracles.fock_cutoff(2.0)
    va = oracles.coherent_vector(1.2, k)
    vb = oracles.coherent_vector(-0.4 + 0.3j, k)
    want = math.exp(-abs(1.2 - (-0.4 + 0.3j)) ** 2)
    assert abs(np.vdot(va, vb)) ** 2 == pytest.approx(want, abs=1e-12)


def test_coherent_vector_tail_violation_raises():
    with pytest.raises(ValueError, match="cutoff"):
        oracles.coherent_vector(4.0, 10)


def test_coherent_overlap_matches_fock_vectors():
    amps = np.array([0.0, 1.2, -0.4 + 0.3j, 2.5j, -3.0 - 1.0j])
    k = oracles.fock_cutoff(float(np.abs(amps).max()))
    vecs = np.stack([oracles.coherent_vector(z, k) for z in amps])
    want = vecs.conj() @ vecs.T
    assert np.abs(reading.coherent_overlap(amps, amps) - want).max() < 1e-12
    assert reading.coherent_overlap(amps[1:2], amps[3:]).shape == (1, 2)
    # two-mode product states, one row each, against Kronecker products
    pairs = np.stack([amps, amps[::-1]], axis=1)
    prods = np.stack([np.kron(va, vb) for va, vb in zip(vecs, vecs[::-1])])
    got = reading.coherent_overlap(pairs, pairs[1:4])
    assert np.abs(got - prods.conj() @ prods[1:4].T).max() < 1e-12


def test_coherent_overlap_of_one_mode_is_the_single_mode_formula():
    rng = np.random.default_rng(5)
    a = rng.normal(size=30) + 1j * rng.normal(size=30)
    b = 2.0 * (rng.normal(size=20) + 1j * rng.normal(size=20))
    want = np.exp(
        np.multiply.outer(np.conj(a), b)
        - np.add.outer(np.abs(a) ** 2 / 2.0, np.abs(b) ** 2 / 2.0)
    )
    got = reading.coherent_overlap(a, b)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 4e-15


def test_gaussian_prior_quadrature_moments():
    for mu in (0.7, 1.3):
        _, _, u, wt = reading._prior_grid(mu, 24)
        assert float(wt.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float((wt * np.abs(u) ** 2).sum()) == pytest.approx(mu * mu, abs=1e-10)
        assert abs(complex((wt * (u + np.conj(u))).sum())) < 1e-10


def test_eigvec_overlap_identities():
    for a0 in (1e-9, 0.6, 1.0, 1.7, 5.0, 40.0):
        ids = oracles.eigvec_overlap_identities(a0)
        for key in ("+", "-"):
            assert ids["overlap0"][key] == pytest.approx(
                ids["overlap0"]["closed" + key], abs=1e-12
            )
            assert ids["overlap1"][key] == pytest.approx(
                ids["overlap1"]["closed" + key], abs=1e-12
            )
        assert abs(ids["completeness_defect"]) < 1e-10
        assert ids["zero_order_gap"] == pytest.approx(
            2 * math.sqrt(-math.expm1(-a0 * a0)), abs=1e-14
        )


@pytest.mark.parametrize("a0", [1e-9, 40.0])
def test_eigvec_overlap_identities_at_extreme_amplitudes(a0):
    # the faint and the bright end give finite values, matched by the
    # truncated construction to relative precision
    ids = oracles.eigvec_overlap_identities(a0)
    for group in ("overlap0", "overlap1"):
        for key in ("+", "-"):
            got, want = ids[group][key], ids[group]["closed" + key]
            assert math.isfinite(got) and math.isfinite(want)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)
    assert math.isfinite(ids["overlap1_perp"])
    assert abs(ids["completeness_defect"]) < 1e-14
    # 1 - x / (e^x - 1), about x/2 for faint signals and 1 for bright ones
    want_perp = a0 * a0 / 2 if a0 < 1 else 1.0
    assert ids["overlap1_perp"] == pytest.approx(want_perp, rel=1e-9)


# ---------------------------------------------------------------------------
# finite-copy oracle
# ---------------------------------------------------------------------------


def test_oracle_known_state_limit():
    # a vanishing prior width makes the source amplitude known: the error is
    # the pure-state rate at overlap e^(-|a|^2/2)
    for a0 in (0.6, 1.1):
        cfg = reading.ReadingConfig(alpha0=a0, mu=1e-5, n_aux=1)
        got = reading.finite_n_oracle(cfg, "collective", quadrature_order=8)
        want = pure_overlap_error(math.exp(-a0 * a0 / 2), 0.5)
        assert got == pytest.approx(want, abs=1e-9)


def test_oracle_collective_beats_eyd_at_finite_n():
    cfg = reading.ReadingConfig(alpha0=0.5, mu=1.0, n_aux=64)
    col = reading.finite_n_oracle(cfg, "collective", quadrature_order=10)
    eyd = reading.finite_n_oracle(cfg, "eyd", quadrature_order=10, squeeze=0.0)
    assert col < eyd


def test_oracle_eyd_squeezing_helps():
    cfg = reading.ReadingConfig(alpha0=0.5, mu=1.0, n_aux=64)
    r_opt = reading.optimal_squeezing(0.5)
    tuned = reading.finite_n_oracle(cfg, "eyd", quadrature_order=10, squeeze=r_opt)
    plain = reading.finite_n_oracle(cfg, "eyd", quadrature_order=10, squeeze=0.0)
    assert tuned < plain


# settings where the truncated-Fock reference runs in about a second
FOCK_SETTINGS = [(0.95, 0.5, 16, 8), (0.7, 0.3, 4, 6), (1.2, 0.4, 9, 7)]


@pytest.mark.parametrize("a0, mu, naux, order", FOCK_SETTINGS)
def test_gram_oracles_match_fock_reference(a0, mu, naux, order):
    cfg = reading.ReadingConfig(alpha0=a0, mu=mu, n_aux=naux)
    for strategy, squeeze in [("collective", 0.0), ("eyd", 0.0), ("eyd", 0.3), ("eyd", -0.4)]:
        got = reading.finite_n_oracle(cfg, strategy, order, squeeze=squeeze)
        want = oracles.reading_oracle_fock(cfg, strategy, order, squeeze=squeeze)
        assert got == pytest.approx(want, abs=1e-12), (strategy, squeeze)


def test_span_factor_reproduces_gram_matrix():
    z = np.linspace(-1.0, 1.0, 40) * (1 + 0.5j)
    cases = [(z, np.ones(len(z)), reading.coherent_overlap(z, z))]
    # the collective oracle's weighted two-mode product states: their Gram
    # matrix is the product of the single-mode ones, scaled by sqrt(w_i w_j)
    _, _, u, wt = reading._prior_grid(0.5, 6)
    sig = np.concatenate([np.full(len(u), -0.9), u / 4.0])
    aux = np.tile(u, 2)
    w = np.tile(wt, 2)
    gram = reading.coherent_overlap(aux, aux) * reading.coherent_overlap(sig, sig)
    cases.append((np.stack([aux, sig], axis=1), w, gram * np.sqrt(np.outer(w, w))))
    for amps, weights, gram in cases:
        r = reading._span_factor(amps, weights)
        assert len(r) < len(amps)  # nearby coherent states span few dimensions
        resid = gram - r.conj().T @ r
        assert np.trace(resid).real <= reading._SPAN_TOL * weights.sum()
        assert np.abs(resid).max() < 1e-14


def test_oracle_orders_24_and_32_agree():
    cfg = reading.ReadingConfig(alpha0=0.9, mu=1.0, n_aux=16)
    for strategy, squeeze in [("collective", 0.0), ("eyd", reading.optimal_squeezing(0.9))]:
        pe24, pe32 = (
            reading.finite_n_oracle(cfg, strategy, order, squeeze=squeeze) for order in (24, 32)
        )
        assert abs(pe24 - pe32) < 1e-9, strategy


def test_collective_oracle_orders_32_and_48_agree():
    # 2 x 48^2 states: the span factor builds only the rows it pivots on
    cfg = reading.ReadingConfig(alpha0=0.9, mu=1.0, n_aux=16)
    pe32, pe48 = (reading.finite_n_oracle(cfg, "collective", order) for order in (32, 48))
    assert abs(pe32 - pe48) < 1e-9


def test_eyd_oracle_peak_memory_at_order_32():
    # the heterodyne kernel factors over the two quadrature axes, so no array
    # spans heterodyne nodes x prior nodes (the dense kernel peaked at 69 MiB)
    cfg = reading.ReadingConfig(alpha0=0.9, mu=1.0, n_aux=16)
    squeeze = reading.optimal_squeezing(0.9)
    tracemalloc.start()
    try:
        reading.finite_n_oracle(cfg, "eyd", 32, squeeze)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_collective_oracle_peak_memory_at_order_64():
    # 2 x 64^2 states: the span factor holds only the rows up to the rank
    # (a K x K factor would be 1 GiB here)
    cfg = reading.ReadingConfig(alpha0=0.9, mu=1.0, n_aux=16)
    tracemalloc.start()
    try:
        reading.finite_n_oracle(cfg, "collective", 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


@settings(deadline=None)
@given(
    a0=st.floats(min_value=0.3, max_value=1.5),
    mu=st.floats(min_value=0.2, max_value=1.5),
    naux=st.integers(min_value=1, max_value=64),
    order=st.integers(min_value=4, max_value=10),
    squeeze=st.floats(min_value=-1.0, max_value=1.0),
)
def test_oracles_in_range_and_above_known_state(a0, mu, naux, order, squeeze):
    cfg = reading.ReadingConfig(alpha0=a0, mu=mu, n_aux=naux)
    col = reading.finite_n_oracle(cfg, "collective", order)
    eyd = reading.finite_n_oracle(cfg, "eyd", order, squeeze=squeeze)
    # knowing the drawn amplitude can only help, exactly so on the discrete
    # ensemble by convexity of the trace norm
    assert reading.known_state_error(cfg, order) <= col + 1e-12
    assert 0.0 <= col <= 0.5
    assert 0.0 <= eyd <= 0.5


@pytest.mark.parametrize("a0, mu, naux", [(6.0, 1.0, 16), (3.0, 0.5, 64), (1.0, 1.0, 16)])
def test_known_state_error_against_mpmath_on_its_grid(a0, mu, naux):
    # each node's error (1 - sqrt(1 - e^-amp2)) / 2 cancelled for bright
    # amplitudes: 4.7e-2 off at alpha0 = 6
    cfg = reading.ReadingConfig(alpha0=a0, mu=mu, n_aux=naux)
    _, _, u, wt = reading._prior_grid(mu, 16)
    with mpmath.workdps(50):
        x = [mpmath.exp(-abs(a0 + mpmath.mpc(z) / mpmath.sqrt(naux)) ** 2) for z in u.tolist()]
        want = mpmath.fsum(mpmath.mpf(w) * (1 - mpmath.sqrt(1 - v)) / 2
                           for v, w in zip(x, wt.tolist()))
    assert abs(reading.known_state_error(cfg, 16) - want) <= 1e-13 * want


def test_oracle_eyd_finite_at_extreme_squeezing():
    cfg = reading.ReadingConfig(alpha0=0.9, mu=1.0, n_aux=16)
    for squeeze in (50.0, -50.0, 300.0):
        assert 0.0 <= reading.finite_n_oracle(cfg, "eyd", 8, squeeze=squeeze) <= 0.5


CFG = reading.ReadingConfig(alpha0=0.9, mu=1.0, n_aux=4)
# each call must raise a ValueError that names its bad input
BAD_READING_INPUTS = [
    pytest.param("squeeze nan", lambda: reading.finite_n_oracle(CFG, "eyd", 8, squeeze=math.nan),
                 id="oracle-squeeze-nan"),
    pytest.param("squeeze inf", lambda: reading.finite_n_oracle(CFG, "eyd", 8, squeeze=math.inf),
                 id="oracle-squeeze-inf"),
    pytest.param("squeeze -1000.0",
                 lambda: reading.finite_n_oracle(CFG, "eyd", 8, squeeze=-1000.0),
                 id="oracle-squeeze-overflow"),
    pytest.param("squeeze nan", lambda: reading.eyd_excess_risk(0.9, math.nan),
                 id="closed-form-squeeze-nan"),
    pytest.param("squeeze inf", lambda: reading.eyd_excess_risk(0.9, math.inf),
                 id="closed-form-squeeze-inf"),
    pytest.param("r_squeeze 354.0 at alpha0 1e-09",
                 lambda: reading.eyd_excess_risk(1e-9, 354.0), id="closed-form-not-finite"),
    pytest.param("quadrature_order 2.5", lambda: reading.finite_n_oracle(CFG, "collective", 2.5),
                 id="order-fraction"),
    pytest.param("quadrature_order 0", lambda: reading.finite_n_oracle(CFG, "eyd", 0),
                 id="order-zero"),
    pytest.param("quadrature_order -3", lambda: reading.known_state_error(CFG, -3),
                 id="order-negative"),
    pytest.param("mu inf", lambda: reading.ReadingConfig(0.9, math.inf, 4), id="mu-inf"),
    pytest.param("n_aux 2.5", lambda: reading.ReadingConfig(0.9, 1.0, 2.5), id="n-aux-fraction"),
    pytest.param("n_aux True", lambda: reading.ReadingConfig(0.9, 0.5, True), id="n-aux-bool"),
    pytest.param("quadrature_order True",
                 lambda: reading.known_state_error(CFG, quadrature_order=True), id="order-bool"),
    pytest.param("quadrature_order True",
                 lambda: reading.finite_n_oracle(CFG, "collective", True), id="oracle-order-bool"),
]


@pytest.mark.parametrize("named, call", BAD_READING_INPUTS)
def test_bad_reading_inputs_raise_naming_them(named, call):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


def test_oracle_rejects_unknown_strategy():
    cfg = reading.ReadingConfig(alpha0=1.0, mu=1.0, n_aux=4)
    with pytest.raises(ValueError, match="strategy"):
        reading.finite_n_oracle(cfg, "homodyne")


@pytest.mark.parametrize(
    "alpha0", [math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)]
)
def test_reading_config_rejects_nonfinite_amplitude(alpha0):
    with pytest.raises(ValueError, match=re.escape(str(alpha0))):
        reading.ReadingConfig(alpha0=alpha0, mu=1.0, n_aux=2)


def test_reading_config_validation():
    with pytest.raises(ValueError):
        reading.ReadingConfig(alpha0=1.0, mu=0.0, n_aux=4)
    with pytest.raises(ValueError):
        reading.ReadingConfig(alpha0=1.0, mu=1.0, n_aux=0)
