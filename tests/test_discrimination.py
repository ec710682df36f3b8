import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qdl import discrimination as disc
from qdl.linalg import QubitState


def pure_pair(c, dim=2):
    t = math.acos(c)
    psi1 = np.array([math.cos(t / 2), math.sin(t / 2)])
    psi2 = np.array([math.cos(t / 2), -math.sin(t / 2)])
    return np.outer(psi1, psi1).astype(complex), np.outer(psi2, psi2).astype(complex)


# ---------------------------------------------------------------------------
# Helstrom
# ---------------------------------------------------------------------------


def test_helstrom_orthogonal_and_identical():
    r1, r2 = pure_pair(0.0)
    assert disc.helstrom_error(disc.BinaryHypotheses(r1, r2)) == pytest.approx(0.0, abs=1e-14)
    for eta in (0.5, 0.2, 0.9):
        h = disc.BinaryHypotheses(r1, r1, eta)
        assert disc.helstrom_error(h) == pytest.approx(min(eta, 1 - eta), abs=1e-12)


def test_helstrom_overlap_07():
    r1, r2 = pure_pair(0.7)
    got = disc.helstrom_error(disc.BinaryHypotheses(r1, r2))
    assert got == pytest.approx((1 - math.sqrt(0.51)) / 2, abs=1e-12)
    assert got == pytest.approx(0.1429, abs=1e-4)


def test_helstrom_prior_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(10):
        r1 = oracles.random_density(rng, 3)
        r2 = oracles.random_density(rng, 3)
        eta = rng.uniform()
        a = disc.helstrom_error(disc.BinaryHypotheses(r1, r2, eta))
        b = disc.helstrom_error(disc.BinaryHypotheses(r2, r1, 1 - eta))
        assert a == pytest.approx(b, abs=1e-12)


def test_helstrom_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        disc.BinaryHypotheses(np.eye(2) / 2, np.eye(3) / 3)


def test_pure_overlap_error_matches_helstrom():
    for c in (0.0, 0.4, 1.0):
        for eta in (0.5, 0.3):
            r1, r2 = pure_pair(c)
            h = disc.BinaryHypotheses(r1, r2, eta)
            assert disc.pure_overlap_error(c, eta) == pytest.approx(
                disc.helstrom_error(h), abs=1e-12
            )
    assert disc.pure_overlap_error(0.0) == 0.0
    assert disc.pure_overlap_error(1.0) == pytest.approx(0.5)
    assert disc.pure_overlap_error(0.5) == pytest.approx((1 - math.sqrt(3) / 2) / 2)


# ---------------------------------------------------------------------------
# unambiguous
# ---------------------------------------------------------------------------


def test_unambiguous_symmetric_equals_overlap():
    for c in (0.0, 0.3, 0.5, 0.9):
        assert disc.unambiguous_q(c, 0.5) == pytest.approx(c)


def test_unambiguous_prior_branches():
    c = 0.6
    lo = c * c / (1 + c * c)
    eta = lo / 2
    assert disc.unambiguous_q(c, eta) == pytest.approx(eta + (1 - eta) * c * c)
    eta = 1 - lo / 2
    assert disc.unambiguous_q(c, eta) == pytest.approx(eta * c * c + (1 - eta))
    assert disc.unambiguous_q(0.0, 0.8) == 0.0


def test_unambiguous_continuity_at_branch_points():
    c = 0.5
    lo = c * c / (1 + c * c)
    below = disc.unambiguous_q(c, lo - 1e-11)
    above = disc.unambiguous_q(c, lo + 1e-11)
    assert below == pytest.approx(above, abs=1e-9)


# ---------------------------------------------------------------------------
# error margins
# ---------------------------------------------------------------------------


def test_weak_margin_unambiguous_limit():
    for c in (0.2, 0.7):
        res = disc.weak_margin(c, 0.0)
        assert res.p_success == pytest.approx(1 - c, abs=1e-12)
        assert res.p_inconclusive == pytest.approx(c, abs=1e-12)
        assert res.p_error == 0.0


@pytest.mark.parametrize("c", [1e-150, 1e-9, 1e-4, 0.3, 0.7, 0.999, 1 - 1e-10, 1 - 2**-52])
@pytest.mark.parametrize("eta1", [0.5, 0.3, 0.9])
def test_two_state_error_does_not_cancel(c, eta1):
    # (1 - sqrt(1 - x)) / 2 loses every digit as x -> 0: it read 0.0 at
    # c = 1e-9, where the error is 2.5e-19
    with mpmath.workdps(400):  # enough digits to cancel from at c = 1e-150
        x = 4 * mpmath.mpf(eta1) * mpmath.mpf(1.0 - eta1) * mpmath.mpf(c) ** 2
        want = (1 - mpmath.sqrt(1 - x)) / 2
    eps = np.finfo(float).eps
    assert abs(disc.pure_overlap_error(c, eta1) - want) <= 4 * eps * want
    if eta1 == 0.5:
        rc = disc.critical_margin(c)
        assert abs(rc - want) <= 4 * eps * want
        # above it both margin schemes report the critical margin as their error
        for scheme in (disc.weak_margin, disc.strong_margin):
            res = scheme(c, min(1.0, 2 * rc))
            assert (res.regime, res.p_error, res.p_success) == ("minimum-error", rc, 1 - rc)


def test_weak_margin_critical_value():
    assert disc.critical_margin(0.7) == pytest.approx(0.143, abs=5e-4)
    res = disc.weak_margin(0.7, 0.2)
    assert res.regime == "minimum-error"
    assert res.p_success == pytest.approx((1 + math.sqrt(0.51)) / 2, abs=1e-12)
    assert res.p_inconclusive == 0.0


def test_weak_margin_monotone_and_consistent():
    c = 0.6
    last = -1.0
    for r in np.linspace(0, 0.5, 51):
        res = disc.weak_margin(c, float(r))
        assert res.p_success >= last - 1e-12
        last = res.p_success
        assert res.p_success + res.p_error + res.p_inconclusive == pytest.approx(
            1.0, abs=1e-12
        )
        if res.regime == "margin-limited":
            assert res.p_error == pytest.approx(float(r), abs=1e-14)


def test_weak_margin_matches_unambiguous_rate():
    for c in np.linspace(0.05, 0.95, 10):
        assert disc.weak_margin(float(c), 0.0).p_success == pytest.approx(
            1 - disc.unambiguous_q(float(c), 0.5), abs=1e-12
        )


def test_strong_margin_endpoints_match_weak():
    for c in (0.3, 0.7, 0.95):
        rc = disc.critical_margin(c)
        w0, s0 = disc.weak_margin(c, 0.0), disc.strong_margin(c, 0.0)
        assert s0.p_success == pytest.approx(w0.p_success, abs=1e-12)
        wc, sc = disc.weak_margin(c, rc), disc.strong_margin(c, rc)
        assert sc.p_success == pytest.approx(wc.p_success, abs=1e-12)


def test_strong_margin_reproduces_weak_through_conversion():
    # numerical inversion of the margin map: the strong scheme run at the
    # margin realized by the weak measurement returns the weak success rate
    for c in (0.3, 0.6, 0.9):
        for r_w in np.linspace(1e-4, disc.critical_margin(c) * 0.98, 7):
            r_s = disc.strong_from_weak(c, float(r_w))
            res = disc.strong_margin(c, r_s)
            want = disc.weak_margin(c, float(r_w))
            assert res.p_success == pytest.approx(want.p_success, abs=1e-10)
            assert res.p_error == pytest.approx(want.p_error, abs=1e-10)


def test_strong_margin_degenerate_overlap_one():
    res = disc.strong_margin(1.0, 0.2)
    assert res.phi is None
    assert res.p_inconclusive == 1.0
    assert res.p_success == 0.0


def test_margin_angles():
    c = 0.7
    assert disc.weak_margin(c, 0.3).phi == pytest.approx(math.pi / 2)
    # unambiguous angle makes the conclusive vector orthogonal to the other
    # state: tan(phi/2) = sqrt((1+c)/(1-c))
    res = disc.weak_margin(c, 0.0)
    assert math.tan(res.phi / 2) == pytest.approx(math.sqrt((1 + c) / (1 - c)))


# ---------------------------------------------------------------------------
# confidence
# ---------------------------------------------------------------------------


def test_confidence_limits():
    c = 0.7
    rc = disc.critical_margin(c)
    res = disc.weak_margin(c, rc)
    assert disc.confidence(c, rc, "weak") == pytest.approx(res.p_success)
    assert disc.confidence(c, 0.0, "weak") == pytest.approx(1.0)


def test_confidence_composed_value():
    # derived by composing the weak-margin rates at c=0.7, r=0.05
    got = disc.confidence(0.7, 0.05, "weak")
    res = disc.weak_margin(0.7, 0.05)
    assert got == pytest.approx(res.p_success / (1 - res.p_inconclusive), abs=1e-14)
    assert got == pytest.approx(0.9224744871391588, abs=1e-12)
    assert 0.5 <= got <= 1.0


def test_confidence_rejects_all_inconclusive():
    with pytest.raises(ValueError, match="confidence"):
        disc.confidence(1.0, 0.1, "strong")


# ---------------------------------------------------------------------------
# Chernoff distances
# ---------------------------------------------------------------------------


def test_chernoff_classical_equal_and_disjoint():
    assert disc.chernoff_classical([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-9)
    assert disc.chernoff_classical([1.0, 0.0], [0.0, 1.0]) == math.inf


def test_chernoff_classical_against_grid_oracle():
    p1 = np.array([0.5, 0.5])
    p2 = np.array([0.9, 0.1])
    got = disc.chernoff_classical(p1, p2)
    grid = np.linspace(0, 1, 200001)
    vals = (p1[0] ** grid) * (p2[0] ** (1 - grid)) + (p1[1] ** grid) * (
        p2[1] ** (1 - grid)
    )
    want = -math.log(vals.min())
    assert got == pytest.approx(want, abs=1e-8)


def test_chernoff_classical_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        disc.chernoff_classical([0.5, 0.4], [0.5, 0.5])


@pytest.mark.parametrize(
    "p1, p2, name",
    [
        ([math.nan, 1.0], [0.5, 0.5], "p1"),
        ([0.5, 0.5], [0.5, math.nan], "p2"),
        ([math.inf, 0.0], [0.5, 0.5], "p1"),
        ([0.5, 0.5], [1.5, -0.5], "p2"),
    ],
)
def test_chernoff_classical_rejects_non_finite_or_negative_naming_it(p1, p2, name):
    with pytest.raises(ValueError, match=f"^{name} .* is not a normalized distribution"):
        disc.chernoff_classical(p1, p2)


NAN_DENSITY = np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex)


@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(lambda: disc.helstrom_error(
            disc.BinaryHypotheses(NAN_DENSITY, np.eye(2) / 2)), id="helstrom"),
        pytest.param(lambda: disc.chernoff_quantum(NAN_DENSITY, np.eye(2) / 2), id="chernoff-rho1"),
        pytest.param(lambda: disc.chernoff_quantum(np.eye(2) / 2, NAN_DENSITY), id="chernoff-rho2"),
    ],
)
def test_non_finite_density_is_refused_naming_the_entry(fn):
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: entry \(0,1\)"):
        fn()


HALF = np.eye(2) / 2


@pytest.mark.parametrize(
    "fn, match",
    [
        pytest.param(lambda: disc.BinaryHypotheses(3 * np.eye(2), HALF),
                     "^rho1 is not a density matrix: trace 6$", id="helstrom-trace"),
        pytest.param(lambda: disc.BinaryHypotheses(np.diag([2.0, -1.0]), HALF),
                     "^rho1 is not a density matrix: eigenvalue -1$", id="helstrom-negative"),
        pytest.param(lambda: disc.BinaryHypotheses(HALF, np.diag([1.0, 1e-6])),
                     "^rho2 is not a density matrix: trace 1.000001$", id="helstrom-rho2"),
        pytest.param(lambda: disc.chernoff_quantum(np.diag([1.5, -0.5]), HALF),
                     "^rho1 is not a density matrix: eigenvalue -0.5$", id="chernoff-negative"),
        pytest.param(lambda: disc.chernoff_quantum(HALF, np.eye(2)),
                     "^rho2 is not a density matrix: trace 2$", id="chernoff-trace"),
        pytest.param(lambda: disc.chernoff_quantum(np.zeros((0, 0)), np.zeros((0, 0))),
                     r"^matrix is empty: shape \(0, 0\)$", id="chernoff-empty"),
    ],
)
def test_non_density_input_is_refused_naming_it(fn, match):
    with pytest.raises(ValueError, match=match):
        fn()


def test_density_check_allows_rounding_slack():
    rho = np.diag([1.0 + 5e-10, -5e-10])
    assert disc.helstrom_error(disc.BinaryHypotheses(rho, HALF)) == pytest.approx(0.25, abs=1e-9)
    assert disc.chernoff_quantum(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_chernoff_quantum_equal_pure_commuting():
    rng = np.random.default_rng(31)
    rho = oracles.random_density(rng, 3)
    assert disc.chernoff_quantum(rho, rho) == pytest.approx(0.0, abs=1e-9)
    # pure states: the integrand is s-independent and equals c^2
    for c in (0.2, 0.6):
        r1, r2 = pure_pair(c)
        assert disc.chernoff_quantum(r1, r2) == pytest.approx(-math.log(c * c), abs=1e-9)
    # commuting diagonal states reduce to the classical distance of spectra
    p1 = np.array([0.7, 0.2, 0.1])
    p2 = np.array([0.25, 0.7, 0.05])
    got = disc.chernoff_quantum(np.diag(p1), np.diag(p2))
    assert got == pytest.approx(disc.chernoff_classical(p1, p2), abs=1e-9)


def test_chernoff_quantum_disjoint_supports_infinite():
    assert disc.chernoff_quantum(np.diag([1.0, 0, 0]), np.diag([0, 0.5, 0.5])) == math.inf


# ---------------------------------------------------------------------------
# multicopy
# ---------------------------------------------------------------------------


def test_multicopy_single_copy_reduces_to_helstrom():
    rng = np.random.default_rng(41)
    for _ in range(5):
        v1 = rng.standard_normal(3)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(3)
        v2 /= np.linalg.norm(v2)
        q1 = QubitState(0.8, v1)
        q2 = QubitState(0.6, v2)
        eta = float(rng.uniform(0.2, 0.8))
        got = disc.multicopy_error(q1, q2, eta, 1)
        want = disc.helstrom_error(disc.BinaryHypotheses(q1.density(), q2.density(), eta))
        assert got == pytest.approx(want, abs=1e-12)


def test_multicopy_pure_uses_powered_overlap():
    c = 0.8
    t = math.acos(c)
    q1 = QubitState(1.0, np.array([0.0, 0.0, 1.0]))
    q2 = QubitState(1.0, np.array([math.sin(2 * t), 0.0, math.cos(2 * t)]))
    # Bloch angle doubles the state angle: overlap cos(t) per copy
    got = disc.multicopy_error(q1, q2, 0.5, 3)
    assert got == pytest.approx((1 - math.sqrt(1 - 0.8**6)) / 2, abs=1e-12)


def test_multicopy_matches_dense_tensor_oracle():
    rng = np.random.default_rng(43)
    for n in range(1, 9):
        v2 = rng.standard_normal(3)
        v2 /= np.linalg.norm(v2)
        q1 = QubitState(0.5, np.array([0.0, 0.0, 1.0]))
        q2 = QubitState(0.5, v2)
        eta = 0.5
        got = disc.multicopy_error(q1, q2, eta, n)
        rho1 = q1.density()
        rho2 = q2.density()
        d1, d2 = rho1.copy(), rho2.copy()
        for _ in range(n - 1):
            d1, d2 = np.kron(d1, rho1), np.kron(d2, rho2)
        want = (1 - oracles.trace_norm_dense(eta * d1 - (1 - eta) * d2)) / 2
        assert got == pytest.approx(want, abs=1e-9)


def test_multicopy_log_slope_approaches_chernoff():
    # the error decays exponentially with the copy count at the quantum
    # Chernoff rate; at 16 copies the local slope is within ten percent, at
    # 40 copies within five
    q1 = QubitState(0.9, np.array([0.0, 0.0, 1.0]))
    q2 = QubitState(0.9, np.array([1.0, 0.0, 0.0]))
    d = disc.chernoff_quantum(q1.density(), q2.density())
    for n, bound in ((16, 0.10), (40, 0.05)):
        p_before = disc.multicopy_error(q1, q2, 0.5, n - 2)
        p_n = disc.multicopy_error(q1, q2, 0.5, n)
        slope = (math.log(p_n) - math.log(p_before)) / 2
        assert abs(-slope - d) / d < bound, n


def test_multicopy_refuses_a_copy_count_whose_multiplicity_overflows_a_float():
    q1 = QubitState(0.9, np.array([0.0, 0.0, 1.0]))
    q2 = QubitState(0.9, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="^n_copies 1100 is too large"):
        disc.multicopy_error(q1, q2, 0.5, 1100)


def test_multicopy_matches_symmetric_power_reference():
    for r1, r2 in ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0), (1.0, 0.0)):
        for angle in (0.0, 1.0, math.pi):
            q1 = QubitState(r1, np.array([0.0, 0.0, 1.0]))
            q2 = QubitState(r2, np.array([math.sin(angle), 0.0, math.cos(angle)]))
            for eta in (0.3, 0.5):
                for n in (1, 2, 5, 12, 25, 40):
                    got = disc.multicopy_error(q1, q2, eta, n)
                    want = oracles.multicopy_error_symmetric_power(q1, q2, eta, n)
                    assert got == pytest.approx(want, abs=1e-12), (r1, r2, angle, eta, n)


@pytest.mark.parametrize("bad", [0, -3, 2.5, math.nan, True, "4"])
def test_multicopy_bad_copy_count_raises_naming_it(bad):
    q = QubitState(0.5)
    with pytest.raises(ValueError, match="n_copies"):
        disc.multicopy_error(q, q, 0.5, bad)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def test_compare_error_dense_oracle_and_frozen_values():
    # oracle: rebuild the two-copy mixtures densely and take the trace norm
    def oracle(c, eta):
        t = math.acos(c)
        psi1 = np.array([math.cos(t / 2), math.sin(t / 2)])
        psi2 = np.array([math.cos(t / 2), -math.sin(t / 2)])

        def proj(u, v):
            w = np.kron(u, v)
            return np.outer(w, w)

        eq = eta**2 * proj(psi1, psi1) + (1 - eta) ** 2 * proj(psi2, psi2)
        diff = eta * (1 - eta) * (proj(psi1, psi2) + proj(psi2, psi1))
        return (1 - oracles.trace_norm_dense(eq - diff)) / 2

    for c in (0.0, 0.3, 0.5, 0.8, 1.0):
        for eta in (0.5, 0.3, 0.7):
            assert disc.compare_error(c, eta) == pytest.approx(oracle(c, eta), abs=1e-12)

    # frozen oracle outputs
    assert disc.compare_error(0.0, 0.5) == 0.0
    assert disc.compare_error(0.5, 0.5) == pytest.approx(0.125, abs=1e-12)
    assert disc.compare_error(0.5, 0.3) == pytest.approx(0.105, abs=1e-12)


def test_compare_error_identical_states():
    for eta in (0.5, 0.25):
        want = min(eta**2 + (1 - eta) ** 2, 2 * eta * (1 - eta))
        assert disc.compare_error(1.0, eta) == pytest.approx(want, abs=1e-12)


@settings(deadline=None)
@given(c=st.floats(min_value=0.0, max_value=1.0), r=st.floats(min_value=0.0, max_value=1.0))
def test_weak_margin_success_in_range_and_above_strong(c, r):
    # the strong condition bounds each conditional error, so it is tighter
    weak = disc.weak_margin(c, r).p_success
    strong = disc.strong_margin(c, r).p_success
    assert 0.0 <= strong <= weak + 1e-12
    assert weak <= 1.0
