import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from qdl import programmable as prog
from qdl.angular import HalfInt, block_coefficient, multiplicity


# ---------------------------------------------------------------------------
# pure rates
# ---------------------------------------------------------------------------


def test_pure_rates_single_copies():
    rates = prog.pure_rates(1, 1)
    assert rates.q == pytest.approx(5 / 6, abs=1e-15)
    assert rates.pe == pytest.approx((1 - 1 / (2 * math.sqrt(3))) / 2, abs=1e-15)


def test_pure_rates_closed_q():
    for n in (1, 2, 5, 12):
        for nprime in (1, 3, 7):
            got = prog.pure_rates(n, nprime).q
            assert got == pytest.approx(1 - n * nprime / ((n + 1) * (nprime + 2)), abs=1e-13)


def test_pure_rates_program_limit_trend():
    # one data copy: the error approaches 1/6 like 1/(3n); the remainder
    # carries a half-integer power, so allow 0.4 n^(-3/2)
    for n in (50, 100, 200):
        pe = prog.pure_rates(n, 1).pe
        assert pe == pytest.approx(1 / 6 + 1 / (3 * n), abs=0.4 * n**-1.5)


def test_pure_rates_bounds():
    for n in (1, 4, 9):
        for nprime in (1, 2, 6):
            rates = prog.pure_rates(n, nprime)
            assert 0.0 <= rates.q <= 1.0
            assert 0.0 <= rates.pe <= 0.5


# ---------------------------------------------------------------------------
# general port loads
# ---------------------------------------------------------------------------


def test_general_rates_reduces_to_symmetric():
    for n in range(1, 21):
        for nprime in (1, 2, 7, 20):
            sym = prog.pure_rates(n, nprime)
            gen = prog.general_rates(prog.PortLoad(n, nprime, n))
            assert gen.q == pytest.approx(sym.q, abs=1e-12)
            assert gen.pe == pytest.approx(sym.pe, abs=1e-12)


def test_general_rates_against_dense_oracle():
    for na, nb, nc in [(2, 1, 1), (3, 2, 1), (1, 2, 1), (2, 2, 2), (4, 1, 2)]:
        got = prog.general_rates(prog.PortLoad(na, nb, nc)).pe
        want = oracles.programmable_pe_dense(na, nb, nc)
        assert got == pytest.approx(want, abs=1e-12)


def test_port_load_canonical_orientation():
    a = prog.general_rates(prog.PortLoad(1, 2, 3))
    b = prog.general_rates(prog.PortLoad(3, 2, 1))
    assert a.q == pytest.approx(b.q, abs=1e-14)
    assert a.pe == pytest.approx(b.pe, abs=1e-14)
    with pytest.raises(ValueError):
        prog.PortLoad(0, 1, 1)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_pure_asymptotics_program_limit():
    assert prog.pure_asymptotics("program-limit", nprime=2).q == pytest.approx(0.5)
    # the closed-form limit is approached by the exact rates
    for nprime in (1, 2, 4):
        lim = prog.pure_asymptotics("program-limit", nprime=nprime)
        exact = prog.pure_rates(400, nprime)
        assert exact.q == pytest.approx(lim.q, abs=2e-2 / nprime + 1e-2)
        with_sub = prog.pure_asymptotics("program-limit", n=400, nprime=nprime)
        assert exact.pe == pytest.approx(with_sub.pe, abs=2e-4)
        # the first correction genuinely helps
        assert abs(exact.pe - with_sub.pe) < abs(exact.pe - lim.pe) / 3


def test_pure_asymptotics_data_limit():
    lim = prog.pure_asymptotics("data-limit", n=1)
    assert lim.q == pytest.approx(0.5)
    assert lim.pe == pytest.approx(0.25)
    for n in (1, 3):
        exact = prog.pure_rates(n, 2000)
        lim = prog.pure_asymptotics("data-limit", n=n)
        assert exact.q == pytest.approx(lim.q, abs=2e-3)
        assert exact.pe == pytest.approx(lim.pe, abs=2e-3)


def test_pure_asymptotics_symmetric_coefficient():
    lim = prog.pure_asymptotics("symmetric", n=1)
    assert lim.pe == pytest.approx(0.882, abs=5e-4)
    assert lim.q == pytest.approx(3.0)
    exact = prog.pure_rates(60, 60)
    lim60 = prog.pure_asymptotics("symmetric", n=60)
    assert exact.pe == pytest.approx(lim60.pe, rel=0.05)


def test_zeta_series_value():
    # geometric convergence: ten explicit terms pin the value to a microunit
    partial = sum(1 - math.sqrt(1 - 0.25**k) for k in range(10))
    assert prog.zeta_series(0.25) == pytest.approx(partial, abs=1e-6)
    assert 0.75 * prog.zeta_series(0.25) == pytest.approx(0.882, abs=5e-4)


# ---------------------------------------------------------------------------
# mixed states
# ---------------------------------------------------------------------------


def test_mixed_error_single_copies_closed_form():
    for r in (0.0, 0.25, 0.6, 1.0):
        got = prog.mixed_error(1, 1, r)
        assert got == pytest.approx((1 - r * r / (2 * math.sqrt(3))) / 2, abs=1e-13)


def test_mixed_error_pure_limit():
    for n, nprime in [(1, 1), (2, 1), (3, 2), (4, 3)]:
        assert prog.mixed_error(n, nprime, 1.0) == pytest.approx(
            prog.pure_rates(n, nprime).pe, abs=1e-10
        )


def test_mixed_error_monotone_in_purity():
    vals = [prog.mixed_error(2, 1, r) for r in np.linspace(0, 1, 11)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_mixed_error_against_dense_oracle_spot():
    got = prog.mixed_error(2, 1, 0.6)
    want = oracles.programmable_mixed_error_dense(2, 1, 0.6)
    assert got == pytest.approx(want, abs=1e-12)


LOADS = st.integers(min_value=1, max_value=12)
PURITIES = st.floats(min_value=0.0, max_value=1.0)
QUICK = settings(deadline=None)


@QUICK
@given(n=LOADS, nprime=LOADS, r=PURITIES)
def test_mixed_error_in_range(n, nprime, r):
    assert 0.0 <= prog.mixed_error(n, nprime, r) <= 0.5


@QUICK
@given(n=LOADS, nprime=LOADS, r1=PURITIES, r2=PURITIES)
def test_mixed_error_non_increasing_in_purity(n, nprime, r1, r2):
    lo, hi = sorted((r1, r2))
    assert prog.mixed_error(n, nprime, hi) <= prog.mixed_error(n, nprime, lo) + 1e-12


@QUICK
@given(n=st.integers(min_value=1, max_value=11), nprime=LOADS, r=PURITIES)
@example(n=2, nprime=1, r=1e-8)  # block coefficients once cancelled at small r
def test_mixed_error_non_increasing_in_program_copies(n, nprime, r):
    # one more copy at each program port can always be discarded
    assert prog.mixed_error(n + 1, nprime, r) <= prog.mixed_error(n, nprime, r) + 1e-12


@QUICK
@given(n=LOADS, nprime=LOADS)
def test_mixed_error_pure_limit_one_ulp_below_one(n, nprime):
    got = prog.mixed_error(n, nprime, np.nextafter(1.0, 0.0))
    assert got == pytest.approx(prog.pure_rates(n, nprime).pe, abs=1e-12)


@QUICK
@given(
    kind=st.sampled_from(("hard-sphere", "bures", "chernoff")), n=LOADS, nprime=LOADS
)
def test_universal_error_in_range(kind, n, nprime):
    assert 0.0 <= prog.universal_error(prog.PuritySpec(kind=kind), n, nprime) <= 0.5


def test_mixed_asymptote_values():
    assert prog.mixed_asymptote(79, 1.0) == pytest.approx(1 / 6 + 1 / (3 * 79), abs=1e-12)
    assert prog.mixed_asymptote(10**9, 0.4) == pytest.approx(0.5 - 0.4 / 3, abs=1e-8)
    with pytest.raises(ValueError, match="singular"):
        prog.mixed_asymptote(10, 0.0)


# ---------------------------------------------------------------------------
# universal priors
# ---------------------------------------------------------------------------


def _prior_weight(kind, r):
    if kind == "hard-sphere":
        return 3 * r * r
    if kind == "bures":
        return 4 / math.pi * r * r / math.sqrt(1 - r * r)
    if kind == "chernoff":
        return (
            (math.sqrt(1 + r) - math.sqrt(1 - r)) ** 2
            / ((math.pi - 2) * math.sqrt(1 - r * r))
        )
    raise ValueError(kind)


def test_averaged_coefficients_against_quadrature():
    for kind in ("hard-sphere", "bures", "chernoff"):
        for m in (1, 2, 4, 7):
            for j2 in range(m % 2, m + 1, 2):
                want, _ = integrate.quad(
                    lambda r: block_coefficient(m, HalfInt(j2), r) * _prior_weight(kind, r),
                    0.0,
                    1.0,
                    epsabs=1e-12,
                    epsrel=1e-12,
                )
                got = prog.averaged_block_coefficient(kind, m, HalfInt(j2))
                assert got == pytest.approx(want, abs=1e-9)


def test_hard_sphere_closed_form_display():
    for m in (2, 5, 9):
        for j2 in range(m % 2, m + 1, 2):
            jv = j2 / 2
            want = (
                6
                * math.gamma(m / 2 + jv + 2)
                * math.gamma(m / 2 - jv + 1)
                / math.gamma(m + 4)
            )
            got = prog.averaged_block_coefficient("hard-sphere", m, HalfInt(j2))
            assert got == pytest.approx(want, rel=1e-12)


def test_averaged_coefficients_normalized():
    for kind in ("hard-sphere", "bures", "chernoff"):
        for m in (3, 6):
            total = sum(
                multiplicity(m, HalfInt(j2))
                * (j2 + 1)
                * prog.averaged_block_coefficient(kind, m, HalfInt(j2))
                for j2 in range(m % 2, m + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def test_universal_fixed_prior_degenerates_to_mixed():
    spec = prog.PuritySpec(kind="fixed", r=0.55)
    assert prog.universal_error(spec, 2, 1) == pytest.approx(
        prog.mixed_error(2, 1, 0.55), abs=1e-14
    )


def test_universal_prior_ordering():
    for n in (2, 3, 4):
        pe = {
            kind: prog.universal_error(prog.PuritySpec(kind=kind), n, n)
            for kind in ("hard-sphere", "bures", "chernoff")
        }
        assert pe["chernoff"] <= pe["bures"] <= pe["hard-sphere"]


def test_universal_chernoff_value_against_dense_quadrature():
    # independent route: quadrature-average the dense mixed-error integrand
    # coefficient tables, then run the dense construction
    n = nprime = 2

    def avg_dense(kind):
        def table(m):
            arr = np.zeros(m + 1)
            for j2 in range(m % 2, m + 1, 2):
                arr[j2], _ = integrate.quad(
                    lambda r: block_coefficient(m, HalfInt(j2), r) * _prior_weight(kind, r),
                    0.0,
                    1.0,
                    epsabs=1e-13,
                )
            return arr

        return prog._block_error(n, nprime, table(n), table(n + nprime))

    got = prog.universal_error(prog.PuritySpec(kind="chernoff"), n, nprime)
    assert got == pytest.approx(avg_dense("chernoff"), abs=1e-9)


def test_purity_spec_validation():
    with pytest.raises(ValueError):
        prog.PuritySpec(kind="fixed")
    with pytest.raises(ValueError):
        prog.PuritySpec(kind="bures", r=0.3)
    with pytest.raises(ValueError):
        prog.PuritySpec(kind="gaussian")


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------


def test_margin_endpoints():
    n, nprime = 9, 2
    rates = prog.pure_rates(n, nprime)
    curve = prog.margin_success(n, nprime, 0.0, "weak")
    assert curve.p_success == pytest.approx(1 - rates.q, abs=1e-12)
    rc = curve.saturation_points[-1]
    assert rc == pytest.approx(rates.pe, abs=1e-12)
    top = prog.margin_success(n, nprime, rc, "weak")
    assert top.p_success == pytest.approx(1 - rates.pe, abs=1e-12)


def test_margin_weak_strong_agree_at_extremes():
    n, nprime = 9, 2
    rc = prog.margin_success(n, nprime, 0.0, "weak").saturation_points[-1]
    for big_r in (0.0, rc):
        w = prog.margin_success(n, nprime, big_r, "weak").p_success
        s = prog.margin_success(n, nprime, big_r, "strong").p_success
        assert abs(w - s) < 1e-10


def test_margin_weak_continuous_and_nondecreasing():
    n, nprime = 5, 2
    grid = np.linspace(0, 0.25, 401)
    vals = [prog.margin_success(n, nprime, float(r), "weak").p_success for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # continuity across every saturation point (the slope, not the value,
    # is what changes there; near zero margin the slope is even unbounded)
    for rb in prog.margin_success(n, nprime, 0.0, "weak").saturation_points:
        left = prog.margin_success(n, nprime, max(rb - 1e-11, 0.0), "weak").p_success
        right = prog.margin_success(n, nprime, rb + 1e-11, "weak").p_success
        assert abs(left - right) < 1e-5


def test_margin_strong_continuous_and_nondecreasing():
    n, nprime = 5, 2
    grid = np.linspace(0, 0.25, 401)
    vals = [prog.margin_success(n, nprime, float(r), "strong").p_success for r in grid]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    rc = prog.margin_success(n, nprime, 0.0, "weak").saturation_points[-1]
    for rb in np.linspace(rc / 20, rc, 12):
        left = prog.margin_success(n, nprime, float(rb) - 1e-11, "strong").p_success
        right = prog.margin_success(n, nprime, float(rb) + 1e-11, "strong").p_success
        assert abs(left - right) < 1e-5


def test_margin_weak_profile_ordering():
    # unsaturated weak margins decrease with the sector overlap and the
    # totally symmetric sector stays at zero until everything else froze
    n, nprime = 11, 2
    curve = prog.margin_success(n, nprime, 0.0055, "weak")
    margins = np.array(curve.per_subspace_margins)
    sat = np.array(curve.saturation_points)
    frozen = np.nonzero(sat <= 0.0055)[0]
    live = [k for k in range(n + 1) if k not in frozen]
    unsat = margins[live]
    assert all(b <= a + 1e-15 for a, b in zip(unsat, unsat[1:]))
    assert margins[-1] == 0.0


def test_margin_strong_flat_profile():
    n, nprime = 11, 2
    r_strong = 0.0055
    curve = prog.margin_success(n, nprime, r_strong, "strong")
    margins = np.array(curve.per_subspace_margins)
    sat = np.array(curve.saturation_points)
    # the totally symmetric sector is always pinned at its critical value 1/2
    assert margins[-1] == pytest.approx(0.5)
    # sectors whose weak saturation point lies above the realized weak margin
    # are unfrozen; their strong margins share a single optimal value
    r_weak = prog._weak_from_strong(n, nprime, r_strong)
    live = [margins[k] for k in range(n) if sat[k] > r_weak]
    assert len(live) >= 2
    assert np.ptp(live) < 1e-10


def test_margin_strong_small_margin_closed_form():
    n, nprime = 9, 2
    sat0 = prog.margin_success(n, nprime, 0.0, "weak").saturation_points[0]
    big_r = sat0 / 4  # safely below the first strong saturation point
    got = prog.margin_success(n, nprime, big_r, "strong").p_success
    want = (
        (math.sqrt(1 - big_r) / (math.sqrt(big_r) - math.sqrt(1 - big_r))) ** 2
        * n
        * nprime
        / ((n + 1) * (nprime + 2))
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_margin_validation():
    with pytest.raises(ValueError):
        prog.margin_success(3, 1, 1.5, "weak")
    with pytest.raises(ValueError):
        prog.margin_success(3, 1, 0.1, "medium")
