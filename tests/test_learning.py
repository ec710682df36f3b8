import math

import numpy as np
import oracles
import pytest

from qdl import learning, programmable
from qdl.angular import HalfInt


# ---------------------------------------------------------------------------
# pure training sets
# ---------------------------------------------------------------------------


def test_lm_error_single_pair():
    assert learning.lm_error(1) == pytest.approx((1 - 1 / (2 * math.sqrt(3))) / 2, abs=1e-15)


def test_lm_error_equals_programmable_bound():
    for n in (1, 2, 5, 10, 27, 50):
        assert learning.lm_error(n) == pytest.approx(
            programmable.pure_rates(n, 1).pe, abs=1e-12
        )


def test_lm_error_asymptotic_trend():
    # remainder beyond 1/6 + 1/(3n) carries a half-integer power
    for n in (40, 80):
        assert learning.lm_error(n) == pytest.approx(1 / 6 + 1 / (3 * n), abs=0.4 * n**-1.5)


def test_excess_risk_constants():
    assert learning.lm_error(1) - 1 / 6 == pytest.approx((4 - math.sqrt(3)) / 12, abs=1e-12)
    assert learning.eyd_qubit(1).excess_risk == pytest.approx(
        (4 - math.sqrt(2)) / 12, abs=1e-15
    )


# ---------------------------------------------------------------------------
# estimate-and-discriminate and reversed ordering
# ---------------------------------------------------------------------------


def test_eyd_rates():
    for n in (1, 2, 10):
        rates = learning.eyd_qubit(n)
        assert rates.pe == pytest.approx((1 - 2 * n / (3 * (n + 2))) / 2, abs=1e-15)
    # large training sets: error 1/6 + 2/(3n), twice the optimal excess
    n = 500
    assert learning.eyd_qubit(n).pe == pytest.approx(1 / 6 + 2 / (3 * n), abs=2e-5)
    assert learning.eyd_qubit(n).excess_risk == pytest.approx(2 / (3 * n), rel=0.01)


def test_eyd_single_pair_beats_continuous():
    # the optimal two-outcome estimation at n = 1 attains the sqrt(2)/3 bound,
    # some fifteen percent above the optimal machine
    r_eyd = learning.eyd_qubit(1).excess_risk
    r_lm = learning.lm_error(1) - 1 / 6
    assert r_eyd / r_lm == pytest.approx((4 - math.sqrt(2)) / (4 - math.sqrt(3)), abs=1e-12)
    assert 1.10 < r_eyd / r_lm < 1.20
    pe_finite = (1 - math.sqrt(2) / 6) / 2  # attains the sqrt(2)/3 bound
    assert pe_finite - 1 / 6 == pytest.approx(r_eyd, abs=1e-12)


def test_reversed_error_values():
    assert learning.reversed_error(1) == pytest.approx(11 / 24, abs=1e-15)
    assert learning.reversed_error(10**6) == pytest.approx(5 / 12, abs=1e-6)
    vals = [learning.reversed_error(n) for n in range(1, 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > 5 / 12 for v in vals)


def test_machine_ordering_chain():
    for n in range(2, 12):
        assert (
            learning.reversed_error(n)
            > learning.eyd_qubit(n).pe
            > learning.lm_error(n)
        )


# ---------------------------------------------------------------------------
# conditional training-set operators
# ---------------------------------------------------------------------------


def test_gamma_up_pure_form():
    # at full purity and maximal spins the operator is the difference of the
    # two magnetic numbers over (n+1)^2 (n+2)
    for n in (1, 2, 4):
        grid = learning.gamma_up(n, 1.0, n / 2, n / 2)
        d = n + 1
        ma = np.arange(-n, n + 1, 2) / 2
        want = (ma[:, None] - ma[None, :]) / (d * d * (n + 2))
        assert np.abs(grid - want).max() < 1e-14


def test_gamma_up_trace_norm_pure():
    for n in (1, 3, 6):
        grid = learning.gamma_up(n, 1.0, n / 2, n / 2)
        assert np.abs(grid).sum() == pytest.approx(n / (3 * (n + 1)), abs=1e-13)


def test_gamma_up_single_pair_hand_values():
    # hand evaluation: each side carries r^2 m / 12 at spin one half
    for r in (0.4, 0.7, 1.0):
        grid = learning.gamma_up(1, r, 0.5, 0.5)
        want = r * r / 12
        assert grid[1, 0] == pytest.approx(want, abs=1e-14)
        assert grid[0, 1] == pytest.approx(-want, abs=1e-14)
        assert grid[0, 0] == grid[1, 1] == 0.0


def test_gamma_up_parity_validation():
    with pytest.raises(ValueError, match="parity"):
        learning.gamma_up(2, 0.5, 0.5, 1.0)


def test_block_probabilities_normalized():
    for n in (1, 3, 5):
        for r in (0.2, 0.8):
            total = sum(
                learning.block_probability(n, HalfInt(j2), r)
                for j2 in range(n % 2, n + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# seed optimization
# ---------------------------------------------------------------------------


def test_seed_optimization_single_pair_exact():
    # a single copy per label admits only the equal-spin sector, where the
    # machine provably matches the programmable bound at every purity
    for r in (0.2, 0.5, 0.8, 1.0):
        opt = learning.lm_mixed_optimize(1, r)
        pe_lm = (1 - opt.delta_lm / 2) / 2
        assert pe_lm == pytest.approx(programmable.mixed_error(1, 1, r), abs=1e-7)
        assert opt.seed.resolution_residual() <= 1e-8
        assert opt.seed.min_eigenvalue() >= -1e-9


def test_seed_optimization_pure_recovers_lm_error():
    for n in (1, 2, 3):
        opt = learning.lm_mixed_optimize(n, 1.0)
        pe = (1 - opt.delta_lm / 2) / 2
        assert pe == pytest.approx(learning.lm_error(n), abs=1e-7)


def test_seed_optimization_never_beats_programmable():
    for n in (1, 2, 3):
        for r in np.linspace(0.1, 0.9, 9):
            opt = learning.lm_mixed_optimize(n, float(r))
            pe_lm = (1 - opt.delta_lm / 2) / 2
            pe_opt = programmable.mixed_error(n, 1, float(r))
            assert pe_lm >= pe_opt - 1e-9
            assert opt.seed.resolution_residual() <= 1e-8
            # the dual certificate: no covariant seed beats delta_lm + gap
            assert 0.0 <= opt.gap <= 1e-10
            assert learning.lm_mixed_optimize(n, float(r)).delta_lm == opt.delta_lm


def test_seed_optimization_rejects_large_n():
    with pytest.raises(ValueError, match="desk"):
        learning.lm_mixed_optimize(6, 0.5)


# ---------------------------------------------------------------------------
# robustness identities
# ---------------------------------------------------------------------------


def test_robustness_factor_values():
    out = learning.robustness_factors(4, 1.0)
    assert out.scaling == pytest.approx(1.0)
    assert out.excess_risk == pytest.approx(1 / 12)
    out = learning.robustness_factors(2, 0.7)
    assert out.scaling == pytest.approx(0.7 * (1 - 0.3 / (2 * 0.49)), abs=1e-14)
    assert out.excess_risk == pytest.approx(1 / (3 * 2 * 0.7), abs=1e-14)


def test_robustness_identity_explicit_block():
    # the equal-spin identity at two copies per label, spin one, r = 0.7 runs
    # on the explicit spin-1 (x) qubit (x) spin-1 block
    sigma0, sigma1, pure0, pure1, factor = oracles.sigma_pair(0.7, 2)
    assert sigma0.shape == (18, 18)
    assert np.trace(sigma0) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(sigma1) == pytest.approx(1.0, abs=1e-12)
    lhs = sigma0 - sigma1
    rhs = factor * (pure0 - pure1)
    assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("r", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_robustness_identity_on_every_small_sector(n, r):
    # the equal-spin identity behind robustness_factors, on each sector of
    # the parity of n with spin at most 4
    for j2 in range(1 if n % 2 else 2, min(8, n) + 1, 2):
        sigma0, sigma1, pure0, pure1, factor = oracles.sigma_pair(r, j2)
        assert np.abs((sigma0 - sigma1) - factor * (pure0 - pure1)).max() <= 1e-12


def test_robustness_validation():
    with pytest.raises(ValueError):
        learning.robustness_factors(3, 0.0)
    with pytest.raises(ValueError):
        learning.robustness_factors(3, 0.5, math.inf)
