import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdl import learning, programmable
from qdl.angular import HalfInt, multiplicity


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
        grid = oracles.gamma_up(n, 1.0, n / 2, n / 2)
        d = n + 1
        ma = np.arange(-n, n + 1, 2) / 2
        want = (ma[:, None] - ma[None, :]) / (d * d * (n + 2))
        assert np.abs(grid - want).max() < 1e-14


def test_gamma_up_trace_norm_pure():
    for n in (1, 3, 6):
        grid = oracles.gamma_up(n, 1.0, n / 2, n / 2)
        assert np.abs(grid).sum() == pytest.approx(n / (3 * (n + 1)), abs=1e-13)


def test_gamma_up_single_pair_hand_values():
    # hand evaluation: each side carries r^2 m / 12 at spin one half
    for r in (0.4, 0.7, 1.0):
        grid = oracles.gamma_up(1, r, 0.5, 0.5)
        want = r * r / 12
        assert grid[1, 0] == pytest.approx(want, abs=1e-14)
        assert grid[0, 1] == pytest.approx(-want, abs=1e-14)
        assert grid[0, 0] == grid[1, 1] == 0.0


def test_gamma_up_parity_validation():
    with pytest.raises(ValueError, match="parity"):
        oracles.gamma_up(2, 0.5, 0.5, 1.0)


BAD_SPINS = [
    pytest.param("ja=5/2", lambda: oracles.gamma_up(1, 0.5, 2.5, 0.5), id="gamma-up-above-n"),
    pytest.param("jc=2", lambda: oracles.gamma_up(2, 0.5, 1, 2), id="gamma-up-above-n-integer"),
    pytest.param("jc=-1/2", lambda: oracles.gamma_up(1, 0.5, 0.5, -0.5), id="gamma-up-negative"),
    pytest.param("ja=0", lambda: oracles.gamma_up(1, 0.5, 0, 0.5), id="gamma-up-parity"),
    pytest.param("j=-1", lambda: learning.spin_weights(-1, 0.5), id="spin-weights-negative"),
    pytest.param("j=-1/2", lambda: learning.spin_z_expectation(-0.5, 0.5), id="spin-z-negative"),
    pytest.param("j=1/2", lambda: learning.block_probability(2, 0.5, 0.5),
                 id="block-probability-parity"),
    pytest.param("j=2", lambda: learning.block_probability(3, 2, 0.5),
                 id="block-probability-above-n"),
]


@pytest.mark.parametrize("named, call", BAD_SPINS)
def test_impossible_sector_spin_raises_naming_it(named, call):
    with pytest.raises(ValueError, match=f"^spin {re.escape(named)} "):
        call()


@pytest.mark.parametrize("n", [39, 40])
def test_coupled_conditional_operators_match_clebsch_gordan_rotation(n):
    # every (ja, jc, m) of n copies, 2ja, 2jc <= 40, in the parity of n: the
    # closed tridiagonal G_m against gamma_up's product-basis diagonal
    # conjugated by Clebsch-Gordan slices, off-diagonal signs included
    want = oracles.gamma_up_coupled(n, 0.7)
    keys, stack = learning._gamma_coupled(n, 0.7)
    assert keys == list(want)
    for key, g in zip(keys, stack):
        # G_m fills the trailing corner of its square, zeros elsewhere
        dim = len(g) - len(want[key])
        assert not g[:dim].any() and not g[:, :dim].any()
        assert np.abs(g[dim:, dim:] - want[key]).max() <= 1e-15, key


@pytest.mark.parametrize("r", [0.125, 0.7, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coupled_conditional_operators_mirror_under_spin_swap(n, r):
    # the fold of lm_mixed_optimize: G^(jc,ja)_m = G^(ja,jc)_-m, both in the
    # trailing corner of the same square, to rounding of the largest entry
    keys, stack = learning._gamma_coupled(n, r)
    at = {key: g for key, g in zip(keys, stack)}
    tol = 4 * np.finfo(float).eps * np.abs(stack).max()
    for (ja2, jc2, m2), g in at.items():
        assert np.abs(g - at[jc2, ja2, -m2]).max() <= tol, (ja2, jc2, m2)


def test_block_probabilities_normalized():
    for n in (1, 3, 5):
        for r in (0.2, 0.8):
            total = sum(
                learning.block_probability(n, HalfInt(j2), r)
                for j2 in range(n % 2, n + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_block_probability_refuses_an_n_whose_multiplicity_overflows_a_float():
    # the spin-0 multiplicity of 1100 copies is about 2^1085
    with pytest.raises(ValueError, match="^n 1100 is too large"):
        learning.block_probability(1100, 0, 0.9)


@pytest.mark.parametrize("r", [1e-8, 1e-300])
def test_block_probability_matches_exact_at_faint_purity(r):
    # the spin-j trace ((1+r)/2)^J - ((1-r)/2)^J cancels as r -> 0 unless
    # taken from angular.block_coefficient
    for n in range(1, 21):
        for j2 in range(n % 2, n + 1, 2):
            exact = oracles.block_coefficient_exact(n, j2, r)
            want = multiplicity(n, HalfInt(j2)) * (j2 + 1) * exact
            got = learning.block_probability(n, HalfInt(j2), r)
            assert abs(Fraction(got) - want) <= 1e-14 * want, (n, j2)


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


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=3),
    r=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
@example(n=2, r=1e-20)  # conditional operators of order r^2 = 1e-40
def test_seed_optimization_certified_and_resolving(n, r):
    opt = learning.lm_mixed_optimize(n, r)
    assert 0.0 <= opt.gap <= 1e-10
    assert opt.seed.resolution_residual() <= 1e-8


@pytest.mark.parametrize("r", [0.1, 0.55, 0.7, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coupled_seed_rotated_to_product_basis_attains_delta(n, r):
    # the coupled-basis seed, rotated back by Clebsch-Gordan slices, scores
    # sum p_a p_c sum_m tr(Gamma C X_m C^T) = delta_lm / 2 against gamma_up
    opt = learning.lm_mixed_optimize(n, r)
    assert oracles.seed_surrogate_product_basis(opt.seed, r) == pytest.approx(
        opt.delta_lm / 2, abs=1e-13
    )


SEED_PURITIES = [1e-20, 0.1, 0.125, 0.55, 0.7, 0.9, 1.0]


@pytest.mark.parametrize("r", SEED_PURITIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_seed_solver_matches_per_sector_reference(n, r):
    # every sector ja <= jc in one stacked barrier loop, centred only at its
    # last t, against each sector on its own path, centred to the rounding
    # floor at every t, from the same operators; a sector (jc, ja) is compared
    # through the reference's solve of its mirror (ja, jc), as it is solved.
    # The two paths and the stack's identity padding move the rounding, so
    # they agree to rounding, not bits
    opt = learning.lm_mixed_optimize(n, r)
    ref = oracles.seed_sdp_per_sector(n, r)
    assert abs(opt.delta_lm - ref.delta_lm) <= 1e-14
    assert abs(opt.gap - ref.gap) <= 1e-14
    assert list(opt.seed.blocks) == list(ref.seed.blocks)
    for key, x in ref.seed.blocks.items():
        assert np.abs(opt.seed.blocks[key] - x).max() <= 1e-12, key
    assert opt.seed.resolution_residual() <= 1e-8
    assert 0.0 <= opt.gap <= 1e-10


@pytest.mark.parametrize("r", SEED_PURITIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reference_mirror_sectors_agree_within_their_certified_gaps(n, r):
    # the reference solves (ja, jc) and (jc, ja) on separate barrier paths:
    # each dual value bounds the common optimum from above and each primal
    # value from below, so the two solves may differ, but only inside the
    # sum of their gaps
    sectors = oracles.seed_sdp_sectors(n, r)
    for (ja2, jc2), (dual, primal, _) in sectors.items():
        mirror_dual, mirror_primal, _ = sectors[jc2, ja2]
        gaps = (dual - primal) + (mirror_dual - mirror_primal)
        assert dual >= primal and mirror_dual >= mirror_primal, (ja2, jc2)
        assert abs(primal - mirror_primal) <= gaps, (ja2, jc2)
        assert abs(dual - mirror_dual) <= gaps, (ja2, jc2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_seed_sdp_of_all_zero_operators_is_the_identity(n):
    # at r = 1e-300 every conditional factor f_j ~ 2 r^2 / 3 underflows to 0,
    # so every G_m is 0: each sector scores 0, y = 0
    # certifies it, and X_m = I resolves the identity exactly
    opt = learning.lm_mixed_optimize(n, 1e-300)
    assert opt.delta_lm == 0.0 and opt.gap == 0.0
    for key, x in opt.seed.blocks.items():
        assert np.array_equal(x, np.eye(len(x))), key
    assert opt.seed.resolution_residual() == 0.0


@pytest.mark.parametrize("n", [2, 4])
def test_all_zero_sectors_beside_solved_ones_keep_the_identity(n):
    # at even n the (0, 0) sector has f_0 = 0 on both sides, so its G_m is 0 at
    # every purity; it is masked out of the solve while the others are solved
    keys, g = learning._gamma_coupled(n, 0.7)
    zero = {key[:2] for key in keys} - {key[:2] for key, gm in zip(keys, g) if gm.any()}
    assert zero == {(0, 0)}
    opt = learning.lm_mixed_optimize(n, 0.7)
    for key, x in opt.seed.blocks.items():
        if key[:2] in zero:
            assert np.array_equal(x, np.eye(len(x))), key
    assert opt.delta_lm > 0.0 and 0.0 <= opt.gap <= 1e-10
    assert opt.seed.resolution_residual() <= 1e-8


# Cholesky factorizations of one lm_mixed_optimize, n = 1..5 at SEED_PURITIES:
# one per pass of the barrier loop
SEED_STEPS = {
    1: [13, 13, 13, 13, 13, 13, 13],
    2: [16, 15, 16, 16, 16, 16, 16],
    3: [18, 18, 18, 19, 18, 18, 18],
    4: [22, 21, 21, 22, 21, 22, 22],
    5: [38, 38, 39, 22, 22, 22, 23],
}
# the same counts with t grown tenfold, one damped pass after each growth and
# every sector (jc, ja) solved beside its mirror; every count stays below these
TENFOLD_STEPS = {
    1: [28, 28, 28, 28, 28, 28, 28],
    2: [31, 30, 31, 31, 31, 31, 31],
    3: [34, 34, 34, 35, 34, 34, 34],
    4: [36, 36, 37, 36, 36, 36, 37],
    5: [57, 56, 57, 39, 38, 38, 39],
}


@pytest.mark.parametrize("n", sorted(SEED_STEPS))
def test_seed_solver_centres_only_its_last_barrier_parameter(n, monkeypatch):
    # a pass that finds its sector centred at an intermediate t grows t
    # hundredfold (clamped to the last t) and takes the damped Newton step of
    # the grown t along the tangent, from the same factored Hessian, so each
    # stage costs about one pass; only the last t is centred to the rounding
    # floor
    assert all(a < b for a, b in zip(SEED_STEPS[n], TENFOLD_STEPS[n]))
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    steps = []
    for r in SEED_PURITIES:
        calls.clear()
        learning.lm_mixed_optimize(n, r)
        steps.append(len(calls))
    assert steps == SEED_STEPS[n]


def test_seed_optimization_rejects_large_n():
    with pytest.raises(ValueError, match="desk"):
        learning.lm_mixed_optimize(6, 0.5)


COUNT_ENTRIES = {
    "lm_error": learning.lm_error,
    "eyd_qubit": learning.eyd_qubit,
    "reversed_error": learning.reversed_error,
    "robustness_factors": lambda n: learning.robustness_factors(n, 0.5),
    "lm_mixed_optimize": lambda n: learning.lm_mixed_optimize(n, 0.5),
    # the product-basis reference of the coupled operators checks as they do
    "gamma_up": lambda n: oracles.gamma_up(n, 0.5, 0.5, 0.5),
    "block_probability": lambda n: learning.block_probability(n, 0.5, 0.5),
}


@pytest.mark.parametrize("bad", [0, -3, 2.5, math.nan, True, "4"])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_bad_copy_count_raises_naming_it(entry, bad):
    with pytest.raises(ValueError, match=f"^n {re.escape(repr(bad))} "):
        COUNT_ENTRIES[entry](bad)


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


def test_robustness_factor_at_a_purity_whose_square_underflows():
    # n r^2 underflows to zero; the factor r - (1 - r)/(n r) does not divide by it
    out = learning.robustness_factors(1, 1e-200)
    assert out.scaling == pytest.approx(1e-200 - (1 - 1e-200) / 1e-200, rel=1e-15)
    assert out.excess_risk == pytest.approx(1 / 3e-200, rel=1e-15)


@pytest.mark.parametrize("j2", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 3), Fraction(9, 10), Fraction(1)])
def test_spin_weights_match_exact_binomial_weights(j2, r):
    # ((1 - r)/2)^(j - m) ((1 + r)/2)^(j + m), normalized, in exact arithmetic
    w = [((1 - r) / 2) ** ((j2 - m2) // 2) * ((1 + r) / 2) ** ((j2 + m2) // 2)
         for m2 in range(-j2, j2 + 1, 2)]
    want = [float(x / sum(w)) for x in w]
    got = learning.spin_weights(HalfInt(j2), float(r))
    assert got == pytest.approx(want, abs=4e-16)


def test_spin_weights_at_a_spin_where_every_binomial_weight_underflows():
    # each weight ((1 - r)/2)^(j - m) ((1 + r)/2)^(j + m) is below 4^-j; relative
    # to the top one they are (1/3)^(j - m) at r = 1/2
    w = learning.spin_weights(10**6, 0.5)
    assert len(w) == 2 * 10**6 + 1 and np.all(np.isfinite(w))
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert w[-1] == pytest.approx(2 / 3, abs=1e-15) and w[-2] == pytest.approx(2 / 9, abs=1e-15)
    assert learning.spin_z_expectation(10**6, 0.5) == pytest.approx(10**6 - 0.5, abs=1e-8)


@pytest.mark.parametrize("r", [1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-8, 1e-3, 0.1, 0.5,
                               0.9, 0.999, 1 - 1e-10, 1 - 2**-53, 1.0])
def test_spin_z_expectation_matches_mpmath_at_every_purity(r):
    # sum_m m q^(j-m) / sum_m q^(j-m) with q = (1 - r)/(1 + r), at enough digits
    # that 1 - q keeps 60 of them; the direct sum cancels as r -> 0
    for j2 in range(1, 11):
        with mpmath.workdps(60 + max(0, -int(math.log10(r)))):
            q = (1 - mpmath.mpf(r)) / (1 + mpmath.mpf(r))
            m = [mpmath.mpf(m2) / 2 for m2 in range(-j2, j2 + 1, 2)]
            w = [q ** (mpmath.mpf(j2) / 2 - x) for x in m]
            want = mpmath.fsum(x * y for x, y in zip(m, w)) / mpmath.fsum(w)
        got = learning.spin_z_expectation(HalfInt(j2), r)
        assert abs(got - want) <= 1e-15 * want, j2


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
