import math
import re
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from qdl import programmable as prog
from qdl import angular
from qdl.angular import (
    HalfInt,
    block_coefficient,
    multiplicity,
    multiplicity_table,
    recoupling_batch,
)


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


@pytest.mark.parametrize("n, nprime", [(60, 60), (300, 300), (400, 1), (1, 2000)])
def test_pure_error_is_the_exact_jordan_sector_sum(n, nprime):
    # the sector errors are summed in a form that does not cancel: the sum
    # (1 - sum p sqrt(1 - c^2)) / 2 was off by 5.4e-14 at (300, 300)
    want = oracles.pure_pe_exact(n, nprime)
    assert abs(prog.pure_rates(n, nprime).pe - want) <= 1e-15 * want


GENERAL_LOADS = [(na, nb, nc) for na in range(1, 13) for nb in range(1, 13) for nc in range(1, 13)]


@pytest.mark.parametrize("loads", [GENERAL_LOADS, [(200, 150, 100), (100, 150, 200), (1, 700, 1),
                                                   (700, 1, 700), (400, 400, 400)]],
                         ids=["up-to-12", "large"])
def test_general_rates_is_the_four_binomial_formula_bit_for_bit(loads):
    # Q bit for bit; Pe, an fsum of non-negative sector errors, to rounding
    # of a 50-digit sum (the cancelling (1 + d1/d2 - ...) / 4 was 1.1e-14
    # off at (400, 400, 400))
    for na, nb, nc in loads:
        got = prog.general_rates(prog.PortLoad(na, nb, nc))
        q, pe = oracles.general_rates_binomial(na, nb, nc)
        assert got.q == q and abs(got.pe - pe) <= 1e-15 * pe, (na, nb, nc)


def test_sector_table_overlaps_are_jordan_overlap_bit_for_bit():
    loads = [(n, nprime) for n in range(1, 13) for nprime in range(1, 13)]
    for n, nprime in loads + [(61, 1), (100, 100), (300, 7), (5, 400)]:
        c2, c = prog._jordan_sectors(n, nprime, n)
        want = [angular.jordan_overlap(n, nprime, k) for k in range(n + 1)]
        assert c.tolist() == want == prog._pure_table(n, nprime).c.tolist(), (n, nprime)
        # and the squared overlaps are the correctly rounded squares
        assert c2.tolist() == [float(Fraction(math.comb(n, k), math.comb(n + nprime, n - k)) ** 2)
                               for k in range(n + 1)], (n, nprime)


@pytest.mark.parametrize("n, nprime", [(1, 1), (5, 2), (9, 2), (11, 2), (40, 3), (7, 30)])
def test_strong_ladder_is_the_weak_success_at_each_saturation_point(n, nprime):
    # the strong saturation points r_w / (P_s(r_w) + r_w), once per table,
    # equal the point-by-point evaluation of the weak success rate
    table = prog._pure_table(n, nprime)
    want = []
    for rw in table.sat:
        ps = prog._weak_eval(table, rw)[0]
        want.append(rw / (ps + rw))
    assert table.strong.tolist() == want


def test_pure_state_machine_cost_is_bounded_with_a_cold_cache():
    # linear in the sectors on small or exact integers: 81 s, 20.7 s, 3.3 s
    # and 2.6 s with big binomials per sector and a ladder rebuilt per call
    for call in (lambda: prog.pure_rates(16000, 1),
                 lambda: prog.general_rates(prog.PortLoad(3000, 3000, 3000)),
                 lambda: prog.margin_success(4000, 1, 0.01, "strong"),
                 lambda: prog.pure_rates(3000, 3000)):
        prog._jordan_sectors.cache_clear()
        prog._pure_table.cache_clear()
        start = time.perf_counter()
        call()
        assert time.perf_counter() - start < 1.0


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


@pytest.mark.parametrize("x", [math.nan, 1.0, 1.5, 0.0, -0.25, math.inf])
def test_zeta_series_bad_argument_raises_naming_it(x):
    # at NaN and 1 no term ever falls below tol, and x > 1 makes the
    # square root negative
    with pytest.raises(ValueError, match=f"^x {re.escape(str(x))} "):
        prog.zeta_series(x)


def test_zeta_series_value_is_pinned():
    assert prog.zeta_series(0.25) == float.fromhex("0x1.2d1a0419f75abp+0")


@pytest.mark.parametrize(
    "x", [0.999, 0.99996, 0.9999663, 0.99999, 1 - 1e-12, math.nextafter(1.0, 0.0)]
)
def test_zeta_series_near_one_returns_or_raises_naming_it_within_a_second(x):
    # the sum needs about log(2e-15) / log(x) terms: months of summing at
    # x = 1 - 1e-12, so such an x is refused up front
    start = time.perf_counter()
    try:
        value = prog.zeta_series(x)
    except ValueError as exc:
        assert str(exc).startswith(f"x {x} ")
    else:
        assert math.isfinite(value) and value > 1.0
    assert time.perf_counter() - start < 1.0


# every copy count taken by a public entry point, with the argument name its
# error must carry
COUNT_ARGUMENTS = {
    "pure_rates-n": ("n", lambda v: prog.pure_rates(v, 1)),
    "pure_rates-nprime": ("nprime", lambda v: prog.pure_rates(1, v)),
    "mixed_error-n": ("n", lambda v: prog.mixed_error(v, 1, 0.5)),
    "mixed_error-nprime": ("nprime", lambda v: prog.mixed_error(1, v, 0.5)),
    "universal_error-n": (
        "n", lambda v: prog.universal_error(prog.PuritySpec("bures"), v, 1)
    ),
    "universal_error-nprime": (
        "nprime", lambda v: prog.universal_error(prog.PuritySpec("bures"), 1, v)
    ),
    "margin_success-n": ("n", lambda v: prog.margin_success(v, 1, 0.1)),
    "margin_success-nprime": ("nprime", lambda v: prog.margin_success(1, v, 0.1)),
    "program-limit-n": ("n", lambda v: prog.pure_asymptotics("program-limit", n=v, nprime=1)),
    "program-limit-nprime": ("nprime", lambda v: prog.pure_asymptotics("program-limit", nprime=v)),
    "data-limit-n": ("n", lambda v: prog.pure_asymptotics("data-limit", n=v)),
    "symmetric-n": ("n", lambda v: prog.pure_asymptotics("symmetric", n=v)),
    "mixed_asymptote-n": ("n", lambda v: prog.mixed_asymptote(v, 0.5)),
    "PortLoad-n_a": ("n_a", lambda v: prog.PortLoad(v, 1, 1)),
    "PortLoad-n_b": ("n_b", lambda v: prog.PortLoad(1, v, 1)),
    "PortLoad-n_c": ("n_c", lambda v: prog.PortLoad(1, 1, v)),
    "averaged_block_coefficient-m": (
        "m", lambda v: prog.averaged_block_coefficient("bures", v, 0.5)
    ),
}


@pytest.mark.parametrize("bad", [0, -3, 2.5, math.nan, True, "4"])
@pytest.mark.parametrize("entry", sorted(COUNT_ARGUMENTS))
def test_bad_copy_count_raises_naming_it(entry, bad):
    name, call = COUNT_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(bad))} "):
        call(bad)


def test_copy_counts_accept_numpy_integers():
    assert prog.mixed_error(np.int64(2), np.int32(1), 0.6) == prog.mixed_error(2, 1, 0.6)
    assert prog.PortLoad(np.int64(3), 2, 1).n_a == 3


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


@pytest.mark.parametrize("n, nprime", [(1, 1), (3, 3), (5, 2), (11, 11), (20, 1), (29, 29),
                                      (79, 1), (1, 400), (450, 450)])
def test_mixed_error_at_purity_one_is_the_jordan_sum_bit_for_bit(n, nprime):
    # the pure machine: no sector is built, whatever the load
    assert prog.mixed_error(n, nprime, 1.0) == prog.pure_rates(n, nprime).pe
    assert prog.universal_error(prog.PuritySpec("fixed", 1 + 2.0**-52), n, nprime) == (
        prog.pure_rates(n, nprime).pe)


def test_purity_one_rows_build_no_recoupling_matrix(monkeypatch):
    # a pass that mixes r = 1 with r < 1 builds the Lambdas of the r < 1 rows
    # alone, and each value stays its one-load, one-prior one
    built = []
    batch = prog.recoupling_batch

    def counted(*spins):
        built.append(len(spins[0]))
        return batch(*spins)

    monkeypatch.setattr(prog, "recoupling_batch", counted)
    loads = [(3, 3), (11, 11), (29, 29)]
    mixed = [prog.PuritySpec("fixed", r) for r in (0.65, 0.3)]
    want = prog.load_errors(mixed, loads)
    alone = list(built)
    built.clear()
    specs = [prog.PuritySpec("fixed", 1.0), *mixed, prog.PuritySpec("fixed", 1.0)]
    got = prog.load_errors(specs, loads)
    assert built == alone and sum(alone) > 1000
    assert got == [[prog.pure_rates(n, nprime).pe, *row, prog.pure_rates(n, nprime).pe]
                   for (n, nprime), row in zip(loads, want)]
    built.clear()
    assert prog.load_errors(specs[:1], loads) == [[prog.pure_rates(n, n).pe] for n, _ in loads]
    assert built == []


@pytest.mark.parametrize("kind, r", [("fixed", 0.0), ("fixed", 0.3), ("fixed", 0.65),
                                     ("fixed", 1 - 2.0**-52), ("fixed", 1.0),
                                     ("hard-sphere", None), ("bures", None), ("chernoff", None)])
def test_prior_tables_are_the_checked_coefficients_bit_for_bit(kind, r):
    # the unchecked per-j arithmetic of a pass's tables against the public,
    # checked coefficient of every spin; zeros off the parity of m
    spec = prog.PuritySpec(kind, r)
    for m in range(1, 81):
        want = np.zeros(m + 1)
        for j2 in range(m % 2, m + 1, 2):
            want[j2] = (block_coefficient(m, HalfInt(j2), r) if kind == "fixed"
                        else prog.averaged_block_coefficient(kind, m, HalfInt(j2)))
        assert prog._prior_table(spec, m).tobytes() == want.tobytes(), m


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


@pytest.mark.parametrize("n", [11, 29])
def test_mixed_error_one_ulp_below_purity_one_is_the_pure_error(n):
    # Pe falls with r at about 2 relative per unit r, so one ulp below 1
    # reads the pure error to rounding; pruning at an absolute 1e-14 of mass
    # left it 2.0e-14 (n = 11) and 4.9e-14 (n = 29) above
    want = prog.pure_rates(n, n).pe
    assert abs(prog.mixed_error(n, n, 1 - 2.0**-52) - want) <= 2e-15 * want


@QUICK
@given(
    kind=st.sampled_from(("hard-sphere", "bures", "chernoff")), n=LOADS, nprime=LOADS
)
def test_universal_error_in_range(kind, n, nprime):
    assert 0.0 <= prog.universal_error(prog.PuritySpec(kind=kind), n, nprime) <= 0.5


# ---------------------------------------------------------------------------
# the ja <-> jc mirror fold of the block sums
# ---------------------------------------------------------------------------


def _sector_parts(ja2, jb2, jc2, j2, coeff_n, coeff_t):
    """Lambda, s1 and s2 of one sector, built as the block sums build them."""
    x_lo = max(abs(ja2 - jb2), abs(j2 - jc2))
    y_lo = max(abs(jb2 - jc2), abs(ja2 - j2))
    dim = (min(ja2 + jb2, j2 + jc2) - x_lo) // 2 + 1
    idx = np.arange(dim)
    lam = recoupling_batch([ja2], [jb2], [jc2], [j2], dim)[0]
    s1 = coeff_t[x_lo + 2 * idx] * coeff_n[jc2]
    s2 = coeff_n[ja2] * coeff_t[y_lo + 2 * idx]
    return lam, s1, s2


def _sector_matrix(ja2, jb2, jc2, j2, coeff_n, coeff_t):
    """M = diag(s1) - Lambda diag(s2) Lambda^T of one sector."""
    lam, s1, s2 = _sector_parts(ja2, jb2, jc2, j2, coeff_n, coeff_t)
    return np.diag(s1) - (lam * s2) @ lam.T


def test_recoupling_mirror_sector_has_the_same_absolute_spectrum():
    # swapping ja and jc turns M into -Lambda^T M Lambda, so the absolute
    # eigenvalues agree; checked on random sectors with every spin <= 30
    rng = np.random.default_rng(8)
    coeff_n, coeff_t = rng.uniform(size=61), rng.uniform(size=121)
    checked, largest = 0, 0
    while checked < 150:
        ja2, jb2, jc2, j2 = (int(t) for t in rng.integers(0, 61, size=4))
        lo, hi = max(abs(ja2 - jb2), abs(j2 - jc2)), min(ja2 + jb2, j2 + jc2)
        if (ja2 + jb2 + jc2 + j2) % 2 or lo > hi:
            continue
        m = _sector_matrix(ja2, jb2, jc2, j2, coeff_n, coeff_t)
        mirror = _sector_matrix(jc2, jb2, ja2, j2, coeff_n, coeff_t)
        assert mirror.shape == m.shape
        got = np.sort(np.abs(np.linalg.eigvalsh(mirror)))
        want = np.sort(np.abs(np.linalg.eigvalsh(m)))
        assert np.abs(got - want).max() <= 1e-13, (ja2, jb2, jc2, j2)
        checked, largest = checked + 1, max(largest, len(m))
    assert largest >= 20


def _six_j_images(a, b, c, d):
    """The sector, its three 6j images, then their four a <-> c mirrors."""
    return [(a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a),
            (c, b, a, d), (d, a, b, c), (a, d, c, b), (b, c, d, a)]


def test_recoupling_orbit_members_share_one_matrix():
    # the relabellings that keep (j_ab, j_bc) as the intermediate pair: the
    # 6j symmetries (b, a, J, c), (c, J, a, b), (J, c, b, a) share |Lambda|,
    # and the four a <-> c mirrors share |Lambda^T|.  So each member's M,
    # built on one shared Lambda (s1 and s2 traded where _orbit_keys flags a
    # mirror), has the absolute spectrum of its own; every spin <= 30
    rng = np.random.default_rng(18)
    coeff_n, coeff_t = rng.uniform(size=61), rng.uniform(size=121)
    checked, largest = 0, 0
    while checked < 100:
        a, b, c, d = (int(t) for t in rng.integers(0, 61, size=4))
        if (a + b + c + d) % 2 or max(abs(a - b), abs(d - c)) > min(a + b, d + c):
            continue
        images = _six_j_images(a, b, c, d)
        key, flip, _ = prog._orbit_keys(*(np.array(spins) for spins in zip(*images)))
        assert len(set(key.tolist())) == 1, images[0]
        shared = _sector_parts(*images[0], coeff_n, coeff_t)[0]
        for k, image in enumerate(images):
            lam, s1, s2 = _sector_parts(*image, coeff_n, coeff_t)
            want = np.abs(shared.T if k >= 4 else shared)
            assert np.abs(np.abs(lam) - want).max() <= 1e-13, image
            own = np.abs(np.linalg.eigvalsh(np.diag(s1) - (lam * s2) @ lam.T))
            if flip[k] != flip[0]:
                s1, s2 = s2, s1
            got = np.abs(np.linalg.eigvalsh(np.diag(s1) - (shared * s2) @ shared.T))
            assert np.abs(np.sort(got) - np.sort(own)).max() <= 1e-13, image
        checked, largest = checked + 1, max(largest, len(shared))
    assert largest >= 20


def _ranges(a, b, c, d):
    """Lowest and highest doubled j_ab, then j_bc, of sector (a, b, c, d)."""
    return (max(abs(a - b), abs(d - c)), min(a + b, d + c),
            max(abs(b - c), abs(a - d)), min(b + c, a + d))


def _regge(a, b, c, d):
    s = (a + b + c + d) // 2
    return s - a, s - b, s - c, s - d


def test_regge_image_joins_the_orbit_and_shares_its_rotated_block():
    # Regge's image (s - a, s - b, s - c, s - J), s the half sum, keeps
    # j_ab, j_bc and |Lambda|, so it gets the sector's key, and its M built
    # as _sector_sums builds it, c_c diag(G_x) - c_a P on the sector's
    # P = Lambda diag(G_y) Lambda^T, has the absolute spectrum of its own;
    # random sectors with every spin <= 60, then a few near 200
    rng = np.random.default_rng(25)
    coeff_n, coeff_t = rng.uniform(size=401), rng.uniform(size=401)
    checked, largest = 0, 0
    while checked < 155:
        low, top, tol = (0, 60, 1e-13) if checked < 150 else (180, 200, 1e-12)
        sector = tuple(int(t) for t in rng.integers(low, top + 1, size=4))
        x_lo, x_hi, y_lo, _ = _ranges(*sector)
        if sum(sector) % 2 or x_lo > x_hi:
            continue
        image = _regge(*sector)
        assert _ranges(*image) == _ranges(*sector), sector
        key, flip, _ = prog._orbit_keys(*(np.array(v) for v in zip(sector, image)))
        assert key[0] == key[1] and flip[0] == flip[1], sector
        lam = _sector_parts(*sector, coeff_n, coeff_t)[0]
        own, s1, s2 = _sector_parts(*image, coeff_n, coeff_t)
        assert np.abs(np.abs(own) - np.abs(lam)).max() <= tol, sector
        idx = np.arange(len(lam))
        p = (lam * coeff_t[y_lo + 2 * idx]) @ lam.T
        shared = np.diag(coeff_n[image[2]] * coeff_t[x_lo + 2 * idx]) - coeff_n[image[0]] * p
        got = np.sort(np.abs(np.linalg.eigvalsh(shared)))
        want = np.sort(np.abs(np.linalg.eigvalsh(np.diag(s1) - (own * s2) @ own.T)))
        assert np.abs(got - want).max() <= 1e-13, sector
        checked, largest = checked + 1, max(largest, len(lam))
    assert largest >= 100


def test_sector_sums_share_matrices_in_any_triple_order(monkeypatch):
    # the stacked, orbit-sharing sum against each table alone over its own
    # triples.  In a shuffled triple order an orbit's members, many of them
    # mirrors of the label whose matrix they share, come in any order; a
    # tiny batch cuts the triples into parts and every dimension group into
    # slices of a few orbits.  At n = 10 Regge's image merges the 270 6j
    # orbits of the sectors with three or more j_ab into 251.  Each term
    # depends on its own matrix alone and each sum is exact, so the values
    # are equal, not close
    n = 10
    rng = np.random.default_rng(5)
    spins = range(0, n + 1, 2)
    triples = np.array([(a, b, c) for a in spins for b in spins for c in spins if a <= c])
    ja2, jb2, jc2 = rng.permutation(triples).T
    sectors = [(a, b, c, d) for a, b, c in triples.tolist() for d in range(0, a + b + c + 1, 2)]
    sectors = {t for t in sectors if _ranges(*t)[1] - _ranges(*t)[0] >= 4}
    assert any(_regge(*t) in sectors and _regge(*t) not in _six_j_images(*t) for t in sectors)
    weight = rng.uniform(size=len(ja2))
    shift = rng.integers(-3, 4, size=len(ja2))
    specs = [prog.PuritySpec("fixed", r) for r in (0.55, 0.9)]
    coeff_n, coeff_t = (np.array([prog._prior_table(p, m) for p in specs]) for m in (n, 2 * n))
    keep = np.ones((2, len(ja2)), dtype=bool)
    keep[1, ::3] = False
    alone = [prog._sector_sums(ja2[k], jb2[k], jc2[k], weight[k], shift[k],
                               np.ones(k.sum(), dtype=int), np.zeros(k.sum(), dtype=int),
                               coeff_n[t:t + 1], coeff_t[t:t + 1])[0]
             for t, k in enumerate(keep)]
    for batch in (prog._BATCH_ELEMENTS, 64):
        monkeypatch.setattr(prog, "_BATCH_SECTORS", batch)
        monkeypatch.setattr(prog, "_BATCH_ELEMENTS", batch)
        got = prog._sector_sums(ja2, jb2, jc2, weight, shift, keep.sum(axis=0),
                                np.nonzero(keep.T)[1], coeff_n, coeff_t)
        assert got == alone, batch


FOLD_LOADS = dict(n=st.integers(min_value=1, max_value=16), nprime=st.integers(1, 8))
# tiny, mid, one ulp below 1, and 1
FOLD_PURITIES = st.sampled_from((1e-300, 0.55, float(np.nextafter(1.0, 0.0)), 1.0))


@QUICK
@given(r=FOLD_PURITIES, **FOLD_LOADS)
@example(n=15, nprime=4, r=0.55)
@example(n=16, nprime=8, r=1e-300)
@example(n=8, nprime=8, r=0.55)  # equal loads: matrices shared across orbits
@example(n=11, nprime=11, r=0.55)  # and Regge images in them
def test_mixed_error_matches_every_sector_sum(n, nprime, r):
    # the folded, pruned sum against every (ja, jb, jc, J) sector: pruning
    # drops a quarter ulp at most, so the two differ by rounding alone
    want = oracles.block_error_all_sectors(
        n, nprime, *(prog._prior_table(prog.PuritySpec("fixed", r), m) for m in (n, n + nprime))
    )
    assert abs(prog.mixed_error(n, nprime, r) - want) <= 1e-15


@QUICK
@given(kind=st.sampled_from(("hard-sphere", "bures", "chernoff")), **FOLD_LOADS)
@example(kind="chernoff", n=13, nprime=2)
@example(kind="chernoff", n=6, nprime=6)
def test_universal_error_matches_every_sector_sum(kind, n, nprime):
    want = oracles.block_error_all_sectors(
        n, nprime, *(prog._prior_table(prog.PuritySpec(kind), m) for m in (n, n + nprime))
    )
    got = prog.universal_error(prog.PuritySpec(kind=kind), n, nprime)
    assert abs(got - want) <= 1e-15


@pytest.mark.parametrize("n, nprime", [(1, 1), (2, 1), (3, 2), (4, 4), (6, 3), (5, 5)])
def test_no_prior_errs_less_than_pure_states(n, nprime):
    # the premise of the pruning bound, 2^-52 of the pure-state error: it
    # lies below 2^-52 of every prior's error
    pure = prog.pure_rates(n, nprime).pe
    specs = [prog.PuritySpec(kind) for kind in ("hard-sphere", "bures", "chernoff")]
    specs += [prog.PuritySpec("fixed", r) for r in (0.0, 0.5, 0.9, 0.999)]
    for spec in specs:
        assert prog.universal_error(spec, n, nprime) >= pure, spec


@pytest.mark.parametrize("n, nprime", [(6, 6), (9, 9), (7, 2)])
def test_universal_errors_is_the_stack_of_single_calls(n, nprime):
    # r one ulp below 1 prunes most sectors, a mid purity none and a prior
    # few, so the stack runs over a union that each value sees only in part;
    # r = 1 is the Jordan sum, outside the stack
    specs = [prog.PuritySpec("fixed", 1.0), prog.PuritySpec("fixed", 1 - 2.0**-53),
             prog.PuritySpec("fixed", 0.55), prog.PuritySpec("bures"),
             prog.PuritySpec("chernoff")]
    got = prog.load_errors(specs, [(n, nprime)])[0]
    assert got == [prog.universal_error(spec, n, nprime) for spec in specs]
    assert prog.load_errors([], [(n, nprime)])[0] == []


# the loads and purity priors of one pass in the manner of fig4.1-fig4.4, at
# smaller loads: purities at fixed loads, fixed priors at loads n = nprime
FIXED = [prog.PuritySpec("fixed", r) for r in (0.0, 1e-300, 0.55, 1 - 2.0**-53, 1.0)]
FIGURE_PASSES = {
    "fig4.1": ([(3, 3), (6, 6), (11, 11)], FIXED),
    "fig4.2": ([(n, n) for n in range(1, 9)],
               [prog.PuritySpec("fixed", r) for r in (0.2, 0.5, 0.7, 1.0)]),
    "fig4.3": ([(20, 1), (79, 1)], FIXED[1:]),
    "fig4.4": ([(n, n) for n in range(1, 9)],
               [prog.PuritySpec(kind) for kind in ("hard-sphere", "bures", "chernoff")]),
}


@pytest.mark.parametrize("figure", sorted(FIGURE_PASSES))
def test_every_value_of_a_pass_is_its_one_load_one_prior_call(figure, monkeypatch):
    # loads and priors share the sectors, Lambdas and eigensolves of one
    # pass, each prior pruned by its own mass; tiny batches cut it into
    # passes of a row or a few, parts and slices of a few matrices, and fold
    # the terms into each row's sum every few slices.  No value may move
    loads, specs = FIGURE_PASSES[figure]
    alone = [[prog.universal_error(spec, n, nprime) for spec in specs] for n, nprime in loads]
    assert prog.load_errors(specs, loads) == alone
    for name in ("_BATCH_SECTORS", "_BATCH_ELEMENTS", "_BATCH_PAIRS"):
        monkeypatch.setattr(prog, name, 64)
    assert prog.load_errors(specs, loads) == alone
    assert prog.load_errors(specs, loads[::-1]) == alone[::-1]


def test_fold_keeps_each_sum_exact():
    # terms of a wide range of magnitudes, subnormal and zero ones among
    # them, folded in parts of any size, sum to the math.fsum of them all
    rng = np.random.default_rng(3)
    terms = rng.uniform(size=3000) * 2.0 ** rng.integers(-200, 60, size=3000)
    terms[::50], terms[1::50], terms[2::50] = 0.0, 5e-324, 3e-310
    terms[3::50] = 2.0**60 * (1 - 2.0**-53)
    rows = rng.integers(0, 3, size=3000)
    want = [math.fsum(terms[rows == v].tolist()) for v in range(3)]
    for part in (1, 7, 3000):
        sums = [[], [], []]
        for lo in range(0, 3000, part):
            prog._fold(sums, [rows[lo:lo + part]], [terms[lo:lo + part]])
        assert [math.fsum(s) for s in sums] == want, part


FINE = [prog.PuritySpec("fixed", r) for r in np.linspace(0.3, 0.9, 40)]
GRID_LOADS = [(n, n) for n in range(6, 13)]


@pytest.mark.parametrize("whole, half", [
    (([(11, 11)], FINE), ([(11, 11)], FINE[:20])),  # fig4.1-style: purities at one load
    ((GRID_LOADS * 4, FIGURE_PASSES["fig4.2"][1]),  # fig4.2-style: many loads
     (GRID_LOADS * 2, FIGURE_PASSES["fig4.2"][1])),
], ids=["fine-r", "many-n"])
def test_pass_memory_stays_bounded_as_rows_grow(whole, half, monkeypatch):
    # with passes and held terms capped at 2^10 pairs, twice the rows leave
    # the traced peak where it was; holding every pair of the grid at once,
    # as one uncapped pass does, takes 1.9 and 2.0 times as much
    monkeypatch.setattr(prog, "_BATCH_PAIRS", 1 << 10)

    def peak(loads, specs):
        prog.load_errors(specs, loads)  # caches warm outside the trace
        tracemalloc.start()
        prog.load_errors(specs, loads)
        size = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return size

    assert peak(*whole) <= 1.2 * peak(*half)


# known purities at both ends and in between (1 - 2^-53 is one ulp below 1),
# then the three priors
TWO_LEVEL_SPECS = [prog.PuritySpec("fixed", r)
                   for r in (0.0, 1e-300, 1e-8, 0.5, 1 - 2.0**-53, 1.0)]
TWO_LEVEL_SPECS += [prog.PuritySpec(kind) for kind in ("hard-sphere", "bures", "chernoff")]


@pytest.mark.parametrize("n, nprime", [(1, 1), (2, 1), (3, 1), (8, 1), (20, 1), (79, 1),
                                       (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (5, 2), (40, 3)])
def test_closed_form_sectors_match_the_dense_solve_of_every_sector(n, nprime):
    # the closed form of the sectors with one or two j_ab against a dense
    # eigvalsh of every sector.  _sector_sums runs over every triple, neither
    # folded nor pruned, with its multiplicity product as the weight, so the
    # two sums hold the same terms; _block_error prunes, which moves its value
    # by a quarter ulp at most
    ja2, jb2, jc2 = (g.ravel() for g in np.meshgrid(
        *(range(m % 2, m + 1, 2) for m in (n, nprime, n)), indexing="ij"))
    nu_n, nu_p = multiplicity_table(n), multiplicity_table(nprime)
    weight = np.array([float(nu_n[a] * nu_p[b] * nu_n[c]) for a, b, c in zip(ja2, jb2, jc2)])
    tables = [(prog._prior_table(s, n), prog._prior_table(s, n + nprime)) for s in TWO_LEVEL_SPECS]
    coeff_n, coeff_t = (np.array(t) for t in zip(*tables))
    totals = prog._sector_sums(ja2, jb2, jc2, weight, np.zeros(len(ja2), dtype=int),
                               np.full(len(ja2), len(tables)), np.tile(np.arange(len(tables)),
                                                                       len(ja2)), coeff_n, coeff_t)
    pruned = prog._block_error([(n, nprime, *table) for table in tables])
    for spec, total, value, table in zip(TWO_LEVEL_SPECS, totals, pruned, tables):
        want = oracles.block_error_all_sectors(n, nprime, *table)
        assert abs((1.0 - total / 2.0) / 2.0 - want) <= 1e-14 * want, spec
        assert abs(value - want) <= 1e-14 * want, spec


@pytest.mark.parametrize("a, b, c", [
    (0.3, 0.0, -0.7), (0.3, 0.0, 0.3), (0.0, 0.0, 0.0),  # b = 0
    (0.5, 0.2, 0.5), (-0.5, 1e-9, -0.5),  # a = c
    (0.4, 0.1, -0.4), (0.4, 0.0, -0.4), (1e-17, 1.0, -1e-17),  # a = -c
    (0.09, 0.12, 0.16), (-0.09, 0.12, -0.16), (1.0, 0.0, 0.0), (1.0, 1e-8, 1e-16),  # rank 1
    (3e-300, 1e-300, -2e-300), (1e-300, -1e-300, 1e-300), (1.0, 1e-300, -1e-300),
])
def test_two_level_trace_norm_on_adversarial_blocks(a, b, c):
    # s2 = (0, 1) and P = [[0, -b], [-b, 0]] make M = [[a, b], [b, c]] exactly
    got = prog._two_level_norms(np.array([[a], [c]]), np.array([[0.0], [1.0]]),
                                np.array([[0.0], [0.0], [-b]]))
    want = np.abs(np.linalg.eigvalsh(np.array([[a, b], [b, c]]))).sum()
    assert got.shape == (1,)
    assert abs(got[0] - want) <= 1e-15 * (abs(a) + 2 * abs(b) + abs(c))
    # one j_ab: M = s1 - s2, whatever P holds
    one = prog._two_level_norms(np.array([[a]]), np.array([[c]]), np.array([[b]]))
    assert one[0] == abs(a - c)


def test_two_level_projector_is_the_upper_recoupling_column():
    # P = (T - y (y + 2)) / (4 y + 8), T = 4 J_bc^2, equals v v^T for the
    # column v of Lambda at the doubled j_bc y + 2, on random two-level
    # sectors with every doubled spin <= 400; so Lambda diag(s2) Lambda^T =
    # s2_0 + (s2_1 - s2_0) P
    ja2, jb2, jc2, j2 = np.random.default_rng(21).integers(0, 401, size=(4, 200000))
    lo = np.maximum(np.abs(ja2 - jb2), np.abs(j2 - jc2))
    two = ((ja2 + jb2 + jc2 + j2) % 2 == 0) & (np.minimum(ja2 + jb2, j2 + jc2) - lo == 2)
    ja2, jb2, jc2, j2 = ja2[two], jb2[two], jc2[two], j2[two]
    assert len(ja2) > 100
    y = np.maximum(np.abs(jb2 - jc2), np.abs(ja2 - j2))[:, None]
    diag, off = angular._recoupling_tridiagonal(ja2, jb2, jc2, j2, 2)
    p = np.hstack([diag - y * (y + 2.0), off]) / (4.0 * y + 8.0)
    v = recoupling_batch(ja2, jb2, jc2, j2, 2)[:, :, 1]
    want = np.stack([v[:, 0] ** 2, v[:, 1] ** 2, v[:, 0] * v[:, 1]], axis=1)
    assert np.abs(p - want).max() <= 1e-13


def test_mixed_error_with_one_data_copy_runs_no_eigensolve(monkeypatch):
    # with one data copy every sector has one or two j_ab, so no LAPACK
    # eigensolve runs, and the values are those of the unpatched calls
    want = {(n, r): prog.mixed_error(n, 1, r) for n in range(1, 21) for r in (0.3, 1.0)}

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for (n, r), value in want.items():
        assert prog.mixed_error(n, 1, r) == value
    with pytest.raises(AssertionError, match="eigensolve"):
        prog.mixed_error(3, 3, 0.3)


def test_mixed_error_at_600_program_copies_is_finite_and_near_its_asymptote():
    # the multiplicity product nu_a nu_b nu_c passes the largest float near
    # n = 521, where the block coefficients it multiplies near underflow;
    # carried as mantissas and exact powers of two, no factor overflows
    big, before = prog.mixed_error(600, 1, 0.5), prog.mixed_error(515, 1, 0.5)
    assert 0.0 <= big <= 0.5
    assert big <= before
    assert big == pytest.approx(prog.mixed_asymptote(600, 0.5), rel=1e-4)


@pytest.mark.parametrize("n, nprime", [(900, 1), (1, 900), (1035, 1)])
def test_block_sums_refuse_loads_beyond_the_normal_floats(n, nprime):
    with pytest.raises(ValueError, match=rf"n {n} plus nprime {nprime} is above 900"):
        prog.load_errors([prog.PuritySpec("fixed", 0.5), prog.PuritySpec("bures")], [(n, nprime)])


def test_symmetric_law_below_full_purity_is_the_lan_limit():
    # criterion 3's 3 zeta(1/4) / (4 n r^2) is exact only at r = 1; below,
    # (Pe - law)/Pe tends to 1 - law / L, with L the limit of n Pe from local
    # asymptotic normality (+0.0263 at r = 0.9, against 0 for the 1/r^2 law).
    # Extrapolated here from n = 20..30 by c + a/sqrt(n) + b/n + e/n^1.5
    r = 0.9
    law = 0.75 * prog.zeta_series(0.25) / (r * r)
    assert oracles.symmetric_limit_lan(1.0) == pytest.approx(law * r * r, rel=1e-14)
    ns = np.arange(20, 31, 2)
    misfit = [1.0 - law / (n * prog.mixed_error(int(n), int(n), r)) for n in ns]
    fit = np.linalg.lstsq(np.vander(ns**-0.5, 4, increasing=True), misfit, rcond=None)[0]
    assert fit[0] == pytest.approx(1.0 - law / oracles.symmetric_limit_lan(r), abs=5e-4)


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


def _chernoff_reference(m):
    """60-digit Chernoff-prior coefficients of an m-fold power by doubled
    spin: each window sum of B_1/2(a, b) - 2 B_1/2(a + 1/2, b + 1/2)."""
    with mpmath.workdps(60):
        terms = []
        for mu in range(-m, m + 1, 2):
            a, b = mpmath.mpf(m + 1 - mu) / 2, mpmath.mpf(m + 1 + mu) / 2
            terms.append(mpmath.betainc(a, b, 0, 0.5)
                         - 2 * mpmath.betainc(a + 0.5, b + 0.5, 0, 0.5))
        return {
            j2: 2 / ((mpmath.pi - 2) * (j2 + 1))
            * mpmath.fsum(terms[(m - j2) // 2 : (m + j2) // 2 + 1])
            for j2 in range(m % 2, m + 1, 2)
        }


@pytest.mark.parametrize("m", [1, 2, 3, 8, 13, 32, 128, 300])
def test_chernoff_coefficient_against_60_digit_reference(m):
    for j2, want in _chernoff_reference(m).items():
        got = prog.averaged_block_coefficient("chernoff", m, HalfInt(j2))
        assert abs(got - float(want)) <= 1e-13 * float(want), j2


@pytest.mark.parametrize("m", [1, 2, 5, 20, 100, 300, 899])
def test_hard_sphere_and_bures_coefficients_against_60_digit_gamma(m):
    # 6 G(m/2 + j + 2) G(m/2 - j + 1) / G(m + 4) and (4 / pi) G(m/2 + j + 3/2)
    # G(m/2 - j + 1/2) / G(m + 3), correctly rounded from exact integers
    with mpmath.workdps(60):
        h = mpmath.mpf(m) / 2
        for j2 in range(m % 2, m + 1, 2):
            j = mpmath.mpf(j2) / 2
            want = {
                "hard-sphere": 6 * mpmath.gamma(h + j + 2) * mpmath.gamma(h - j + 1)
                / mpmath.gamma(m + 4),
                "bures": 4 / mpmath.pi * mpmath.gamma(h + j + 1.5)
                * mpmath.gamma(h - j + 0.5) / mpmath.gamma(m + 3),
            }
            for kind, value in want.items():
                got = prog.averaged_block_coefficient(kind, m, HalfInt(j2))
                assert abs(got - value) <= 2.0**-52 * value, (kind, j2)


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

        return prog._block_error([(n, nprime, table(n), table(n + nprime))])[0]

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


@QUICK
@given(n=LOADS, nprime=LOADS, big_r=st.floats(min_value=0.0, max_value=1.0))
def test_margin_weak_success_in_range_and_above_strong(n, nprime, big_r):
    # the strong condition bounds each conditional error, so it is tighter
    weak = prog.margin_success(n, nprime, big_r, "weak").p_success
    strong = prog.margin_success(n, nprime, big_r, "strong").p_success
    assert 0.0 <= strong <= weak + 1e-12
    assert weak <= 1.0


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
    r_weak = prog._weak_from_strong(prog._pure_table(n, nprime), r_strong)
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
