import math
import re
import time

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
        images = [(a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a),
                  (c, b, a, d), (d, a, b, c), (a, d, c, b), (b, c, d, a)]
        key, flip = prog._orbit_keys(*(np.array(spins) for spins in zip(*images)))
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


def test_sector_sums_share_matrices_in_any_triple_order(monkeypatch):
    # the stacked, orbit-sharing sum against each table alone over its own
    # triples, every sector with its own matrix.  In a shuffled triple order
    # the first sector of an orbit, whose matrix the orbit shares, is often a
    # mirror of the orbit's label; a tiny batch cuts every dimension group
    # into slices of a few orbits
    n = 8
    rng = np.random.default_rng(5)
    spins = range(0, n + 1, 2)
    triples = np.array([(a, b, c) for a in spins for b in spins for c in spins if a <= c])
    ja2, jb2, jc2 = rng.permutation(triples).T
    weight = rng.uniform(size=len(ja2))
    shift = rng.integers(-3, 4, size=len(ja2))
    specs = [prog.PuritySpec("fixed", r) for r in (0.55, 0.9)]
    tables = [(prog._prior_table(p, n), prog._prior_table(p, 2 * n)) for p in specs]
    keep = np.ones((2, len(ja2)), dtype=bool)
    keep[1, ::3] = False
    for batch in (prog._BATCH_ELEMENTS, 64):
        monkeypatch.setattr(prog, "_BATCH_ELEMENTS", batch)
        got = prog._sector_sums(ja2, jb2, jc2, weight, shift, keep, tables, True)
        for t, table in enumerate(tables):
            k = keep[t]
            alone = prog._sector_sums(
                ja2[k], jb2[k], jc2[k], weight[k], shift[k], keep[t:t + 1, k], [table], False
            )
            assert abs(got[t] - alone[0]) <= 1e-13 * alone[0], (batch, t)


FOLD_LOADS = dict(n=st.integers(min_value=1, max_value=16), nprime=st.integers(1, 8))
# tiny, mid, one ulp below 1, and 1
FOLD_PURITIES = st.sampled_from((1e-300, 0.55, float(np.nextafter(1.0, 0.0)), 1.0))


@QUICK
@given(r=FOLD_PURITIES, **FOLD_LOADS)
@example(n=15, nprime=4, r=0.55)
@example(n=16, nprime=8, r=1e-300)
@example(n=8, nprime=8, r=0.55)  # equal loads: matrices shared across orbits
def test_mixed_error_matches_every_sector_sum(n, nprime, r):
    # the folded, pruned sum against every (ja, jb, jc, J) sector: pruning
    # only ever drops mass, so the two differ by at most _MASS_TOL / 4
    want = oracles.block_error_all_sectors(
        n, nprime, *(prog._prior_table(prog.PuritySpec("fixed", r), m) for m in (n, n + nprime))
    )
    assert abs(prog.mixed_error(n, nprime, r) - want) <= prog._MASS_TOL / 4 + 1e-15


@QUICK
@given(kind=st.sampled_from(("hard-sphere", "bures", "chernoff")), **FOLD_LOADS)
@example(kind="chernoff", n=13, nprime=2)
@example(kind="chernoff", n=6, nprime=6)
def test_universal_error_matches_every_sector_sum(kind, n, nprime):
    want = oracles.block_error_all_sectors(
        n, nprime, *(prog._prior_table(prog.PuritySpec(kind), m) for m in (n, n + nprime))
    )
    got = prog.universal_error(prog.PuritySpec(kind=kind), n, nprime)
    assert abs(got - want) <= prog._MASS_TOL / 4 + 1e-15


@pytest.mark.parametrize("n, nprime", [(6, 6), (9, 9), (7, 2)])
def test_universal_errors_is_the_stack_of_single_calls(n, nprime):
    # r = 1 prunes most sectors, a mid purity none and a prior few, so the
    # stack runs over a union that each value sees only in part
    specs = [prog.PuritySpec("fixed", 1.0), prog.PuritySpec("fixed", 0.55),
             prog.PuritySpec("bures"), prog.PuritySpec("chernoff")]
    got = prog.universal_errors(specs, n, nprime)
    assert len(got) == len(specs)
    for spec, value in zip(specs, got):
        assert abs(value - prog.universal_error(spec, n, nprime)) <= 1e-15, spec
    assert prog.universal_errors([], n, nprime) == []


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
    # by at most _MASS_TOL / 4 more
    ja2, jb2, jc2 = (g.ravel() for g in np.meshgrid(
        *(range(m % 2, m + 1, 2) for m in (n, nprime, n)), indexing="ij"))
    nu_n, nu_p = multiplicity_table(n), multiplicity_table(nprime)
    weight = np.array([float(nu_n[a] * nu_p[b] * nu_n[c]) for a, b, c in zip(ja2, jb2, jc2)])
    tables = [(prog._prior_table(s, n), prog._prior_table(s, n + nprime)) for s in TWO_LEVEL_SPECS]
    keep = np.ones((len(tables), len(ja2)), dtype=bool)
    totals = prog._sector_sums(ja2, jb2, jc2, weight, np.zeros(len(ja2), dtype=int), keep,
                               tables, n == nprime > 1)
    pruned = prog._block_error(n, nprime, tables)
    for spec, total, value, table in zip(TWO_LEVEL_SPECS, totals, pruned, tables):
        want = oracles.block_error_all_sectors(n, nprime, *table)
        assert abs((1.0 - total / 2.0) / 2.0 - want) <= 1e-14 * want, spec
        assert abs(value - want) <= 1e-14 * want + prog._MASS_TOL / 4, spec


@pytest.mark.parametrize("a, b, c", [
    (0.3, 0.0, -0.7), (0.3, 0.0, 0.3), (0.0, 0.0, 0.0),  # b = 0
    (0.5, 0.2, 0.5), (-0.5, 1e-9, -0.5),  # a = c
    (0.4, 0.1, -0.4), (0.4, 0.0, -0.4), (1e-17, 1.0, -1e-17),  # a = -c
    (0.09, 0.12, 0.16), (-0.09, 0.12, -0.16), (1.0, 0.0, 0.0), (1.0, 1e-8, 1e-16),  # rank 1
    (3e-300, 1e-300, -2e-300), (1e-300, -1e-300, 1e-300), (1.0, 1e-300, -1e-300),
])
def test_two_level_trace_norm_on_adversarial_blocks(a, b, c):
    # s2 = (0, 1) and P = [[0, -b], [-b, 0]] make M = [[a, b], [b, c]] exactly
    got = prog._two_level_norms(np.array([[a, c]]), np.array([[0.0, 1.0]]),
                                np.array([[0.0, 0.0, -b]]))
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
        prog.universal_errors([prog.PuritySpec("fixed", 0.5), prog.PuritySpec("bures")], n, nprime)


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

        return prog._block_error(n, nprime, [(table(n), table(n + nprime))])[0]

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
