"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them
as they complete).  Tolerances and runtime caps are pinned here and nowhere
else."""

import math
import time

import numpy as np
import pytest

import oracles
from qdl import discrimination, learning, povmdec, programmable, reading
from oracles import clebsch_gordan, overlap_matrix, wigner6j
from qdl.angular import HalfInt, multiplicity
from qdl.linalg import trace_norm


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_pure_rates():
    programmable.pure_rates(1, 1)  # warm imports and caches
    t0 = time.perf_counter()
    rates = programmable.pure_rates(1, 1)
    dt = time.perf_counter() - t0
    ok = (
        rates.q == 5 / 6
        and abs(rates.pe - (1 - 1 / (2 * math.sqrt(3))) / 2) <= 1e-12
        and dt < 1e-3
    )
    report(1, ok, f"Q={rates.q!r}, Pe={rates.pe!r}, runtime {dt * 1e6:.0f} us")


def test_criterion_2_block_method_matches_dense_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(1, 5):
        for nprime in range(1, 10 - 2 * n):
            for r in (0.3, 0.7, 1.0):
                got = programmable.mixed_error(n, nprime, r)
                want = oracles.programmable_mixed_error_dense(n, nprime, r)
                worst = max(worst, abs(got - want))
                cases += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    report(2, ok, f"{cases} cases, worst |block - dense| = {worst:.2e}, {dt:.1f}s")


def test_criterion_3_symmetric_asymptotic_fit():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(16, 27):
        for r in (0.9, 1.0):
            pe = programmable.mixed_error(n, n, r)
            fit = 0.75 * programmable.zeta_series(0.25) / (n * r * r)
            worst = max(worst, abs(pe - fit) / pe)
    dt = time.perf_counter() - t0
    ok = worst <= 0.07 and dt < 60.0
    report(3, ok, f"worst relative misfit {worst:.3%}, {dt:.1f}s")


def test_criterion_4_mixed_asymptote():
    t0 = time.perf_counter()
    worst = 0.0
    for r in np.arange(0.3, 1.0001, 0.1):
        got = programmable.mixed_error(79, 1, float(r))
        asym = programmable.mixed_asymptote(79, float(r))
        worst = max(worst, abs(got - asym))
    dt = time.perf_counter() - t0
    ok = worst <= 2e-3 and dt < 60.0
    report(4, ok, f"worst |exact - asymptote| = {worst:.2e}, {dt:.1f}s")


def test_criterion_5_learning_machine_equality():
    t0 = time.perf_counter()
    worst = max(
        abs(learning.lm_error(n) - programmable.pure_rates(n, 1).pe)
        for n in range(1, 51)
    )
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 5.0
    report(5, ok, f"worst |LM - programmable| = {worst:.2e} over n <= 50, {dt:.2f}s")


def test_criterion_6_excess_risk_constants():
    r_lm = learning.lm_error(1) - 1 / 6
    r_eyd = learning.eyd_qubit(1).excess_risk
    rev_limit = 5 / 12
    rev_approach = learning.reversed_error(10**12)
    ok = (
        abs(r_lm - (4 - math.sqrt(3)) / 12) <= 1e-12
        and abs(r_eyd - (4 - math.sqrt(2)) / 12) <= 1e-12
        and abs(rev_approach - rev_limit) <= 1e-11
    )
    report(
        6,
        ok,
        f"R_lm(1)={r_lm:.12f}, R_eyd(1)={r_eyd:.12f}, reversed limit dev "
        f"{abs(rev_approach - rev_limit):.1e}",
    )


def test_criterion_7_seed_optimization():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_at = None
    worst_residual = 0.0
    lower_ok = True
    for n in (1, 2, 3):
        for r in np.linspace(0.1, 0.9, 9):
            opt = learning.lm_mixed_optimize(n, float(r))
            pe_lm = (1 - opt.delta_lm / 2) / 2
            pe_opt = programmable.mixed_error(n, 1, float(r))
            base = learning.known_pair_error(float(r))
            ratio = (pe_lm - base) / (pe_opt - base)
            lower_ok = lower_ok and pe_lm >= pe_opt - 1e-9
            if ratio > worst_ratio:
                worst_ratio, worst_at = ratio, (n, float(r))
            worst_residual = max(worst_residual, opt.seed.resolution_residual())
    dt = time.perf_counter() - t0
    ok = lower_ok and worst_residual <= 1e-8 and worst_ratio <= 1.01 and dt < 600.0
    report(
        7,
        ok,
        f"R_opt <= R_LM: {lower_ok}, worst R_LM/R_opt = {worst_ratio:.4f} at "
        f"(n, r) = {worst_at}, residual {worst_residual:.1e}, {dt:.0f}s "
        "(the 1.01 cap is not reachable by the optimal one-way covariant "
        "machine; see the decisions ledger)",
    )


def test_criterion_8_margin_curves():
    tables = programmable.margin_success(9, 2, 0.0, "weak")
    rc = tables.saturation_points[-1]
    dev = []
    for big_r in (0.0, rc):
        w = programmable.margin_success(9, 2, big_r, "weak").p_success
        s = programmable.margin_success(9, 2, big_r, "strong").p_success
        dev.append(abs(w - s))
    ok = abs(rc - 0.154) <= 1e-3 and max(dev) <= 1e-10
    report(8, ok, f"R_c = {rc:.6f}, weak/strong deviation at extremes {max(dev):.1e}")


def test_criterion_9_reading():
    t0 = time.perf_counter()
    grid = np.linspace(0.3, 1.5, 25)
    ratios = []
    separated = True
    for a0 in grid:
        col = reading.collective_excess_risk(float(a0))
        eyd = reading.eyd_excess_risk(float(a0), reading.optimal_squeezing(float(a0)))
        separated = separated and col < eyd
        ratios.append(eyd / col)
    cfg = reading.ReadingConfig(alpha0=1.0, mu=1.0, n_aux=64)
    pe = reading.finite_n_oracle(cfg, "collective", quadrature_order=16)
    pe_star = reading.known_state_error(cfg, quadrature_order=16)
    scaled = 64 * (pe - pe_star)
    target = reading.collective_excess_risk_finite_prior(1.0, 1.0)
    rel = abs(scaled - target) / target
    dt = time.perf_counter() - t0
    ok = separated and max(ratios) > 2.0 and rel <= 0.10
    report(
        9,
        ok,
        f"collective < eyd on grid: {separated}, max ratio {max(ratios):.2f}, "
        f"oracle n(Pe - Pe*) off closed form by {rel:.2%}, {dt:.0f}s",
    )


def test_criterion_10_povm_decomposer():
    t0 = time.perf_counter()
    # named instances
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    xp = np.full((2, 2), 0.5, dtype=complex)
    xm = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    bb84 = povmdec.Povm(
        dim=2, elements=(("z0", z0 / 2), ("z1", z1 / 2), ("x+", xp / 2), ("x-", xm / 2))
    )
    res = povmdec.decompose(bb84)
    bb84_ok = (
        len(res.terms) == 2
        and sorted(p for p, _ in res.terms) == pytest.approx([0.5, 0.5], abs=1e-12)
        and all(len(e.elements) == 2 for _, e in res.terms)
    )

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    elems = []
    for k in range(5):
        th = 2 * math.pi * k / 5
        elems.append(
            (f"p{k}", 0.4 * (np.eye(2) + math.cos(th) * sx + math.sin(th) * sy) / 2)
        )
    pent = povmdec.Povm(dim=2, elements=tuple(elems))
    res = povmdec.decompose(pent)
    pent_ok = (
        len(res.terms) == 3
        and all(len(e.elements) == 3 for _, e in res.terms)
        and abs(res.terms[0][0] - 1 / math.sqrt(5)) <= 1e-10
    )

    rng = np.random.default_rng(2024)
    worst = 0.0
    bound_ok = True
    for _ in range(200):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, 3 * d * d + 1))
        ops = oracles.random_povm(rng, d, n)
        p = povmdec.Povm(dim=d, elements=tuple((str(i), op) for i, op in enumerate(ops)))
        out = povmdec.decompose(p)
        nbar = len(povmdec.rank1_expand(p)[0].elements)
        bound_ok = bound_ok and len(out.terms) <= (nbar - 1) * d + 1
        recon = out.reconstruct(d, p.labels())
        for lab, op in p.elements:
            worst = max(worst, float(np.abs(recon[lab] - op).max()))
    dt = time.perf_counter() - t0
    ok = bb84_ok and pent_ok and worst <= 1e-9 and bound_ok and dt < 60.0
    report(
        10,
        ok,
        f"bb84 {bb84_ok}, pentagon {pent_ok}, 200 random worst recon {worst:.2e}, "
        f"bound {bound_ok}, {dt:.0f}s",
    )


def test_criterion_11_property_suites():
    failures = []

    # Clebsch-Gordan orthogonality
    for j1_2, j2_2 in [(1, 1), (2, 1), (3, 2)]:
        couplings = [
            (J2, M2)
            for J2 in range(abs(j1_2 - j2_2), j1_2 + j2_2 + 1, 2)
            for M2 in range(-J2, J2 + 1, 2)
        ]
        for Ja, Ma in couplings:
            for Jb, Mb in couplings:
                tot = sum(
                    clebsch_gordan(
                        HalfInt(j1_2), HalfInt(m1), HalfInt(j2_2), HalfInt(m2),
                        HalfInt(Ja), HalfInt(Ma),
                    )
                    * clebsch_gordan(
                        HalfInt(j1_2), HalfInt(m1), HalfInt(j2_2), HalfInt(m2),
                        HalfInt(Jb), HalfInt(Mb),
                    )
                    for m1 in range(-j1_2, j1_2 + 1, 2)
                    for m2 in range(-j2_2, j2_2 + 1, 2)
                )
                want = 1.0 if (Ja, Ma) == (Jb, Mb) else 0.0
                if abs(tot - want) > 1e-12:
                    failures.append(f"CG orthogonality ({Ja},{Ma})x({Jb},{Mb})")

    # 6j tetrahedral symmetries
    rng = np.random.default_rng(55)
    for _ in range(50):
        a, b, c, d, e, f = (HalfInt(int(t)) for t in rng.integers(0, 7, size=6))
        base = wigner6j(a, b, c, d, e, f)
        for perm in [
            wigner6j(b, a, c, e, d, f),
            wigner6j(c, b, a, f, e, d),
            wigner6j(a, c, b, d, f, e),
            wigner6j(d, e, c, a, b, f),
            wigner6j(a, e, f, d, b, c),
        ]:
            if abs(perm - base) > 1e-12:
                failures.append("6j symmetry")

    # multiplicity dimension identity
    for n in range(1, 21):
        total = sum(
            multiplicity(n, HalfInt(j2)) * (j2 + 1) for j2 in range(n % 2, n + 1, 2)
        )
        if total != 2**n:
            failures.append(f"dimension identity n={n}")

    # coupling-change orthogonality
    for n in (2, 3, 4):
        for ja2 in range(n % 2, n + 1, 2):
            for jb2 in range(n % 2, n + 1, 2):
                for jc2 in range(n % 2, n + 1, 2):
                    for J2 in range((ja2 + jb2 + jc2) % 2, ja2 + jb2 + jc2 + 1, 2):
                        try:
                            lam = overlap_matrix(
                                HalfInt(ja2), HalfInt(jb2), HalfInt(jc2), HalfInt(J2)
                            )
                        except ValueError:
                            continue
                        if np.abs(lam @ lam.T - np.eye(lam.shape[0])).max() > 1e-10:
                            failures.append("overlap-matrix orthogonality")

    # trace norm vs eigenvalues
    rng = np.random.default_rng(56)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        herm = (a + a.conj().T) / 2
        direct = float(np.abs(np.linalg.eigvalsh(herm)).sum())
        if abs(trace_norm(herm) - direct) > 1e-10:
            failures.append("trace norm")
        if trace_norm(herm) < abs(np.trace(herm).real) - 1e-12:
            failures.append("trace norm lower bound")

    report(11, not failures, f"{len(failures)} violations" + (f": {failures[:3]}" if failures else ""))
