import math

import numpy as np
import pytest

import oracles
from qdl import angular
from qdl.angular import (
    BlockState,
    HalfInt,
    block_coefficient,
    block_state,
    clebsch_gordan,
    intermediate_couplings,
    jordan_overlap,
    multiplicity,
    overlap_matrix,
    recoupling_batch,
    triangle,
    wigner6j,
)


def spins_up_to(jmax2):
    return [HalfInt(t) for t in range(jmax2 + 1)]


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------


def test_cg_spin_half_ladder():
    # adding a spin 1/2 with m = +1/2: <j+1/2, m+1/2|j, m; 1/2, 1/2>
    for j2 in range(1, 8):
        for m2 in range(-j2, j2 + 1, 2):
            got = clebsch_gordan(
                HalfInt(j2), HalfInt(m2), HalfInt(1), HalfInt(1),
                HalfInt(j2 + 1), HalfInt(m2 + 1),
            )
            want = math.sqrt((j2 / 2 + m2 / 2 + 1) / (j2 + 1))
            assert got == pytest.approx(want, abs=1e-14)


def test_cg_singlet():
    got = clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0)
    assert abs(got) == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_cg_m_mismatch_returns_zero():
    assert clebsch_gordan(1, 1, 1, 1, 2, 1) == 0.0
    assert clebsch_gordan(1, 0, 0.5, 0.5, 2.5, 0.5) == 0.0  # triangle violation


def test_cg_orthogonality():
    # sum over m1, m2 of CG(.. J M) CG(.. J' M') = delta_JJ' delta_MM'
    for j1_2, j2_2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        couplings = [
            (J2, M2)
            for J2 in range(abs(j1_2 - j2_2), j1_2 + j2_2 + 1, 2)
            for M2 in range(-J2, J2 + 1, 2)
        ]
        for Ja, Ma in couplings:
            for Jb, Mb in couplings:
                tot = 0.0
                for m1 in range(-j1_2, j1_2 + 1, 2):
                    for m2 in range(-j2_2, j2_2 + 1, 2):
                        tot += clebsch_gordan(
                            HalfInt(j1_2), HalfInt(m1), HalfInt(j2_2), HalfInt(m2),
                            HalfInt(Ja), HalfInt(Ma),
                        ) * clebsch_gordan(
                            HalfInt(j1_2), HalfInt(m1), HalfInt(j2_2), HalfInt(m2),
                            HalfInt(Jb), HalfInt(Mb),
                        )
                want = 1.0 if (Ja, Ma) == (Jb, Mb) else 0.0
                assert tot == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# 6j symbols
# ---------------------------------------------------------------------------


def test_wigner6j_triangle_violation_zero():
    assert wigner6j(1, 1, 3, 1, 1, 1) == 0.0
    assert wigner6j(0.5, 0.5, 0.5, 0.5, 0.5, 0.5) == 0.0  # parity violation


def test_wigner6j_known_values():
    # closed forms for a vanishing argument: {a b c; 0 c b} with the phase
    # (-1)^(a+b+c) / sqrt((2b+1)(2c+1))
    for a2, b2, c2 in [(2, 2, 2), (1, 1, 2), (3, 1, 2), (4, 2, 4)]:
        if not triangle(HalfInt(a2), HalfInt(b2), HalfInt(c2)):
            continue
        got = wigner6j(HalfInt(a2), HalfInt(b2), HalfInt(c2), HalfInt(0), HalfInt(c2), HalfInt(b2))
        phase = (-1.0) ** ((a2 + b2 + c2) // 2)
        want = phase / math.sqrt((b2 + 1) * (c2 + 1))
        assert got == pytest.approx(want, abs=1e-13)


def test_wigner6j_tetrahedral_symmetries():
    rng = np.random.default_rng(8)
    for _ in range(40):
        args2 = rng.integers(0, 7, size=6)
        a, b, c, d, e, f = (HalfInt(int(t)) for t in args2)
        base = wigner6j(a, b, c, d, e, f)
        # column permutations
        assert wigner6j(b, a, c, e, d, f) == pytest.approx(base, abs=1e-12)
        assert wigner6j(c, b, a, f, e, d) == pytest.approx(base, abs=1e-12)
        assert wigner6j(a, c, b, d, f, e) == pytest.approx(base, abs=1e-12)
        # swap upper and lower pairs in two columns
        assert wigner6j(d, e, c, a, b, f) == pytest.approx(base, abs=1e-12)
        assert wigner6j(d, b, f, a, e, c) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("spin2", [200, 400])
def test_wigner6j_matches_exact_at_large_spin(spin2):
    # {j j j; j j j} at j = 100 and 200, where a float Racah sum fails
    h = HalfInt(spin2)
    want = oracles.wigner6j_exact(*(spin2,) * 6)
    assert wigner6j(h, h, h, h, h, h) == pytest.approx(want, rel=1e-12)


def test_totally_symmetric_overlap_is_one():
    # the subspace of maximal total momentum is coupling-order independent
    for n, nprime in [(1, 1), (2, 3), (4, 1)]:
        lam = overlap_matrix(
            HalfInt(n), HalfInt(nprime), HalfInt(n), HalfInt(2 * n + nprime)
        )
        assert lam.shape == (1, 1)
        assert lam[0, 0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------


def test_multiplicity_examples():
    assert [multiplicity(4, j) for j in (2, 1, 0)] == [1, 3, 2]
    assert [multiplicity(2, j) for j in (1, 0)] == [1, 1]
    for n in range(1, 12):
        assert multiplicity(n, n / 2) == 1


def test_multiplicity_parity_error():
    with pytest.raises(ValueError, match="parity"):
        multiplicity(4, 0.5)


def test_multiplicity_dimension_identity():
    for n in range(1, 21):
        total = sum(
            multiplicity(n, HalfInt(j2)) * (j2 + 1) for j2 in range(n % 2, n + 1, 2)
        )
        assert total == 2**n


def test_multiplicity_counts_nonnegative_walks():
    # dynamic-programming count of never-negative paths of n half steps
    for n in range(1, 15):
        walks = {0: 1}
        for _ in range(n):
            new = {}
            for pos2, cnt in walks.items():
                for step in (1, -1):
                    t = pos2 + step
                    if t >= 0:
                        new[t] = new.get(t, 0) + cnt
            walks = new
        for j2 in range(n % 2, n + 1, 2):
            assert walks[j2] == multiplicity(n, HalfInt(j2))


# ---------------------------------------------------------------------------
# block coefficients
# ---------------------------------------------------------------------------


def test_block_coefficient_pure_state():
    for n in range(1, 9):
        assert block_coefficient(n, n / 2, 1.0) == pytest.approx(1 / (n + 1))
        for j2 in range(n % 2, n - 1, 2):
            assert block_coefficient(n, HalfInt(j2), 1.0) == 0.0


def test_block_coefficient_two_copies_hand_value():
    # direct expansion for two copies: the symmetric-block trace is
    # t = ((1+r)/2)^3 - ((1-r)/2)^3 over r = (3 + r^2)/4, divided by 3;
    # faint purities, where that difference cancels, included
    for r in (1e-300, 1e-8, 0.2, 0.5, 0.9):
        want = (3 + r * r) / 12
        assert block_coefficient(2, 1, r) == pytest.approx(want, abs=1e-14)


def test_block_coefficient_normalization():
    for n in range(1, 13):
        for r in (0.0, 0.3, 0.7, 1.0):
            total = sum(
                multiplicity(n, HalfInt(j2)) * (j2 + 1) * block_coefficient(n, HalfInt(j2), r)
                for j2 in range(n % 2, n + 1, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_block_coefficient_range_error():
    with pytest.raises(ValueError, match="purity"):
        block_coefficient(2, 1, 1.2)


# ---------------------------------------------------------------------------
# Jordan overlaps
# ---------------------------------------------------------------------------


def test_jordan_overlap_examples():
    for n in range(1, 8):
        assert jordan_overlap(n, 2, n) == 1.0
    assert jordan_overlap(1, 1, 0) == pytest.approx(0.5)
    assert jordan_overlap(2, 1, 0) == pytest.approx(1 / 3)


def test_jordan_overlap_monotone_and_range_error():
    for n, nprime in [(4, 3), (6, 1)]:
        vals = [jordan_overlap(n, nprime, k) for k in range(n + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        jordan_overlap(3, 1, 4)


def test_jordan_overlap_matches_6j_construction():
    # the overlap in sector J = nprime/2 + k equals the rescaled 6j symbol
    # (up to the overall coupling phase, which downstream consumers never see)
    for n in range(1, 7):
        for nprime in range(1, 7):
            for k in range(n + 1):
                J2 = nprime + 2 * k
                jab2 = n + nprime
                six = wigner6j(
                    HalfInt(n), HalfInt(nprime), HalfInt(jab2),
                    HalfInt(n), HalfInt(J2), HalfInt(jab2),
                )
                got = abs((jab2 + 1) * six)
                want = jordan_overlap(n, nprime, k)
                assert got == pytest.approx(want, abs=1e-12)


def test_jordan_overlap_log_space_branch():
    # large loads exercise the log-gamma path; compare to exact integers
    from fractions import Fraction

    n, nprime, k = 50, 40, 17
    want = float(Fraction(math.comb(n, k), math.comb(n + nprime, n - k)))
    assert jordan_overlap(n, nprime, k) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# overlap matrices
# ---------------------------------------------------------------------------


def test_overlap_matrix_spin_half_values():
    lam = overlap_matrix(0.5, 0.5, 0.5, 0.5)
    want = np.array([[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
    assert np.abs(lam - want).max() < 1e-12
    lam32 = overlap_matrix(0.5, 0.5, 0.5, 1.5)
    assert np.allclose(lam32, [[1.0]])


def test_overlap_matrix_orthogonality_exhaustive():
    for n in range(1, 5):
        for nprime in range(1, 5):
            for ja2 in range(n % 2, n + 1, 2):
                for jb2 in range(nprime % 2, nprime + 1, 2):
                    for jc2 in range(n % 2, n + 1, 2):
                        jmax2 = ja2 + jb2 + jc2
                        for J2 in range(jmax2 % 2, jmax2 + 1, 2):
                            jab, jbc = intermediate_couplings(
                                HalfInt(ja2), HalfInt(jb2), HalfInt(jc2), HalfInt(J2)
                            )
                            if not jab or not jbc:
                                continue
                            assert len(jab) == len(jbc)
                            lam = overlap_matrix(
                                HalfInt(ja2), HalfInt(jb2), HalfInt(jc2), HalfInt(J2)
                            )
                            assert np.abs(lam @ lam.T - np.eye(len(jab))).max() < 1e-10


def _sectors(jmax2):
    """Every (2ja, 2jb, 2jc, 2J) up to jmax2 with a nonempty sector."""
    for ja2 in range(jmax2 + 1):
        for jb2 in range(jmax2 + 1):
            for jc2 in range(jmax2 + 1):
                for j2 in range((ja2 + jb2 + jc2) % 2, jmax2 + 1, 2):
                    jab, _ = intermediate_couplings(
                        HalfInt(ja2), HalfInt(jb2), HalfInt(jc2), HalfInt(j2)
                    )
                    if jab:
                        yield ja2, jb2, jc2, j2


def test_overlap_matrix_matches_exact_6j_small_spins():
    # signs included, against exact rational 6j symbols, every sector with
    # all four spins up to 6
    count = 0
    for ja2, jb2, jc2, j2 in _sectors(12):
        lam = overlap_matrix(HalfInt(ja2), HalfInt(jb2), HalfInt(jc2), HalfInt(j2))
        want = oracles.overlap_matrix_exact(ja2, jb2, jc2, j2)[::-1, ::-1]
        assert np.abs(lam - want).max() <= 1e-13, (ja2, jb2, jc2, j2)
        count += 1
    assert count > 10000


def test_overlap_matrix_matches_exact_6j_large_spins():
    # random sectors with spins up to 2j = 400, and the sector of largest
    # dimension there (all four spins 200), where a floating-point Racah sum
    # has lost every digit
    rng = np.random.default_rng(20)
    sectors = [(400, 400, 400, 400)]
    while len(sectors) < 10:
        ja2, jb2, jc2, j2 = (int(t) for t in rng.integers(0, 401, size=4))
        lo = max(abs(ja2 - jb2), abs(j2 - jc2))
        hi = min(ja2 + jb2, j2 + jc2)
        if (ja2 + jb2 + jc2 + j2) % 2 == 0 and lo <= hi and (hi - lo) // 2 < 30:
            sectors.append((ja2, jb2, jc2, j2))
    for ja2, jb2, jc2, j2 in sectors:
        lam = overlap_matrix(HalfInt(ja2), HalfInt(jb2), HalfInt(jc2), HalfInt(j2))
        dim = lam.shape[0]
        assert np.abs(lam @ lam.T - np.eye(dim)).max() <= 1e-12
        assert np.abs(lam.T @ lam - np.eye(dim)).max() <= 1e-12
        if dim <= 30:
            want = oracles.overlap_matrix_exact(ja2, jb2, jc2, j2)[::-1, ::-1]
            assert np.abs(lam - want).max() <= 1e-12, (ja2, jb2, jc2, j2)
        else:
            # the largest sector: its first and last two rows and columns,
            # which hold the stretched and classically forbidden entries,
            # and a random sample of the rest
            rows = np.r_[0, 1, dim - 2, dim - 1, rng.integers(0, dim, 20)]
            cols = np.r_[0, 1, dim - 2, dim - 1, rng.integers(0, dim, 20)]
            x_top = min(ja2 + jb2, j2 + jc2)
            y_top = min(jb2 + jc2, ja2 + j2)
            phase = -1.0 if ((ja2 + jb2 + jc2 + j2) // 2) % 2 else 1.0
            for a in rows:
                for b in cols:
                    x2, y2 = x_top - 2 * int(a), y_top - 2 * int(b)
                    want = (
                        phase
                        * math.sqrt((x2 + 1) * (y2 + 1))
                        * oracles.wigner6j_exact(ja2, jb2, x2, jc2, j2, y2)
                    )
                    assert abs(lam[a, b] - want) <= 1e-12, (x2, y2)


def test_recoupling_operator_eigenvalues_are_jbc_squared():
    # 4 J_bc^2 in the j_ab basis has the eigenvalues 2j_bc (2j_bc + 2), and
    # the batched eigenvectors diagonalize it with columns in ascending j_bc
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 7, 30):
        picked = []
        while len(picked) < 6:
            ja2, jb2, jc2, j2 = (int(t) for t in rng.integers(0, 121, size=4))
            lo = max(abs(ja2 - jb2), abs(j2 - jc2))
            hi = min(ja2 + jb2, j2 + jc2)
            if (ja2 + jb2 + jc2 + j2) % 2 == 0 and (hi - lo) // 2 + 1 == dim:
                picked.append((ja2, jb2, jc2, j2))
        ja2, jb2, jc2, j2 = (np.array(col) for col in zip(*picked))
        diag, off = angular._recoupling_tridiagonal(ja2, jb2, jc2, j2, dim)
        t = np.zeros((len(picked), dim, dim))
        k = np.arange(dim)
        t[:, k, k] = diag
        t[:, k[1:], k[:-1]] = off
        t[:, k[:-1], k[1:]] = off
        y2 = np.maximum(np.abs(jb2 - jc2), np.abs(ja2 - j2))[:, None] + 2 * k
        want = y2 * (y2 + 2.0)
        scale = want.max(axis=1, keepdims=True)
        assert np.abs(np.linalg.eigvalsh(t) - want).max() <= 1e-13 * scale.max()
        lam = recoupling_batch(ja2, jb2, jc2, j2, dim)
        got = lam.transpose(0, 2, 1) @ t @ lam
        assert np.abs(got - want[:, :, None] * np.eye(dim)).max() <= 1e-13 * scale.max()


def test_recoupling_operator_scalar_row():
    # ja = jb puts j_ab = 0 in the basis (and forces J = jc); its diagonal
    # entry is jb(jb+1) + jc(jc+1), scaled by 4
    for jb2, jc2 in [(1, 1), (2, 5), (7, 3), (40, 40)]:
        dim = min(jb2, jc2) + 1
        diag, _ = angular._recoupling_tridiagonal([jb2], [jb2], [jc2], [jc2], dim)
        assert diag[0, 0] == jb2 * (jb2 + 2) + jc2 * (jc2 + 2)


def test_overlap_matrix_empty_sector_raises():
    with pytest.raises(ValueError, match="empty"):
        overlap_matrix(0.5, 0.5, 0.5, 2.5)


# ---------------------------------------------------------------------------
# block states
# ---------------------------------------------------------------------------


def test_block_state_traces():
    for n in (1, 3, 6):
        for r in (0.0, 0.5, 1.0):
            bs = block_state(n, r)
            assert isinstance(bs, BlockState)
            assert bs.total_trace() == pytest.approx(1.0, abs=1e-9)
            dims = sum(nu * b.shape[0] for _, nu, b in bs.blocks)
            assert dims == 2**n


def test_block_state_reproduces_tensor_power():
    # assemble the z-aligned blocks in the sequential-coupling basis and
    # compare entrywise with the explicit kron power
    for n in (2, 3, 4, 6):
        for r in (0.35, 0.8):
            rho = np.diag([(1 + r) / 2, (1 - r) / 2])
            dense = rho.copy()
            for _ in range(n - 1):
                dense = np.kron(dense, rho)
            basis = oracles.coupled_path_basis(n)
            bs = block_state(n, r)
            weights = {j.twice: np.diag(b).real for j, _, b in bs.blocks}
            recon = np.zeros((2**n, 2**n))
            for (j2, _), vecs in basis.items():
                for m2, vec in vecs.items():
                    w = weights[j2][(m2 + j2) // 2]
                    recon += w * np.outer(vec, vec)
            assert np.abs(recon - dense).max() < 1e-10
