"""Brute-force reference constructions shared by the test modules.

Everything here works in full 2^n-dimensional computational bases with no
block shortcuts, so it is slow but structurally independent of the library
paths it cross-checks.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from qdl.angular import (
    HalfInt,
    _eigenvectors,
    _recoupling_tridiagonal,
    _twice,
    check_spin,
    multiplicity,
    multiplicity_table,
    wigner_d,
)
from qdl.learning import (
    _BARRIER_END,
    LmOptimum,
    SeedOperator,
    _conditional_factor,
    _gamma_coupled,
    block_probability,
    spin_z_expectation,
)
from qdl.linalg import (as_matrix, check_count, check_purity, herm_eigvals, pauli_matrices,
                        require_hermitian)
from qdl.reading import (
    _check_amplitude,
    _exp_remainder,
    _exp_terms,
    _prior_grid,
)

PSD_TOL = 1e-9
TRACE_TOL = 1e-9


def coupled_path_basis(n):
    """Total-spin basis of n qubits built by sequential coupling.

    Returns {(2j, path): {2m: vector}} where ``path`` is the tuple of doubled
    intermediate spins (one entry per qubit), enumerating every equivalent
    representation.  Vectors live in the 2^n computational basis with qubit 0
    as the most significant factor.
    """
    states = {(1, (1,)): {1: np.array([1.0, 0.0]), -1: np.array([0.0, 1.0])}}
    for k in range(1, n):
        new = {}
        for (j2, path), vecs in states.items():
            for jn2 in (j2 + 1, j2 - 1):
                if jn2 < 0:
                    continue
                out = {}
                for mn2 in range(-jn2, jn2 + 1, 2):
                    acc = np.zeros(2 ** (k + 1))
                    for s2, spin_vec in ((1, np.array([1.0, 0.0])), (-1, np.array([0.0, 1.0]))):
                        m2 = mn2 - s2
                        if abs(m2) > j2 or m2 not in vecs:
                            continue
                        cg = clebsch_gordan_exact(j2, m2, 1, s2, jn2, mn2)
                        if cg != 0.0:
                            acc += cg * np.kron(vecs[m2], spin_vec)
                    out[mn2] = acc
                new[(jn2, path + (jn2,))] = out
        states = new
    return states


def isotypic_projectors(n):
    """{2j: projector onto all spin-j copies} in the 2^n computational basis."""
    basis = coupled_path_basis(n)
    out = {}
    for (j2, _), vecs in basis.items():
        proj = out.setdefault(j2, np.zeros((2**n, 2**n)))
        for v in vecs.values():
            proj += np.outer(v, v)
    return out


def direction_averaged_power(m, r):
    """Haar average of the m-fold tensor power of a purity-r qubit.

    Every spin-j isotypic component is a multiple of its projector, with the
    block coefficient of the library as weight; recomputed here from scratch
    via the diagonal magnetic weights.
    """
    projs = isotypic_projectors(m)
    out = np.zeros((2**m, 2**m))
    for j2, proj in projs.items():
        k = (m - j2) // 2
        if r == 0.0:
            coeff = 0.5**m
        else:
            t = (((1 + r) / 2) ** (j2 + 1) - ((1 - r) / 2) ** (j2 + 1)) / r
            coeff = ((1 - r * r) / 4.0) ** k * t / (j2 + 1)
        out += coeff * proj
    return out


def symmetric_projector(m):
    """Projector onto the fully symmetric subspace of m qubits."""
    return isotypic_projectors(m)[m]


def trace_norm_dense(a):
    return float(np.abs(np.linalg.eigvalsh((a + a.conj().T) / 2)).sum())


def programmable_mixed_error_dense(n, nprime, r):
    """Minimum error of the programmable machine from the full 2^(2n+n')
    construction.  The hypothesis states are kron products of direction
    averages on the contiguous blocks (A union B, C) and (A, B union C)."""
    big = direction_averaged_power(n + nprime, r)
    small = direction_averaged_power(n, r)
    sigma1 = np.kron(big, small)
    sigma2 = np.kron(small, big)
    return (1.0 - 0.5 * trace_norm_dense(sigma1 - sigma2)) / 2.0


def all_sectors(n, nprime):
    """Every (ja, jb, jc, J) sector of the block sums with n copies at the
    outer ports and nprime in the middle, as arrays of doubled spins
    (ja2, jb2, jc2, j2), with each sector's number of intermediate momenta
    and its weight nu_a nu_b nu_c (2J + 1)."""
    nu_n = np.array(multiplicity_table(n), dtype=float)
    nu_p = np.array(multiplicity_table(nprime), dtype=float)
    spins_n, spins_p = range(n % 2, n + 1, 2), range(nprime % 2, nprime + 1, 2)
    ja2, jb2, jc2 = (g.ravel() for g in np.meshgrid(spins_n, spins_p, spins_n, indexing="ij"))
    nu3 = nu_n[ja2] * nu_p[jb2] * nu_n[jc2]
    j_lo = np.maximum.reduce(
        [np.abs(ja2 - jb2) - jc2, jc2 - ja2 - jb2, (ja2 + jb2 + jc2) % 2]
    )
    count = (ja2 + jb2 + jc2 - j_lo) // 2 + 1
    triple = np.repeat(np.arange(len(ja2)), count)
    j2 = j_lo[triple] + 2 * (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count))
    ja2, jb2, jc2 = ja2[triple], jb2[triple], jc2[triple]
    x_lo = np.maximum(np.abs(ja2 - jb2), np.abs(j2 - jc2))
    dims = (np.minimum(ja2 + jb2, j2 + jc2) - x_lo) // 2 + 1
    return ja2, jb2, jc2, j2, dims, nu3[triple] * (j2 + 1)


def recoupling_dense(ja2, jb2, jc2, j2, dim):
    """``recoupling_batch`` by LAPACK's dense symmetric eigensolver on the
    same operator 4 J_bc^2, for matrices of distinct eigenvalues, so again
    fixed up to column signs."""
    diag, off = _recoupling_tridiagonal(ja2, jb2, jc2, j2, dim)
    t = np.zeros((len(diag), dim, dim))
    k = np.arange(dim)
    t[:, k, k] = diag
    t[:, k[1:], k[:-1]] = off
    t[:, k[:-1], k[1:]] = off
    return np.linalg.eigh(t)[1]


def block_error_all_sectors(n, nprime, coeff_n, coeff_t):
    """The block sum of ``programmable._block_error`` over every
    (ja, jb, jc, J) sector: no ja <-> jc fold, no pruning, each dimension
    group in one batch, and each Lambda from ``recoupling_dense``."""
    ja2, jb2, jc2, j2, dims, gamma = all_sectors(n, nprime)
    x_lo = np.maximum(np.abs(ja2 - jb2), np.abs(j2 - jc2))
    y_lo = np.maximum(np.abs(jb2 - jc2), np.abs(ja2 - j2))
    total = 0.0
    for dim in np.unique(dims):
        sel = dims == dim
        idx = np.arange(dim)
        s1 = coeff_t[x_lo[sel][:, None] + 2 * idx] * coeff_n[jc2[sel]][:, None]
        s2 = coeff_n[ja2[sel]][:, None] * coeff_t[y_lo[sel][:, None] + 2 * idx]
        lam = recoupling_dense(ja2[sel], jb2[sel], jc2[sel], j2[sel], int(dim))
        m = -(lam * s2[:, None, :]) @ lam.transpose(0, 2, 1)
        m[:, idx, idx] += s1
        w = np.linalg.eigvalsh(m)
        total += float(gamma[sel] @ np.abs(w).sum(axis=1))
    return (1.0 - total / 2.0) / 2.0


def symmetric_limit_lan(r: float, max_n: int = 400) -> float:
    """lim n Pe of the programmable machine with n copies at every port and
    purity r > 0, from local asymptotic normality.

    Each port's spin block is a thermal oscillator state of ratio
    mu = (1 - r)/(1 + r) displaced by sqrt(j/2) theta, with j ~ n r/2.
    Removing the common displacement leaves two modes: one is undisplaced
    under the first hypothesis, the other, turned 60 degrees from it, under
    the second, and the rest is averaged flat.  Per total photon number N
    the two states are diag(s) and d^(N/2)(2 pi/3) diag(s) d^(N/2)(2 pi/3)^T
    with s_k = (1 - mu) mu^k, so the limit is 3 K / (4 r) with
    K = sum_N (1 - mu^(N+1) - ||difference||_1 / 2).  At r = 1 this is the
    pure-state 3 zeta(1/4) / 4.

    The terms fall geometrically, and the sum stops at the first N > 3 whose
    term is within (N + 1) eps of zero, the rounding floor of its
    (N + 1)-eigenvalue trace norm: below it a term carries no digit, and the
    tail left out is about a third of it.  A purity that needs more than
    ``max_n`` photon numbers raises a ValueError.
    """
    mu = (1.0 - r) / (1.0 + r)
    k_sum = 0.0
    for big_n in range(max_n + 1):
        s = (1.0 - mu) * mu ** np.arange(big_n + 1)
        d = wigner_d(HalfInt(big_n), 2.0 * math.pi / 3.0)
        m = np.diag(s) - (d * s) @ d.T
        term = 1.0 - mu ** (big_n + 1) - 0.5 * float(np.abs(np.linalg.eigvalsh(m)).sum())
        k_sum += term
        if big_n > 3 and abs(term) <= (big_n + 1) * np.finfo(float).eps:
            return 0.75 * k_sum / r
    raise ValueError(f"r={r!r}: the LAN sum has not converged by N = {max_n}")


def programmable_pe_dense(na, nb, nc):
    """Pure-state minimum error for arbitrary port loads from dense
    symmetric-subspace projectors."""
    d1 = (na + nb + 1) * (nc + 1)
    d2 = (na + 1) * (nb + nc + 1)
    sigma1 = np.kron(symmetric_projector(na + nb), symmetric_projector(nc)) / d1
    sigma2 = np.kron(symmetric_projector(na), symmetric_projector(nb + nc)) / d2
    return (1.0 - 0.5 * trace_norm_dense(sigma1 - sigma2)) / 2.0


def pure_pe_exact(n: int, nprime: int, dps: int = 50) -> float:
    """Pure-state minimum error of the symmetric machine, the Jordan-sector
    sum (1 - sum_k p_k sqrt(1 - c_k^2)) / 2 in mpmath at dps digits: sector k
    has weight p_k = (nprime + 2k + 1) / ((n + 1)(n + nprime + 1)) and
    overlap c_k = C(n, k) / C(n + nprime, n - k), both from exact integers."""
    # imported here: bench/checks.py loads this module, and mpmath at the top
    # would add about 4 MiB to the benchmark's peak RSS
    import mpmath

    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for k in range(n + 1):
            c = mpmath.mpf(math.comb(n, k)) / math.comb(n + nprime, n - k)
            total += (nprime + 2 * k + 1) * mpmath.sqrt(1 - c * c)
        return float((1 - total / ((n + 1) * (n + nprime + 1))) / 2)


def general_rates_binomial(na, nb, nc):
    """(Q, Pe) of the pure-state machine at port load (na, nb, nc), each
    sector's squared overlap the ratio of four binomials of its own.  Q is
    in the library's order of operations, so general_rates must match it bit
    for bit; Pe is a 50-digit sum of the sector errors dim (a + b - sqrt((a -
    b)^2 + 4 a b (1 - c^2))) / 2, a = 1 / (2 d1) and b = 1 / (2 d2), the
    Helstrom errors of the two sector states."""
    import mpmath

    if na < nc:
        na, nc = nc, na
    d1 = (na + nb + 1) * (nc + 1)
    d2 = (na + 1) * (nb + nc + 1)
    den = math.comb(na + nb, nb) * math.comb(nc + nb, nb)
    q = 0.5 * (1 / math.sqrt(d1) - 1 / math.sqrt(d2)) ** 2 * (na + nb + nc + 1)
    with mpmath.workdps(50):
        a, b, pe = mpmath.mpf(1) / (2 * d1), mpmath.mpf(1) / (2 * d2), mpmath.mpf(0)
        for k in range(nc + 1):
            num = math.comb(na + nb - nc + k, nb) * math.comb(nb + k, nb)
            dim_j = na + nb - nc + 2 * k + 1
            q += dim_j * math.sqrt(num / den) / math.sqrt(d1 * d2)
            pe += dim_j * (a + b - mpmath.sqrt((a - b) ** 2 + 4 * a * b * (den - num) / den)) / 2
        return q, float(pe)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_povm(rng, dim, outcomes):
    """Random POVM via normalizing Wishart factors."""
    gs = []
    for _ in range(outcomes):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gs.append(a @ a.conj().T)
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ g @ inv_sqrt for g in gs]


def phase1_simplex_reference(cols, b, cost, basis, binv):
    """The pivot loop of ``povmdec._phase1_simplex`` written with the numpy
    wrappers: np.outer for the eta update, a fresh ratio array per pivot.
    Same arguments, same in-place updates of basis and binv, same result;
    the library loop must match it bit for bit."""
    zero = 1e-10
    m, ncol = cols.shape
    barred = cost > 0.0
    barred[ncol - m:] = False
    closed = barred.copy()
    closed[basis] = True
    bland = False
    last_obj = math.inf
    stall = 0
    for step in range(1, 500 * ncol + 1):
        cb = cost[basis]
        gain = (cb @ binv) @ cols - cost
        gain[closed] = 0.0
        entering = int(np.argmax(gain > zero) if bland else np.argmax(gain))
        if gain[entering] <= zero:
            bmat = cols[:, basis]
            xb = np.maximum(np.linalg.solve(bmat, b), 0.0)
            if cb @ xb > 1e-8:
                return None, np.linalg.solve(bmat.T, cb)
            x = np.zeros(ncol)
            x[basis] = xb
            return x, None
        xb = np.maximum(binv @ b, 0.0)
        direction = binv @ cols[:, entering]
        ratios = np.full(m, math.inf)
        np.divide(xb, direction, out=ratios, where=direction > zero)
        best = ratios.min()
        if best == math.inf:
            raise RuntimeError("unbounded feasibility subproblem")
        tied = np.flatnonzero(ratios <= best + 1e-12)
        leave = tied[np.argmin(basis[tied])]
        obj = float(cb @ xb)
        stall = stall + 1 if obj >= last_obj - 1e-13 else 0
        bland = bland or stall > m + 10
        last_obj = obj
        closed[basis[leave]] = barred[basis[leave]]
        closed[entering] = True
        basis[leave] = entering
        row = binv[leave] / direction[leave]
        binv -= np.outer(direction, row)
        binv[leave] = row
        if step % m == 0:
            binv[:] = np.linalg.inv(cols[:, basis])
    raise RuntimeError("simplex iteration limit exceeded")


def cg_matrix(j2: int, up_first: bool) -> np.ndarray:
    """Isometry from the spin-(j+1/2) subspace of C^2 (x) S_j (or S_j (x) C^2)
    into the product basis."""
    dim_in = j2 + 2
    rows = []
    for m_tot2 in range(j2 + 1, -j2 - 2, -2):
        col = np.zeros(2 * (j2 + 1))
        for s2, spin_idx in ((1, 0), (-1, 1)):
            m2 = m_tot2 - s2
            if abs(m2) > j2:
                continue
            cg = clebsch_gordan_exact(1, s2, j2, m2, j2 + 1, m_tot2)
            j_idx = (j2 - m2) // 2
            idx = spin_idx * (j2 + 1) + j_idx if up_first else j_idx * 2 + spin_idx
            col[idx] = cg
        rows.append(col)
    v = np.array(rows).T  # (2(j2+1), dim_in)
    assert v.shape[1] == dim_in
    return v


def sym_projector(j2: int, up_first: bool) -> np.ndarray:
    v = cg_matrix(j2, up_first)
    return v @ v.T


def sigma_pair(r: float, j2: int):
    """Conditional three-part averages and the pure-state pair they must be
    proportional to, all on S_j (x) C^2 (x) S_j, with the proportionality
    factor r <J_z>/j."""
    dj = j2 + 1
    dj1 = j2 + 2
    jz = spin_z_expectation(HalfInt(j2), r)
    j = j2 / 2.0
    p_ab = sym_projector(j2, up_first=False)  # on S_j (x) C^2
    p_bc = sym_projector(j2, up_first=True)  # on C^2 (x) S_j
    eye_j = np.eye(dj)
    eye_2 = np.eye(2)
    sigma0 = np.kron(
        (r * jz / j) * p_ab / dj1 + ((j - r * jz) / j) * np.kron(eye_j / dj, eye_2 / 2),
        eye_j / dj,
    )
    sigma1 = np.kron(
        eye_j / dj,
        (r * jz / j) * p_bc / dj1 + ((j - r * jz) / j) * np.kron(eye_2 / 2, eye_j / dj),
    )
    pure0 = np.kron(p_ab / dj1, eye_j / dj)
    pure1 = np.kron(eye_j / dj, p_bc / dj1)
    return sigma0, sigma1, pure0, pure1, r * jz / j


def gamma_up(n: int, r: float, ja, jc) -> np.ndarray:
    """Conditional training-set operator after an up outcome on the data
    qubit, in the (ja, jc) sector: (f_a Jz_a - f_c Jz_c) / (2 (2ja+1) (2jc+1)).

    The operator is diagonal in the product magnetic basis; the returned
    array holds its diagonal values on the (m_a, m_c) grid.  At r = 1 and
    maximal spins it reduces to (Jz_a - Jz_c) / ((n+1)^2 (n+2)).  The
    product-basis reference of ``learning._gamma_coupled``.
    """
    n = check_count("n", n)
    r = check_purity(r, zero=False)
    ja2, jc2 = check_spin("ja", ja, n), check_spin("jc", jc, n)
    side_a = _conditional_factor(ja2, r) * np.arange(-ja2, ja2 + 1, 2) / 2.0
    side_c = _conditional_factor(jc2, r) * np.arange(-jc2, jc2 + 1, 2) / 2.0
    return (side_a[:, None] - side_c[None, :]) / (2.0 * (ja2 + 1) * (jc2 + 1))


def _gamma_up_slices(n: int, r: float):
    """Yield ((2ja, 2jc, 2m), g, C) for every slice of every sector of n
    copies: g is the product-basis diagonal of ``gamma_up`` on the slice
    m_a + m_c = m, over ascending m_a, and C the Clebsch-Gordan slice from it
    to the coupled states |J m>, J ascending (one batched call for all)."""
    spins = range(n % 2, n + 1, 2)
    grids = {(a, c): gamma_up(n, r, HalfInt(a), HalfInt(c)) for a in spins for c in spins}
    keys = [(a, c, m2) for a, c in grids for m2 in range(-(a + c), a + c + 1, 2)]
    for (ja2, jc2, m2), c in zip(keys, clebsch_gordan_slices(keys)):
        ma2 = np.arange(max(-ja2, m2 - jc2), min(ja2, m2 + jc2) + 1, 2)
        yield (ja2, jc2, m2), grids[(ja2, jc2)][(ma2 + ja2) // 2, (m2 - ma2 + jc2) // 2], c


def gamma_up_coupled(n: int, r: float) -> dict:
    """The product-basis ``gamma_up`` of every sector of n copies rotated into
    the coupled basis, C^T diag(g) C per slice, keyed by (2ja, 2jc, 2m)."""
    return {key: c.T @ (g[:, None] * c) for key, g, c in _gamma_up_slices(n, r)}


def seed_surrogate_product_basis(seed, r: float) -> float:
    """Half the trace-norm surrogate of a coupled-basis seed, evaluated in the
    product basis: the sum over sectors of p_a p_c sum_m tr(Gamma C X_m C^T)."""
    n = seed.n
    prob = {j2: block_probability(n, HalfInt(j2), r) for j2 in range(n % 2, n + 1, 2)}
    return sum(
        prob[key[0]] * prob[key[1]] * float(g @ np.diag(c @ seed.blocks[key] @ c.T))
        for key, g, c in _gamma_up_slices(n, r)
    )


def _solve_seed_sector(gammas, b):
    """Maximize sum_m tr(G_m X_m) over PSD X_m subject to
    sum_m (X_m)_jj = b_j = 2j + 1 in one sector, on its own barrier path, one
    magnetic block at a time: the log barrier, last barrier parameter, final
    centring and primal repair of ``learning._solve_sectors``, but with t grown
    tenfold, no predictor step, and centred to the rounding floor at every t,
    not only the last, so that it reaches the same optimum by an independent
    path.  Returns (dual value, primal value, primal blocks)."""
    offsets = [len(b) - len(g) for g in gammas]
    scale = max(np.abs(g).max() for g in gammas)
    if scale == 0.0:
        return 0.0, 0.0, [np.eye(len(g)) for g in gammas]
    gs = [g / scale for g in gammas]
    nu = sum(len(g) for g in gs)
    y = np.full(len(b), 2.0)
    t = 1.0
    while True:
        lam_prev = math.inf
        while True:
            grad, hess = t * b, np.zeros((len(b), len(b)))
            s_inv = []
            for k, g in zip(offsets, gs):
                l_inv = np.linalg.inv(np.linalg.cholesky(np.diag(y[k:]) - g))
                s_inv.append(l_inv.T @ l_inv)
                grad[k:] -= np.diag(s_inv[-1])
                hess[k:, k:] += s_inv[-1] * s_inv[-1]
            step = -np.linalg.solve(hess, grad)
            lam = math.sqrt(max(-float(grad @ step), 0.0))
            if lam >= 0.25:
                y += step / (1.0 + lam)
                continue
            if lam >= lam_prev / 2.0:
                break
            lam_prev = lam
            y += step
        if nu / t < _BARRIER_END:
            break
        t *= 10.0
    xs = [s / t for s in s_inv]
    occupation = np.zeros(len(b))
    for k, x in zip(offsets, xs):
        occupation[k:] += np.diag(x)
    d = np.sqrt(b / occupation)
    xs = [x * np.outer(d[k:], d[k:]) for k, x in zip(offsets, xs)]
    primal = sum(float(np.sum(g * x)) for g, x in zip(gs, xs))
    return scale * float(b @ y), scale * primal, xs


def seed_sdp_sectors(n: int, r: float) -> dict:
    """Every (ja, jc) sector of ``learning.lm_mixed_optimize``'s program, each
    on its own barrier path, from the library's conditional operators: maps
    (2ja, 2jc) to (dual value, primal value, {(2ja, 2jc, 2m): X_m})."""
    keys, g = _gamma_coupled(n, r)
    sectors = {}
    for (ja2, jc2, m2), gm in zip(keys, g):
        dim = (ja2 + jc2 - max(abs(ja2 - jc2), abs(m2))) // 2 + 1
        sectors.setdefault((ja2, jc2), {})[(ja2, jc2, m2)] = gm[len(gm) - dim:, len(gm) - dim:]
    solved = {}
    for (ja2, jc2), gammas in sectors.items():
        b = np.arange(abs(ja2 - jc2), ja2 + jc2 + 1, 2) + 1.0
        dual, primal, xs = _solve_seed_sector(list(gammas.values()), b)
        solved[ja2, jc2] = dual, primal, dict(zip(gammas, xs))
    return solved


def seed_sdp_per_sector(n: int, r: float) -> LmOptimum:
    """``learning.lm_mixed_optimize`` solved one (ja, jc) sector after another,
    each on its own barrier path.  As in the library, a sector (jc, ja) with
    ja < jc takes the values of its mirror (ja, jc) and the blocks
    X^(jc,ja)_m = X^(ja,jc)_-m, so each sector is compared with the solve the
    library makes for it."""
    sectors = seed_sdp_sectors(n, r)
    prob = {j2: block_probability(n, HalfInt(j2), r) for j2 in range(n % 2, n + 1, 2)}
    primal_total = dual_total = 0.0
    blocks = {}
    for (ja2, jc2), (_, _, own) in sectors.items():
        dual, primal, xs = sectors[min(ja2, jc2), max(ja2, jc2)]
        dual_total += prob[ja2] * prob[jc2] * dual
        primal_total += prob[ja2] * prob[jc2] * primal
        for m2 in (key[2] for key in own):
            blocks[ja2, jc2, m2] = xs[(ja2, jc2, m2) if ja2 <= jc2 else (jc2, ja2, -m2)]
    delta = 2.0 * primal_total
    return LmOptimum(
        delta_lm=delta, seed=SeedOperator(n=n, blocks=blocks), gap=2.0 * dual_total - delta
    )


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dims: tuple[int, int], keep: str = "first") -> np.ndarray:
    """Trace out one factor of a bipartite operator on ``dims[0] * dims[1]``.

    ``keep`` selects the surviving factor, ``"first"`` or ``"second"``.
    """
    a = as_matrix(m)
    d1, d2 = dims
    if d1 < 1 or d2 < 1 or a.shape != (d1 * d2, d1 * d2):
        raise ValueError(
            f"operator of dimension {a.shape[0]} does not factor as {d1}x{d2}"
        )
    t = a.reshape(d1, d2, d1, d2)
    if keep == "first":
        return np.einsum("ikjk->ij", t)
    if keep == "second":
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator.

    Eigenvalues in ``[-PSD_TOL, 0)`` are accepted as numerically zero at
    validation; the stored matrix is never altered.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = require_hermitian(self.matrix)
        object.__setattr__(self, "matrix", a)
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        w = np.linalg.eigvalsh(a)
        if w[0] < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return herm_eigvals(self.matrix)


def block_coefficient_exact(n: int, j2: int, r: float) -> Fraction:
    """Diagonal weight of the spin-j2/2 block of n qubits of purity r, in
    exact rational arithmetic on the float r: det(rho)^k times the
    symmetric-part trace (((1+r)/2)^J - ((1-r)/2)^J) / (r J), with
    k = (n - j2)/2 and J = j2 + 1."""
    r = Fraction(r)
    k, big_j = (n - j2) // 2, j2 + 1
    if r == 0:
        return Fraction(1, 2**n)
    sym = (((1 + r) / 2) ** big_j - ((1 - r) / 2) ** big_j) / (r * big_j)
    return ((1 - r) * (1 + r) / 4) ** k * sym


_fact = lru_cache(maxsize=None)(math.factorial)


def wigner6j_exact(a2, b2, c2, d2, e2, f2) -> float:
    """{a b c; d e f} from doubled spins, exact up to the final rounding.

    The Racah sum is evaluated in integers, nested from its last term
    (consecutive terms differ by a ratio of small integers), and kept as a
    Fraction; the symbol is the signed square root of one Fraction, the
    product of the four triangle coefficients with the squared sum.
    Triangle violations give 0.
    """
    triads = ((a2, b2, c2), (a2, e2, f2), (d2, b2, f2), (d2, e2, c2))
    for x, y, z in triads:
        if not (abs(x - y) <= z <= x + y and (x + y + z) % 2 == 0):
            return 0.0
    num = den = 1
    for x, y, z in triads:
        num *= _fact((x + y - z) // 2) * _fact((x - y + z) // 2) * _fact((y + z - x) // 2)
        den *= _fact((x + y + z) // 2 + 1)
    s = [(x + y + z) // 2 for x, y, z in triads]
    q = [(a2 + b2 + d2 + e2) // 2, (b2 + c2 + e2 + f2) // 2, (a2 + c2 + d2 + f2) // 2]
    z_lo, z_hi = max(s), min(q)
    # sum over z of (-1)^z (z+1)! / prod (z - s_i)! prod (q_i - z)!, as the
    # first term times 1 + rho_0 (1 + rho_1 (1 + ...)), rho_k = top/bottom
    top, bottom = 1, 1
    for z in range(z_hi - 1, z_lo - 1, -1):
        rise = (z + 2) * (q[0] - z) * (q[1] - z) * (q[2] - z)
        fall = (z + 1 - s[0]) * (z + 1 - s[1]) * (z + 1 - s[2]) * (z + 1 - s[3])
        top, bottom = fall * bottom - rise * top, fall * bottom
    first = 1
    for si in s:
        first *= _fact(z_lo - si)
    for qi in q:
        first *= _fact(qi - z_lo)
    racah = Fraction((-1) ** z_lo * _fact(z_lo + 1) * top, first * bottom)
    square = Fraction(num * racah.numerator**2, den * racah.denominator**2)
    return math.sqrt(square) if racah.numerator > 0 else -math.sqrt(square)


def clebsch_gordan_exact(j1_2, m1_2, j2_2, m2_2, j_2, m_2) -> float:
    """<j1 m1; j2 m2 | j m> from doubled spins, exact up to the final
    rounding.

    The Racah sum is evaluated in integers, nested from its last term
    (consecutive terms differ by a ratio of small integers), and the
    coefficient is the signed square root of one Fraction.  Selection-rule
    and triangle violations give 0.
    """
    if (
        m1_2 + m2_2 != m_2
        or not (abs(j1_2 - j2_2) <= j_2 <= j1_2 + j2_2 and (j1_2 + j2_2 + j_2) % 2 == 0)
        or abs(m1_2) > j1_2 or abs(m2_2) > j2_2 or abs(m_2) > j_2
        or (j1_2 + m1_2) % 2 or (j2_2 + m2_2) % 2
    ):
        return 0.0
    a, b, c = (j1_2 + j2_2 - j_2) // 2, (j1_2 - m1_2) // 2, (j2_2 + m2_2) // 2
    d, e = (j_2 - j2_2 + m1_2) // 2, (j_2 - j1_2 - m2_2) // 2
    z_lo, z_hi = max(0, -d, -e), min(a, b, c)
    # sum over z of (-1)^z / (z! (a-z)! (b-z)! (c-z)! (d+z)! (e+z)!), as the
    # first term times 1 + rho_0 (1 + rho_1 (1 + ...)), rho_z = -rise/fall
    top, bottom = 1, 1
    for z in range(z_hi - 1, z_lo - 1, -1):
        rise = (a - z) * (b - z) * (c - z)
        fall = (z + 1) * (d + z + 1) * (e + z + 1)
        top, bottom = fall * bottom - rise * top, fall * bottom
    first = 1
    for f in (z_lo, a - z_lo, b - z_lo, c - z_lo, d + z_lo, e + z_lo):
        first *= _fact(f)
    num = (j_2 + 1) * _fact(a) * _fact((j1_2 - j2_2 + j_2) // 2) * _fact((j2_2 - j1_2 + j_2) // 2)
    for f in ((j_2 + m_2) // 2, (j_2 - m_2) // 2, b, (j1_2 + m1_2) // 2, c, (j2_2 - m2_2) // 2):
        num *= _fact(f)
    square = Fraction(num * top**2, _fact((j1_2 + j2_2 + j_2) // 2 + 1) * (first * bottom) ** 2)
    return math.sqrt(square) if (top > 0) == (z_lo % 2 == 0) else -math.sqrt(square)


def overlap_matrix_exact(ja2, jb2, jc2, j2):
    """Recoupling matrix of one sector from :func:`wigner6j_exact`, rows over
    ascending j_ab and columns over ascending j_bc, Condon-Shortley signs."""
    xs = range(max(abs(ja2 - jb2), abs(j2 - jc2)), min(ja2 + jb2, j2 + jc2) + 1, 2)
    ys = range(max(abs(jb2 - jc2), abs(ja2 - j2)), min(jb2 + jc2, ja2 + j2) + 1, 2)
    phase = -1.0 if ((ja2 + jb2 + jc2 + j2) // 2) % 2 else 1.0
    return np.array(
        [
            [
                phase * math.sqrt((x + 1) * (y + 1)) * wigner6j_exact(ja2, jb2, x, jc2, j2, y)
                for y in ys
            ]
            for x in xs
        ]
    )


# ---------------------------------------------------------------------------
# signed Clebsch-Gordan and 6j readers: floats over the library's
# tridiagonal eigensolve, fast where the exact oracles above are too slow
# ---------------------------------------------------------------------------


def _triangle2(a2: int, b2: int, c2: int) -> bool:
    return (
        abs(a2 - b2) <= c2 <= a2 + b2
        and (a2 + b2 + c2) % 2 == 0
        and a2 >= 0
        and b2 >= 0
        and c2 >= 0
    )


def triangle(j1, j2, j3) -> bool:
    """Whether (j1, j2, j3) can couple: |j1-j2| <= j3 <= j1+j2 with parity."""
    return _triangle2(_twice(j1), _twice(j2), _twice(j3))


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """<j1 m1; j2 m2 | j m> in the Condon-Shortley convention, read from
    the slice :func:`clebsch_gordan_slices` returns for (j1, j2, m), and so
    as accurate as it at every spin.

    Returns 0 when the triangle condition or m = m1 + m2 fails, never an
    error.
    """
    j1_2, m1_2 = _twice(j1), _twice(m1)
    j2_2, m2_2 = _twice(j2), _twice(m2)
    j_2, m_2 = _twice(j), _twice(m)
    if m1_2 + m2_2 != m_2:
        return 0.0
    if not _triangle2(j1_2, j2_2, j_2):
        return 0.0
    if abs(m1_2) > j1_2 or abs(m2_2) > j2_2 or abs(m_2) > j_2:
        return 0.0
    if (j1_2 + m1_2) % 2 or (j2_2 + m2_2) % 2 or (j_2 + m_2) % 2:
        return 0.0
    (c,) = clebsch_gordan_slices([(j1_2, j2_2, m_2)])
    row = (m1_2 - max(-j1_2, m_2 - j2_2)) // 2
    col = (j_2 - max(abs(j1_2 - j2_2), abs(m_2))) // 2
    return float(c[row, col])


def clebsch_gordan_slices(slices) -> list:
    """Every Clebsch-Gordan coefficient of each (2ja, 2jc, 2m) slice in the
    list ``slices``, as one orthogonal matrix per slice.

    Entry [i, k] is <ja m_a; jc m - m_a | J m> with rows over ascending
    m_a = max(-ja, m - jc) + i and columns over ascending
    J = max(|ja - jc|, |m|) + k.  In the |m_a, m - m_a> basis the operator
    4 J^2 is symmetric tridiagonal: its diagonal is c(ja) + c(jc) +
    2 (2m_a)(2m_c), with c(t) = 2t (2t + 2), and rows m_a and m_a + 1 couple
    with the positive 4 <m_a + 1, m_c - 1| J_a+ J_c- |m_a, m_c>.  Column k is
    its eigenvector of eigenvalue c(J), signed so that the last row (m_a = ja
    or m_c = -jc, a stretched coupling) is positive.  Slices of equal
    dimension share one batched eigensolve; slices of dimension 1 hold 1.
    """
    out = [None] * len(slices)
    groups = {}
    for i, (ja2, jc2, m2) in enumerate(slices):
        if min(ja2, jc2) < 0 or abs(m2) > ja2 + jc2 or (ja2 + jc2 + m2) % 2:
            raise ValueError(f"no coupled states for ja={HalfInt(ja2)} jc={HalfInt(jc2)} "
                             f"m={HalfInt(m2)}")
        dim = (min(ja2, m2 + jc2) - max(-ja2, m2 - jc2)) // 2 + 1
        groups.setdefault(dim, []).append(i)
    for dim, idx in groups.items():
        if dim == 1:
            for i in idx:
                out[i] = np.ones((1, 1))
            continue
        ja2, jc2, m2 = (np.array(v, dtype=float)[:, None] for v in zip(*(slices[i] for i in idx)))
        ma2 = np.maximum(-ja2, m2 - jc2) + 2.0 * np.arange(dim)
        mc2 = m2 - ma2
        diag = ja2 * (ja2 + 2.0) + jc2 * (jc2 + 2.0) + 2.0 * ma2 * mc2
        a2, c2 = ma2[:, :-1], mc2[:, :-1]
        off = np.sqrt((ja2 - a2) * (ja2 + a2 + 2.0)) * np.sqrt((jc2 + c2) * (jc2 - c2 + 2.0))
        big_j2 = np.maximum(np.abs(ja2 - jc2), np.abs(m2)) + 2.0 * np.arange(dim)
        ev = big_j2 * (big_j2 + 2.0)
        vecs = _condon_shortley(_eigenvectors(diag, off, ev), diag, off, ev)
        for i, v in zip(idx, vecs):
            out[i] = v
    return out


def wigner6j(j1, j2, j12, j3, j, j23) -> float:
    """Wigner 6j symbol {j1 j2 j12; j3 j j23}, read from the recoupling
    matrix Lambda = overlap_matrix(j1, j2, j3, j), and so as accurate as it
    at every spin: (-1)^(j1+j2+j3+j) Lambda[j12, j23] / sqrt((2j12+1)(2j23+1)).

    Triangle violations on any of the four triads return 0.
    """
    a2, b2, c2 = _twice(j1), _twice(j2), _twice(j12)
    d2, e2, f2 = _twice(j3), _twice(j), _twice(j23)
    tri = (
        _triangle2(a2, b2, c2)
        and _triangle2(a2, e2, f2)
        and _triangle2(d2, b2, f2)
        and _triangle2(d2, e2, c2)
    )
    if not tri:
        return 0.0
    lam = overlap_matrix(j1, j2, j3, j)
    # rows and columns descend from the largest allowed j12 and j23
    row = (min(a2 + b2, d2 + e2) - c2) // 2
    col = (min(b2 + d2, a2 + e2) - f2) // 2
    phase = -1.0 if ((a2 + b2 + d2 + e2) // 2) % 2 else 1.0
    return phase * float(lam[row, col]) / math.sqrt((c2 + 1) * (f2 + 1))


def intermediate_couplings(ja, jb, jc, j) -> tuple[tuple, tuple]:
    """Allowed intermediate momenta (j_ab list, j_bc list) for total j,
    each in descending order.  The two lists always have equal length."""
    ja2, jb2, jc2, j2 = _twice(ja), _twice(jb), _twice(jc), _twice(j)
    jab = [
        HalfInt(x2)
        for x2 in range(ja2 + jb2, abs(ja2 - jb2) - 1, -2)
        if _triangle2(x2, jc2, j2)
    ]
    jbc = [
        HalfInt(x2)
        for x2 in range(jb2 + jc2, abs(jb2 - jc2) - 1, -2)
        if _triangle2(ja2, x2, j2)
    ]
    return tuple(jab), tuple(jbc)


def _condon_shortley(vecs, diag, off, ev) -> np.ndarray:
    """Sign each column of a stack of eigenvector matrices ``vecs``
    (B, dim, dim) of the symmetric tridiagonal matrices (``diag``,
    positive ``off``) so that its last row is positive; ``ev`` (B, dim)
    holds the exact eigenvalues, ascending.

    The last entry can underflow, so each column carries the sign down to
    its largest entry with the Sturm pivots of the eigenvalue equation,
    v[i] = v[i+1] g[i+1] / off[i] with g[i] = ev - diag[i] - off[i]^2 / g[i+1];
    a pivot rounding through zero flips the next pivot too, so the sign
    products stay right.
    """
    b, dim = diag.shape
    sign = np.ones((b, dim, dim))
    g = ev - diag[:, -1:]
    with np.errstate(divide="ignore"):
        for i in range(dim - 2, -1, -1):
            sign[:, i] = np.where(g < 0, -sign[:, i + 1], sign[:, i + 1])
            g = ev - diag[:, i : i + 1] - off[:, i : i + 1] ** 2 / g
    rows, cols = np.arange(b)[:, None], np.arange(dim)
    peak = np.argmax(np.abs(vecs), axis=1)
    return vecs * (sign[rows, peak, cols] * np.sign(vecs[rows, peak, cols]))[:, None, :]


def overlap_matrix(ja, jb, jc, j) -> np.ndarray:
    """Orthogonal change of basis between the (ab)c and a(bc) coupling
    schemes in the sector of total momentum j.

    Rows run over j_ab and columns over j_bc, both descending.  The sign
    convention is Condon-Shortley throughout: the top row (largest j_ab) is
    positive, since a stretched triad leaves one Racah term, of sign
    (-1)^(ja+jb+jc+J).
    """
    ja2, jb2, jc2, j2 = _twice(ja), _twice(jb), _twice(jc), _twice(j)
    jab, jbc = intermediate_couplings(ja, jb, jc, j)
    if not jab or not jbc:
        raise ValueError(
            f"empty coupling sector ja={HalfInt(ja2)} jb={HalfInt(jb2)} "
            f"jc={HalfInt(jc2)} J={HalfInt(j2)}"
        )
    diag, off = _recoupling_tridiagonal([ja2], [jb2], [jc2], [j2], len(jab))
    ev = np.array([[y.twice * (y.twice + 2.0) for y in reversed(jbc)]])
    lam = _condon_shortley(_eigenvectors(diag, off, ev), diag, off, ev)[0]
    return lam[::-1, ::-1].copy()


# ---------------------------------------------------------------------------
# block states and multicopy references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockState:
    """Block form of an n-fold tensor power of a qubit aligned with z.

    ``blocks`` holds (j, multiplicity, diagonal block matrix of dim 2j+1)
    triples; the total trace sum_j nu_j tr(block_j) is 1.
    """

    n_copies: int
    purity: float
    blocks: tuple

    def total_trace(self) -> float:
        return float(
            sum(nu * np.trace(b).real for _, nu, b in self.blocks)
        )


def block_state(n: int, r: float) -> BlockState:
    """Assemble the z-aligned block decomposition of the n-fold power of a
    qubit with purity r."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = check_purity(r)
    blocks = []
    for j2 in range(n % 2, n + 1, 2):
        nu = multiplicity(n, HalfInt(j2))
        k = (n - j2) // 2
        det = (1 - r * r) / 4
        # diagonal over m = -j..j: det^k * ((1-r)/2)^(j-m) ((1+r)/2)^(j+m)
        m2 = np.arange(-j2, j2 + 1, 2)
        diag = det**k * ((1 - r) / 2) ** ((j2 - m2) / 2) * ((1 + r) / 2) ** (
            (j2 + m2) / 2
        )
        blocks.append((HalfInt(j2), nu, np.diag(diag.astype(complex))))
    return BlockState(n_copies=n, purity=r, blocks=tuple(blocks))


def symmetric_power(m, order: int) -> np.ndarray:
    """Restriction of the order-fold tensor power of a one-qubit operator to
    the symmetric subspace, in the occupation basis (k excitations, k=0..order).

    Matrix elements are closed-form multinomial sums in the four entries of
    m, so no basis rotation is ever materialized.
    """
    a = as_matrix(m)
    if a.shape != (2, 2):
        raise ValueError("symmetric_power expects a one-qubit operator")
    n = order
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    out = np.empty((n + 1, n + 1), dtype=complex)
    logc = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in range(n + 1)]
    m00, m01, m10, m11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    for k in range(n + 1):
        for l in range(n + 1):
            tot = 0.0 + 0.0j
            for t in range(max(0, k + l - n), min(k, l) + 1):
                mult = math.exp(
                    math.lgamma(n + 1)
                    - math.lgamma(t + 1)
                    - math.lgamma(k - t + 1)
                    - math.lgamma(l - t + 1)
                    - math.lgamma(n - k - l + t + 1)
                )
                tot += (
                    mult
                    * m11**t
                    * m10 ** (k - t)
                    * m01 ** (l - t)
                    * m00 ** (n - k - l + t)
                )
            out[k, l] = tot * math.exp(-(logc[k] + logc[l]) / 2)
    return out


@lru_cache(maxsize=1024)
def _symmetric_block(purity: float, angle: float, j2: int) -> np.ndarray:
    """Symmetric power of order j2 of the qubit state of the given purity
    whose Bloch vector lies in the xz plane at the given angle from z."""
    sx, _, sz = pauli_matrices()
    rho = (np.eye(2) + purity * (math.sin(angle) * sx + math.cos(angle) * sz)) / 2
    block = symmetric_power(rho, j2)
    block.setflags(write=False)
    return block


def multicopy_error_symmetric_power(q1, q2, eta1: float, n_copies: int) -> float:
    """``discrimination.multicopy_error`` with every block written as
    det(rho)^(pairs) times the symmetric power of the one-qubit matrix.

    The blocks depend only on the purity, the angle and the spin, so they
    are built once and shared by every prior and copy count."""
    cosang = float(np.clip(np.dot(q1.bloch, q2.bloch), -1.0, 1.0))
    ang = math.acos(cosang)
    sx, _, sz = pauli_matrices()
    rho1 = (np.eye(2) + q1.purity * sz) / 2
    rho2 = (np.eye(2) + q2.purity * (math.sin(ang) * sx + math.cos(ang) * sz)) / 2
    nu = multiplicity_table(n_copies)
    det1 = float(np.linalg.det(rho1).real)
    det2 = float(np.linalg.det(rho2).real)
    total = 0.0
    for j2 in range(n_copies % 2, n_copies + 1, 2):
        pairs = (n_copies - j2) // 2
        b1 = det1**pairs * _symmetric_block(q1.purity, 0.0, j2)
        b2 = det2**pairs * _symmetric_block(q2.purity, ang, j2)
        w = np.linalg.eigvalsh(eta1 * b1 - (1.0 - eta1) * b2)
        total += nu[j2] * float(np.abs(w).sum())
    return (1.0 - total) / 2.0


# ---------------------------------------------------------------------------
# coherent-state reading in a truncated Fock basis
# ---------------------------------------------------------------------------

FOCK_TAIL_TOL = 1e-12


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
    if tail > FOCK_TAIL_TOL:
        raise ValueError(
            f"coherent state |alpha|={abs(alpha):.3f} loses {tail:.2e} mass at "
            f"cutoff {cutoff}; increase the cutoff"
        )
    return amp


def reading_oracle_fock(cfg, strategy, quadrature_order, squeeze=0.0) -> float:
    """``reading.finite_n_oracle`` with every coherent state written out in a
    truncated Fock basis: the collective strategy as one dense Kronecker
    operator, eyd as one dense eigensolve per heterodyne node."""
    a0 = cfg.amplitude
    n = cfg.n_aux
    x, w, u, wt = _prior_grid(cfg.mu, quadrature_order)
    k2 = fock_cutoff(max(a0, float(np.abs(u).max()) / math.sqrt(n)))
    sig_vac = coherent_vector(-a0, k2)
    sig_hit = np.stack([coherent_vector(z / math.sqrt(n), k2) for z in u], axis=1)
    if strategy == "collective":
        # displaced frame: auxiliary mode carries u, signal carries -a0 or u/sqrt(n)
        k1 = fock_cutoff(float(np.abs(u).max()))
        aux = np.stack([coherent_vector(z, k1) for z in u], axis=1)
        sw = np.sqrt(wt)
        v1 = np.einsum("ak,bk->abk", aux * sw, np.tile(sig_vac[:, None], (1, len(u))))
        v2 = np.einsum("ak,bk->abk", aux * sw, sig_hit)
        d = (k1 + 1) * (k2 + 1)
        v1 = v1.reshape(d, len(u))
        v2 = v2.reshape(d, len(u))
        w = np.linalg.eigvalsh(v1 @ v1.conj().T - v2 @ v2.conj().T)
        return 0.5 * (1.0 - 0.5 * float(np.abs(w).sum()))

    tanh_r = math.tanh(squeeze)
    cosh_r = math.cosh(squeeze)
    # heterodyne outcome v = u + Gaussian noise with axis variances
    # 1/(2 (1 +- tanh r)); integrate v with a matched Gauss-Hermite grid
    s1 = math.sqrt(cfg.mu**2 / 2.0 + 1.0 / (2.0 * (1.0 + tanh_r)))
    s2 = math.sqrt(cfg.mu**2 / 2.0 + 1.0 / (2.0 * (1.0 - tanh_r)))
    v_nodes = (
        (math.sqrt(2.0) * s1 * x)[:, None] + 1j * (math.sqrt(2.0) * s2 * x)[None, :]
    ).ravel()
    v_jac = (
        2.0 * s1 * s2 * (w[:, None] * w[None, :]) * np.exp(x[:, None] ** 2 + x[None, :] ** 2)
    ).ravel()
    du1 = np.real(u)[None, :] - np.real(v_nodes)[:, None]
    du2 = np.imag(u)[None, :] - np.imag(v_nodes)[:, None]
    p_v_u = np.exp(-(du1 * du1) * (1.0 + tanh_r) - (du2 * du2) * (1.0 - tanh_r)) / (
        math.pi * cosh_r
    )
    post = p_v_u * wt[None, :]  # joint weight over (v, u)
    p_v = post.sum(axis=1)
    vac_proj = np.outer(sig_vac, sig_vac.conj())
    total = 0.0
    for i in range(len(v_nodes)):
        sigma = (sig_hit * post[i]) @ sig_hit.conj().T
        wdiff = np.linalg.eigvalsh(p_v[i] * vac_proj - sigma)
        total += v_jac[i] * float(np.abs(wdiff).sum())
    return 0.5 * (1.0 - 0.5 * total / float(v_jac @ p_v))


def eigvec_overlap_identities(alpha0) -> dict:
    """Squared number-state overlaps of the eigenvectors of the rank-2
    difference of the two displaced signal hypotheses.

    Returns the overlaps with |0> and |1> of the +/- eigenvectors, the
    |1>-overlap of the in-plane-orthogonal complement, and the completeness
    defect of the three |1>-overlaps; closed forms that the construction
    from the number-state amplitudes must reproduce.
    """
    a = _check_amplitude(alpha0)
    x, q, u, s = _exp_terms(a)
    # |0> and |-a> overlap in e^(-x/2) = 1 - h; their normalized sum and
    # difference have norms sqrt(2 - h) and sqrt(h), and the vacuum entry of
    # the difference is -h, taken from expm1 rather than by subtraction
    h = -math.expm1(-x / 2.0)
    # only the |0> and |1> amplitudes of |-a>, e and -a e, enter
    e = math.exp(-x / 2.0)
    plus_dir = np.array([1.0 + e, -a * e]) / math.sqrt(2.0 - h)
    minus_dir = np.array([-h, -a * e]) / math.sqrt(h)
    v_plus = 0.5 * (plus_dir + minus_dir)
    v_minus = 0.5 * (plus_dir - minus_dir)
    ov0 = {
        "+": abs(v_plus[0]) ** 2,
        "-": abs(v_minus[0]) ** 2,
        "closed+": 0.5 * q / (1.0 + s),
        "closed-": 0.5 * (1.0 + s),
    }
    # x / (e^x - 1) = x q / u, and 1 - s = q / (1 + s)
    ov1 = {
        "+": abs(v_plus[1]) ** 2,
        "-": abs(v_minus[1]) ** 2,
        "closed+": 0.5 * x * q * (1.0 + s) / u,
        "closed-": 0.5 * x * q * q / ((1.0 + s) * u),
    }
    # 1 - x q / u; for faint signals u - x q = x (u - (x - u)/x), which
    # does not cancel
    if x > 1.0:
        ov1_perp = 1.0 - x * q / u
    else:
        ov1_perp = x * (u - _exp_remainder(x)) / u
    completeness = ov1["+"] + ov1["-"] + ov1_perp - 1.0
    gap0 = 2.0 * s
    return {
        "overlap0": ov0,
        "overlap1": ov1,
        "overlap1_perp": ov1_perp,
        "completeness_defect": completeness,
        "zero_order_gap": gap0,
    }
