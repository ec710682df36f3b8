"""Brute-force reference constructions shared by the test modules.

Everything here works in full 2^n-dimensional computational bases with no
block shortcuts, so it is slow but structurally independent of the library
paths it cross-checks.
"""

import numpy as np

from qdl.angular import HalfInt, clebsch_gordan
from qdl.learning import spin_z_expectation


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
                        cg = clebsch_gordan(
                            HalfInt(j2), HalfInt(m2), HalfInt(1), HalfInt(s2),
                            HalfInt(jn2), HalfInt(mn2),
                        )
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


def programmable_pe_dense(na, nb, nc):
    """Pure-state minimum error for arbitrary port loads from dense
    symmetric-subspace projectors."""
    d1 = (na + nb + 1) * (nc + 1)
    d2 = (na + 1) * (nb + nc + 1)
    sigma1 = np.kron(symmetric_projector(na + nb), symmetric_projector(nc)) / d1
    sigma2 = np.kron(symmetric_projector(na), symmetric_projector(nb + nc)) / d2
    return (1.0 - 0.5 * trace_norm_dense(sigma1 - sigma2)) / 2.0


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
            cg = clebsch_gordan(
                HalfInt(1), HalfInt(s2), HalfInt(j2), HalfInt(m2), HalfInt(j2 + 1), HalfInt(m_tot2)
            )
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
