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

from qdl.angular import HalfInt, clebsch_gordan
from qdl.learning import spin_z_expectation
from qdl.linalg import as_matrix, herm_eigvals, require_hermitian

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
    from qdl.reading import _hermite_nodes, _prior_grid

    a0 = cfg.amplitude
    n = cfg.n_aux
    u, wt = _prior_grid(cfg.mu, quadrature_order)
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
    x, w = _hermite_nodes(quadrature_order)
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
