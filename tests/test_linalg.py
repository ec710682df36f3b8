import math
import re

import numpy as np
import pytest

from qdl import angular, learning, linalg, programmable


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def test_herm_eig_identity():
    w, v = linalg.herm_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2))


def test_herm_eig_diagonal_descending():
    w, v = linalg.herm_eig(np.diag([3.0, -1.0]))
    assert np.allclose(w, [3.0, -1.0])
    # canonical basis vectors up to phase
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12
    assert abs(abs(v[1, 1]) - 1.0) < 1e-12


def test_herm_eig_pauli_x():
    # 2x2 characteristic polynomial by hand: lambda^2 - 1 = 0
    sx, _, _ = linalg.pauli_matrices()
    w, _ = linalg.herm_eig(sx)
    assert np.allclose(w, [1.0, -1.0])


def test_herm_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for dim in (2, 5, 17, 40):
        m = random_hermitian(rng, dim)
        w, v = linalg.herm_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        recon = (v * w) @ v.conj().T
        assert np.abs(recon - m).max() <= 1e-10 * dim
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10


def test_herm_eig_rejects_non_hermitian_naming_entry():
    m = np.eye(3, dtype=complex)
    m[0, 2] = 0.5
    with pytest.raises(ValueError, match=r"\(0,2\)|\(2,0\)"):
        linalg.herm_eig(m)


def test_trace_norm_examples():
    assert linalg.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    assert linalg.trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_equal_prior_pure_helstrom_matrix():
    # hand derivation: for |psi_i> = cos(t/2)|0> -+ sin(t/2)|1> with
    # overlap c = cos t, the 2x2 matrix (rho1 - rho2)/2 has eigenvalues
    # +- sqrt(1 - c^2)/2, so the trace norm is sqrt(1 - c^2)
    for c in (0.0, 0.3, 0.8):
        t = np.arccos(c)
        psi1 = np.array([np.cos(t / 2), np.sin(t / 2)])
        psi2 = np.array([np.cos(t / 2), -np.sin(t / 2)])
        gamma = 0.5 * np.outer(psi1, psi1) - 0.5 * np.outer(psi2, psi2)
        assert linalg.trace_norm(gamma) == pytest.approx(np.sqrt(1 - c * c), abs=1e-12)


def test_trace_norm_sign_flip_symmetric():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 6)
    assert linalg.trace_norm(m) == pytest.approx(linalg.trace_norm(-m), abs=1e-12)


def test_trace_norm_dominates_trace_with_equality_iff_definite():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_hermitian(rng, 5)
        tn = linalg.trace_norm(m)
        tr = abs(float(np.trace(m).real))
        assert tn >= tr - 1e-12
        w = np.linalg.eigvalsh(m)
        definite = w[0] >= -1e-12 or w[-1] <= 1e-12
        assert definite == (abs(tn - tr) <= 1e-10)
    psd = random_hermitian(rng, 4)
    psd = psd @ psd  # PSD
    assert linalg.trace_norm(psd) == pytest.approx(float(np.trace(psd).real), abs=1e-10)


def test_tensor_product_examples():
    assert np.allclose(linalg.tensor_product(np.eye(2), np.eye(3)), np.eye(6))
    out = linalg.tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_product_pure_state_rank_one():
    psi = np.array([0.6, 0.8j])
    rho = np.outer(psi, psi.conj())
    rr = linalg.tensor_product(rho, rho)
    w = np.linalg.eigvalsh(rr)
    assert np.trace(rr) == pytest.approx(1.0)
    assert np.sum(w > 1e-12) == 1


def test_tensor_product_mixed_product_rule():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
    c, d = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
    lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(c, d)
    rhs = linalg.tensor_product(a @ c, b @ d)
    assert np.allclose(lhs, rhs)


def test_partial_trace_bell_state():
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell)
    red = linalg.partial_trace(rho, (2, 2), keep="first")
    assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_product_state():
    psi = np.array([1.0, 0.0])
    phi = np.array([np.cos(0.3), np.sin(0.3)])
    rho = np.kron(np.outer(psi, psi), np.outer(phi, phi))
    red = linalg.partial_trace(rho, (2, 2), keep="second")
    assert np.allclose(red, np.outer(phi, phi), atol=1e-14)


def test_partial_trace_identity_and_trace_preserved():
    red = linalg.partial_trace(np.eye(4) / 4, (2, 2), keep="first")
    assert np.allclose(red, np.eye(2) / 2)
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 6)
    red = linalg.partial_trace(m, (2, 3), keep="first")
    assert np.trace(red) == pytest.approx(np.trace(m).real)


def test_partial_trace_recovers_kept_factor():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    prod = linalg.tensor_product(a, b)
    first = linalg.partial_trace(prod, (3, 4), keep="first")
    assert np.abs(first - a * np.trace(b)).max() < 1e-12
    second = linalg.partial_trace(prod, (3, 4), keep="second")
    assert np.abs(second - b * np.trace(a)).max() < 1e-12


def test_partial_trace_rejects_bad_factorization():
    with pytest.raises(ValueError, match="factor"):
        linalg.partial_trace(np.eye(6), (4, 2), keep="first")


def test_density_matrix_validation():
    assert linalg.DensityMatrix(np.eye(2) / 2).dim == 2
    with pytest.raises(ValueError, match="trace"):
        linalg.DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="negative"):
        linalg.DensityMatrix(np.diag([1.5, -0.5]))


def test_density_eigenvalues_sum_to_one_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        w = linalg.DensityMatrix(rho).eigenvalues()
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert w.min() >= -1e-9


def test_qubit_state_eigenvalues():
    for r in (0.0, 0.4, 1.0):
        q = linalg.QubitState(r, np.array([0.0, 0.6, 0.8]))
        w = np.linalg.eigvalsh(q.density())
        assert np.allclose(sorted(w), sorted([(1 - r) / 2, (1 + r) / 2]))


# ---------------------------------------------------------------------------
# purity validation
# ---------------------------------------------------------------------------

ONE_ULP_ABOVE_1 = np.nextafter(1.0, 2.0)

# every public entry point that validates a purity, reduced to an array
PURITY_VALIDATORS = {
    "mixed_error": lambda r: programmable.mixed_error(2, 1, r),
    "mixed_asymptote": lambda r: programmable.mixed_asymptote(10, r),
    "PuritySpec": lambda r: programmable.universal_error(
        programmable.PuritySpec("fixed", r), 2, 1
    ),
    "block_coefficient": lambda r: angular.block_coefficient(3, 0.5, r),
    "block_state": lambda r: np.concatenate(
        [np.diag(b) for _, _, b in angular.block_state(3, r).blocks]
    ),
    "QubitState": lambda r: linalg.QubitState(r).density(),
    "gamma_up": lambda r: learning.gamma_up(2, r, 1, 1),
    "known_pair_error": learning.known_pair_error,
    "spin_weights": lambda r: learning.spin_weights(1, r),
    "block_probability": lambda r: learning.block_probability(2, 1, r),
    "lm_mixed_optimize": lambda r: learning.lm_mixed_optimize(1, r).delta_lm,
    "robustness_factors": lambda r: learning.robustness_factors(3, r),
}


def test_check_purity_snaps_rounding_error_onto_endpoints():
    eps = np.finfo(float).eps
    assert linalg.check_purity(ONE_ULP_ABOVE_1) == 1.0
    assert linalg.check_purity(1.0 + 4 * eps) == 1.0
    assert linalg.check_purity(-4 * eps) == 0.0
    assert linalg.check_purity(0.3) == 0.3
    with pytest.raises(ValueError, match="purity"):
        linalg.check_purity(1.0 + 5 * eps)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        linalg.check_purity(-5 * eps)
    # with r = 0 excluded, only the upper endpoint snaps
    assert linalg.check_purity(ONE_ULP_ABOVE_1, zero=False) == 1.0
    for bad in (0.0, -eps):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            linalg.check_purity(bad, zero=False)


@pytest.mark.parametrize("name", sorted(PURITY_VALIDATORS))
def test_purity_one_ulp_above_one_is_bit_identical_to_one(name):
    f = PURITY_VALIDATORS[name]
    got, want = f(ONE_ULP_ABOVE_1), f(1.0)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("bad", [1.0 + 1e-9, 1.2, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(PURITY_VALIDATORS))
def test_purity_out_of_range_raises_naming_it(name, bad):
    with pytest.raises(ValueError, match=f"purity {re.escape(str(bad))}"):
        PURITY_VALIDATORS[name](bad)
