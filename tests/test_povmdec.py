import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qdl import cli, povmdec


def pauli():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def qubit_element(weight, vec):
    sx, sy, sz = pauli()
    return weight * (np.eye(2) + vec[0] * sx + vec[1] * sy + vec[2] * sz) / 2


def bb84_povm():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    xp = np.full((2, 2), 0.5, dtype=complex)
    xm = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return povmdec.Povm(
        dim=2, elements=(("z0", z0 / 2), ("z1", z1 / 2), ("x+", xp / 2), ("x-", xm / 2))
    )


def pentagon_povm():
    elems = []
    for k in range(5):
        th = 2 * math.pi * k / 5
        elems.append((f"p{k}", qubit_element(0.4, (math.cos(th), math.sin(th), 0.0))))
    return povmdec.Povm(dim=2, elements=tuple(elems))


def stern_gerlach():
    return povmdec.Povm(
        dim=2,
        elements=(("up", np.diag([1.0, 0.0]).astype(complex)),
                  ("down", np.diag([0.0, 1.0]).astype(complex))),
    )


# ---------------------------------------------------------------------------
# generators and Bloch geometry
# ---------------------------------------------------------------------------


def test_gellmann_d2_is_pauli():
    basis = povmdec.gellmann_basis(2)
    sx, sy, sz = pauli()
    assert len(basis) == 3
    for got, want in zip(basis, (sx, sy, sz)):
        assert np.abs(got - want).max() < 1e-14


def test_gellmann_orthogonality():
    for d in (2, 3, 4):
        basis = povmdec.gellmann_basis(d)
        assert len(basis) == d * d - 1
        for i, gi in enumerate(basis):
            assert abs(np.trace(gi)) < 1e-14
            assert np.abs(gi - gi.conj().T).max() < 1e-14
            for j, gj in enumerate(basis):
                want = 2.0 if i == j else 0.0
                assert np.trace(gi @ gj).real == pytest.approx(want, abs=1e-13)


def test_pure_state_bloch_length():
    for d in (2, 3, 4):
        vec = np.zeros(d)
        vec[0] = 1.0
        proj = np.outer(vec, vec).astype(complex)
        _, vecs = povmdec.bloch_points(povmdec.Povm(dim=d, elements=(("p", proj), ("rest", np.eye(d) - proj))))
        want = math.sqrt(2 * (d - 1) / d)
        assert np.linalg.norm(vecs[0]) == pytest.approx(want, abs=1e-12)
    # for qubits the length is one
    assert math.sqrt(2 * (2 - 1) / 2) == 1.0


def test_bloch_round_trip():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        ops = oracles.random_povm(rng, d, 5)
        p = povmdec.Povm(dim=d, elements=tuple((str(i), op) for i, op in enumerate(ops)))
        weights, vecs = povmdec.bloch_points(p)
        for (label, op), w, v in zip(p.elements, weights, vecs):
            gens = np.stack(povmdec.gellmann_basis(d))
            recon = w * (np.eye(d) / d + 0.5 * np.einsum("g,gij->ij", v, gens))
            assert np.abs(recon - op).max() < 1e-10


def test_stacked_bloch_points_equal_the_per_element_loop():
    # the stacked traces and Bloch vectors round exactly as one element at
    # a time does, so the vertex LP and every extraction see the same input
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        ops = oracles.random_povm(rng, d, 3 * d * d)
        p = povmdec.Povm(dim=d, elements=tuple((str(i), op) for i, op in enumerate(ops)))
        gens = np.stack(povmdec.gellmann_basis(d))
        weights, vecs = povmdec.bloch_points(p)
        for (_, op), w, v in zip(p.elements, weights, vecs):
            a = float(np.trace(op).real)
            assert w == a
            assert np.array_equal(v, np.einsum("gij,ji->g", gens, op / a).real)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_bb84_clean():
    diag = povmdec.validate_povm(bb84_povm())
    assert diag.is_valid
    assert diag.weight_residual < 1e-12
    assert diag.barycentre_residual < 1e-12
    assert diag.identity_residual < 1e-12


def test_validate_flags_scaled_element():
    p = bb84_povm()
    elems = list(p.elements)
    elems[0] = (elems[0][0], elems[0][1] * 1.01)
    bad = povmdec.Povm(dim=2, elements=tuple(elems))
    diag = povmdec.validate_povm(bad)
    assert not diag.is_valid
    assert diag.identity_residual > 1e-3


def test_non_hermitian_element_is_named_by_its_label():
    # every element is checked in one stacked comparison; the error still
    # names the offending one, here the third, and its worst entry
    elems = list(bb84_povm().elements)
    skew = elems[2][1].copy()
    skew[0, 1] += 0.25
    elems[2] = ("x+", skew)
    with pytest.raises(ValueError, match=r"element 'x\+' is not Hermitian: entry \(0,1\)"):
        povmdec.Povm(dim=2, elements=tuple(elems))


def test_povm_rejects_elements_of_the_wrong_dimension_or_none():
    with pytest.raises(ValueError, match="dimension 2"):
        povmdec.Povm(dim=2, elements=(("a", np.eye(3)),))
    with pytest.raises(ValueError, match="at least one element"):
        povmdec.Povm(dim=2, elements=())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_povm_refuses_non_finite_entries(value, at):
    # the JSON writer prints every matrix entry by repr, which matches json
    # for finite floats only (repr nan where json writes NaN)
    op = np.diag([0.5, 0.5]).astype(complex)
    op[at] = value
    op[at[::-1]] = np.conj(op[at])
    with pytest.raises(ValueError, match="element 'a' is not Hermitian"):
        povmdec.Povm(dim=2, elements=(("a", op), ("b", np.eye(2) - op)))


def test_validate_flags_negative_element():
    neg = np.diag([1.2, -0.2]).astype(complex)
    rest = np.eye(2) - neg
    p = povmdec.Povm(dim=2, elements=(("a", neg), ("b", rest)))
    diag = povmdec.validate_povm(p)
    assert not diag.is_valid
    assert diag.min_eigenvalues["a"] == pytest.approx(-0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# rank-1 expansion
# ---------------------------------------------------------------------------


def test_rank1_expand_identity_on_rank1_input():
    p = pentagon_povm()
    out, relabel = povmdec.rank1_expand(p)
    assert out.labels() == p.labels()
    assert relabel == {lab: lab for lab in p.labels()}


def test_rank1_expand_coin_toss_example():
    # two outcomes, the second full rank: three rank-1 outcomes result and
    # the second original outcome receives two of them
    half0 = np.diag([0.5, 0.0]).astype(complex)
    rest = np.diag([0.5, 1.0]).astype(complex)
    p = povmdec.Povm(dim=2, elements=(("h", half0), ("t", rest)))
    out, relabel = povmdec.rank1_expand(p)
    assert len(out.elements) == 3
    sources = [relabel[lab] for lab in out.labels()]
    assert sources.count("t") == 2
    agg = {lab: np.zeros((2, 2), dtype=complex) for lab in ("h", "t")}
    for lab, op in out.elements:
        agg[relabel[lab]] += op
    assert np.abs(agg["h"] - half0).max() < 1e-10
    assert np.abs(agg["t"] - rest).max() < 1e-10


def test_rank1_expand_names_pieces_apart_from_every_other_outcome():
    # 'a' splits in two, and the names a#0 and a#1 would take another
    # outcome's label: the pieces become a##0 and a##1, and the clash-free
    # pieces of 'c' keep today's names
    half0, half1 = np.diag([0.5, 0.0]), np.diag([0.0, 0.5])
    p = povmdec.Povm(dim=2, elements=(("a", 0.5 * np.eye(2)), ("a#0", half0 / 2),
                                      ("b", half1 / 2), ("c", np.eye(2) / 4)))
    out, relabel = povmdec.rank1_expand(p)
    assert relabel == {"a##0": "a", "a##1": "a", "a#0": "a#0", "b": "b",
                       "c#0": "c", "c#1": "c"}
    assert len(set(out.labels())) == len(out.labels()) == 6
    for res in (povmdec.decompose(p), povmdec.ordered_decompose(p)):
        recon = res.reconstruct(2, p.labels())
        assert max(np.abs(recon[lab] - op).max() for lab, op in p.elements) < 1e-12


def test_rank1_expand_piece_names_skip_names_given_to_earlier_pieces():
    # 'a' takes a##0 and a##1 past the outcome a#1; 'a#' would take a##0 and
    # a##1 too, and takes a###0 and a###1 instead
    q = np.eye(2) / 4
    p = povmdec.Povm(dim=2, elements=(("a", q), ("a#1", np.diag([0.5, 0.0])), ("a#", q),
                                      ("b", np.diag([0.0, 0.5]))))
    _, relabel = povmdec.rank1_expand(p)
    assert relabel == {"a##0": "a", "a##1": "a", "a#1": "a#1", "a###0": "a#", "a###1": "a#",
                       "b": "b"}


@pytest.mark.parametrize("labels, named", [(("a", "b", "a"), "'a'"), ((1, "1"), "'1'")])
def test_povm_refuses_a_repeated_label_naming_it(labels, named):
    # a repeated label would merge two outcomes in the relabel map
    ops = [np.eye(2) / len(labels)] * len(labels)
    with pytest.raises(ValueError, match=f"^label {named} names more than one element$"):
        povmdec.Povm(dim=2, elements=tuple(zip(labels, ops)))
    data = povmdec.povm_to_json(povmdec.Povm(dim=2, elements=tuple(enumerate(ops))))
    for e, lab in zip(data["elements"], labels):
        e["label"] = lab
    with pytest.raises(ValueError, match=f"^label {named} names more than one element$"):
        povmdec.povm_from_json(data)


def test_rank1_expand_random_full_rank():
    rng = np.random.default_rng(7)
    ops = oracles.random_povm(rng, 2, 2)
    p = povmdec.Povm(dim=2, elements=(("a", ops[0]), ("b", ops[1])))
    out, relabel = povmdec.rank1_expand(p)
    assert len(out.elements) == 4
    for _, op in out.elements:
        w = np.linalg.eigvalsh(op)
        assert np.sum(w > 1e-10) == 1
    agg = {lab: np.zeros((2, 2), dtype=complex) for lab in ("a", "b")}
    for lab, op in out.elements:
        agg[relabel[lab]] += op
    assert np.abs(agg["a"] - ops[0]).max() < 1e-10


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


def test_vertex_orthogonal_projectors():
    x = povmdec.find_extremal_vertex(povmdec.bloch_points(stern_gerlach())[1])
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)


def test_vertex_pentagon_is_trine():
    _, vecs = povmdec.bloch_points(pentagon_povm())
    x = povmdec.find_extremal_vertex(vecs)
    support = np.nonzero(x > 1e-10)[0]
    assert len(support) == 3
    # the vertex balances: sum x_i = 2 and the weighted vectors cancel
    assert x.sum() == pytest.approx(2.0, abs=1e-10)
    bary = sum(x[i] * vecs[i] for i in support)
    assert np.linalg.norm(bary) < 1e-10


def test_vertex_hexagon_support_bound_and_bruteforce():
    # six symmetric equatorial elements: every vertex uses at most four
    elems = [
        (f"h{k}", qubit_element(1 / 3, (math.cos(math.pi * k / 3), math.sin(math.pi * k / 3), 0)))
        for k in range(6)
    ]
    p = povmdec.Povm(dim=2, elements=tuple(elems))
    _, vecs = povmdec.bloch_points(p)
    x = povmdec.find_extremal_vertex(vecs)
    support = np.nonzero(x > 1e-10)[0]
    assert 2 <= len(support) <= 4
    # brute-force: the support must be one of the balanced subsets
    feasible_supports = []
    for mask in range(1, 2**6):
        idx = [i for i in range(6) if mask >> i & 1]
        if len(idx) < 2 or len(idx) > 4:
            continue
        a = np.vstack([vecs[idx].T, np.ones(len(idx))])
        b = np.concatenate([np.zeros(3), [2.0]])
        sol, res, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if np.allclose(a @ sol, b, atol=1e-9) and np.all(sol > 1e-9):
            feasible_supports.append(tuple(idx))
    assert tuple(support) in feasible_supports


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_vertex_refuses_non_finite_bloch_vector_naming_it(value):
    vecs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.5, 0.0, 0.0]])
    vecs[2, 1] = value
    with pytest.raises(ValueError, match=r"^Bloch vector 2 \[0\.5, "):
        povmdec.find_extremal_vertex(vecs)


def test_infeasibility_certificate():
    # all vectors in one hemisphere cannot balance; the certificate has a
    # strictly negative product against every point
    vecs = np.array([[1.0, 0.1 * k, 0.2] for k in range(4)])
    with pytest.raises(povmdec.InfeasiblePovmError) as exc:
        povmdec.find_extremal_vertex(vecs)
    nu = exc.value.certificate
    assert max(float(v @ nu) for v in vecs) < -1e-10


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_bb84():
    res = povmdec.decompose(bb84_povm())
    assert len(res.terms) == 2
    probs = sorted(p for p, _ in res.terms)
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)
    for _, ext in res.terms:
        assert len(ext.elements) == 2
        ok, _ = povmdec.is_extremal(ext)
        assert ok


def test_decompose_pentagon():
    res = povmdec.decompose(pentagon_povm())
    assert len(res.terms) == 3
    assert res.terms[0][0] == pytest.approx(1 / math.sqrt(5), abs=1e-10)
    for _, ext in res.terms:
        assert len(ext.elements) == 3
    recon = res.reconstruct(2, pentagon_povm().labels())
    for lab, op in pentagon_povm().elements:
        assert np.abs(recon[lab] - op).max() < 1e-10


def test_decompose_probabilities_form_distribution():
    rng = np.random.default_rng(17)
    ops = oracles.random_povm(rng, 3, 11)
    p = povmdec.Povm(dim=3, elements=tuple((str(i), op) for i, op in enumerate(ops)))
    res = povmdec.decompose(p)
    probs = res.probabilities()
    assert np.all(probs > 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_decompose_outcome_count_strictly_decreases():
    rng = np.random.default_rng(19)
    ops = oracles.random_povm(rng, 2, 9)
    p = povmdec.Povm(dim=2, elements=tuple((str(i), op) for i, op in enumerate(ops)))
    res = povmdec.decompose(p)
    # with N rank-1 outcomes and at least one outcome dying per step the
    # number of terms stays at or below N - d + 1
    nbar = len(povmdec.rank1_expand(p)[0].elements)
    assert len(res.terms) <= nbar - 2 + 1


def test_decompose_rejects_non_povm():
    bad = povmdec.Povm(
        dim=2, elements=(("a", np.diag([0.9, 0.0]).astype(complex)),
                         ("b", np.diag([0.0, 0.9]).astype(complex)))
    )
    with pytest.raises(ValueError, match="not a POVM"):
        povmdec.decompose(bad)


def test_decompose_stops_where_the_remainder_loses_balance():
    # benchmark seed 17, pass 7: d = 4 and 11 outcomes.  Each step divides
    # the remainder by 1 - prob, which also scales up its imbalance; left to
    # grow, it made a late vertex LP infeasible and the POVM was refused
    path = Path(__file__).parent / "fixtures" / "povm-seed17-pass07-d4.json"
    p = povmdec.povm_from_json(path.read_text(encoding="utf-8"))
    assert povmdec.validate_povm(p).is_valid
    res = povmdec.decompose(p)
    nbar = len(povmdec.rank1_expand(p)[0].elements)
    assert len(res.terms) <= (nbar - 1) * p.dim + 1
    assert res.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
    recon = res.reconstruct(p.dim, p.labels())
    assert max(np.abs(recon[lab] - op).max() for lab, op in p.elements) <= 1e-12
    for _, ext in res.terms:
        assert povmdec.is_extremal(ext)[0]


FIXTURES = Path(__file__).parent / "fixtures"


def test_decompose_keeps_outcomes_whose_remainder_renormalizes_off_balance():
    # benchmark seed 9, pass 2: d = 4 and 11 outcomes.  At step 27 ten
    # outcomes tie and nine rounding remainders are zeroed; renormalizing
    # after step 28 lifts the remainder's imbalance to 1.4e-9.  A rule on
    # that imbalance ended the loop there and dropped 4 live outcomes
    # carrying 5.2e-5; only a sliver of mass <= SUM_TOL may end it
    p = povmdec.povm_from_json((FIXTURES / "povm-seed09-pass02-d4.json").read_text("utf-8"))
    assert povmdec.validate_povm(p).is_valid
    res = povmdec.decompose(p)
    assert res.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
    recon = res.reconstruct(p.dim, p.labels())
    assert max(np.abs(recon[lab] - op).max() for lab, op in p.elements) <= 1e-12


@pytest.mark.parametrize("ordered", [False, True])
def test_unbalanceable_remainder_is_refused_naming_the_step(tmp_path, ordered):
    # identity residual 4e-10, inside SUM_TOL; after {b, c} is extracted
    # with probability 0.999, the remainder {a, c} scaled by 1 / 0.001 is off
    # balance by 8e-7 and no vertex LP balances it
    a = np.array([[1e-3, 4e-10], [4e-10, 0.0]], dtype=complex)
    p = povmdec.Povm(dim=2, elements=(("a", a), ("b", np.diag([0.999, 0.0]).astype(complex)),
                                      ("c", np.diag([0.0, 1.0]).astype(complex))))
    assert povmdec.validate_povm(p).is_valid
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(povmdec.povm_to_json(p)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    argv = ["decompose", "--input", str(path)] + ["--ordered"] * ordered
    assert cli.run(argv, out=out, err=err) == 1 and not out.getvalue()
    assert err.getvalue() == (
        "error: cannot decompose: the remainder at step 2, of probability 1.000e-03, admits "
        "no balancing (the input's identity residual is 4.00e-10)\n")


@pytest.mark.parametrize("ordered", [False, True])
def test_small_trace_element_within_hermiticity_tolerance_decomposes(ordered):
    # element 'a' has trace 1e-3 and deviates from its conjugate by 8e-10,
    # inside the tolerance; a re-check of a term x E_a / tr E_a would see
    # 8e-7 and refuse the POVM
    path = FIXTURES / "povm-small-trace-wobble.json"
    p = povmdec.povm_from_json(path.read_text(encoding="utf-8"))
    assert povmdec.validate_povm(p).is_valid
    out, err = io.StringIO(), io.StringIO()
    argv = ["decompose", "--input", str(path)] + ["--ordered"] * ordered
    assert cli.run(argv, out=out, err=err) == 0 and not err.getvalue()
    data = json.loads(out.getvalue())
    # the terms are read as plain matrices: a term holding x E_a / tr E_a
    # deviates from its conjugate by 8e-7, which povm_from_json refuses
    recon = {lab: 0.0 for lab in p.labels()}
    for term in data["terms"]:
        for e in term["extremal"]["elements"]:
            m = np.array(e["matrix"])
            op = m[..., 0] + 1j * m[..., 1]
            recon[data["relabel"][e["label"]]] += term["probability"] * op
    assert max(np.abs(recon[lab] - op).max() for lab, op in p.elements) <= 1e-12


def hermitian_inputs():
    """The fixtures and random POVMs of dimension 2..4, each element
    symmetrized to (E + E^H) / 2 + 0.0, so exactly Hermitian with no -0.0."""
    povms = [povmdec.povm_from_json(path.read_text(encoding="utf-8"))
             for path in sorted(FIXTURES.glob("*.json"))]
    rng = np.random.default_rng(61)
    for d in (2, 3, 4):
        for n in (d, 2 * d, 3 * d * d):
            povms.append(povmdec.Povm(dim=d, elements=tuple(
                (str(i), op) for i, op in enumerate(oracles.random_povm(rng, d, n)))))
    return [povmdec.Povm(dim=p.dim, elements=tuple(
        (lab, (op + op.conj().T) / 2 + 0.0) for lab, op in p.elements)) for p in povms]


def mirrored(ops: np.ndarray) -> np.ndarray:
    """Per element of a stack: whether it equals, bit for bit, the mirror of
    its upper triangle (diagonal imaginary parts 0.0, each strictly lower
    entry the conjugate of its twin, an imaginary 0.0 or -0.0 mirrored as
    0.0)."""
    i, j = np.triu_indices(ops.shape[1], 1)
    mirror = ops.copy()
    mirror.imag[:, range(ops.shape[1]), range(ops.shape[1])] = 0.0
    mirror.real[:, j, i] = ops.real[:, i, j]
    mirror.imag[:, j, i] = 0.0 - ops.imag[:, i, j]
    bits = lambda a: np.ascontiguousarray(a).view(np.int64).reshape(len(a), -1)
    return (bits(mirror) == bits(ops)).all(axis=1)


def test_terms_of_hermitian_inputs_are_exactly_hermitian_and_positive():
    # the terms are built without a Hermiticity check: products x_i E_i / tr E_i
    # of the input elements and of the exactly Hermitian copies of their
    # eigen-split pieces.  Every term element equals the mirror of its upper
    # triangle bit for bit
    checked = 0
    for p in hermitian_inputs():
        for res in [povmdec.decompose(p)] + ([povmdec.ordered_decompose(p)] if p.dim == 2 else []):
            for _, extremal in res.terms:
                assert mirrored(extremal.ops).all()
                assert np.linalg.eigvalsh(extremal.ops).min() >= -povmdec.PSD_TOL
                checked += len(extremal.ops)
    assert checked > 100


def test_split_pieces_are_exactly_hermitian_and_whole_elements_keep_their_bits():
    # 'c' is full rank and splits into exactly Hermitian pieces; 'a' is rank 1
    # and skewed within the tolerance, and its terms keep the skew of its
    # input bits: x E_a / tr E_a, entry (1,0) the negative of entry (0,1)
    a = np.array([[0.001, 4e-10], [-4e-10, 0.0]])
    p = povmdec.Povm(dim=2, elements=(("a", a), ("b", np.diag([0.499, 0.0])),
                                      ("c", np.diag([0.5, 1.0]))))
    for res in (povmdec.decompose(p), povmdec.ordered_decompose(p)):
        elements = [(lab, op) for _, ext in res.terms for lab, op in ext.elements]
        assert {lab for lab, _ in elements} == {"a", "b", "c#0", "c#1"}
        for lab, op in elements:
            if lab == "a":
                assert op[1, 0] == -op[0, 1] != 0.0 and not mirrored(op[None])[0]
            else:
                assert mirrored(op[None])[0]


def test_decompose_full_rank_with_relabel():
    rng = np.random.default_rng(23)
    ops = oracles.random_povm(rng, 2, 3)
    p = povmdec.Povm(dim=2, elements=(("a", ops[0]), ("b", ops[1]), ("c", ops[2])))
    res = povmdec.decompose(p)
    recon = res.reconstruct(2, p.labels())
    for lab, op in p.elements:
        assert np.abs(recon[lab] - op).max() < 1e-9
    assert set(res.relabel.values()) == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# extremality
# ---------------------------------------------------------------------------


def test_is_extremal_stern_gerlach():
    ok, witness = povmdec.is_extremal(stern_gerlach())
    assert ok and witness is None


def test_is_extremal_pentagon_witness():
    ok, witness = povmdec.is_extremal(pentagon_povm())
    assert not ok
    assert witness is not None
    # the witness spans a genuine flat direction: sum_i y_i E_i / tr(E_i) = 0
    pts = povmdec.bloch_points(pentagon_povm())
    combo = np.zeros((2, 2), dtype=complex)
    for y, (lab, op) in zip(witness, pentagon_povm().elements):
        combo += y * op / np.trace(op).real
    assert np.abs(combo).max() < 1e-10


def test_is_extremal_trine():
    elems = [
        (f"t{k}", qubit_element(2 / 3, (math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3), 0)))
        for k in range(3)
    ]
    ok, _ = povmdec.is_extremal(povmdec.Povm(dim=2, elements=tuple(elems)))
    assert ok


def test_is_extremal_rejects_higher_rank():
    p = povmdec.Povm(dim=2, elements=(("i", np.eye(2, dtype=complex)),))
    with pytest.raises(ValueError, match="rank1_expand"):
        povmdec.is_extremal(p)


# ---------------------------------------------------------------------------
# ordered decompositions
# ---------------------------------------------------------------------------


def test_ordered_bb84_extracts_two_outcome_first():
    res = povmdec.ordered_decompose(bb84_povm())
    assert len(res.terms[0][1].elements) == 2


def test_ordered_pentagon_extracts_trine():
    res = povmdec.ordered_decompose(pentagon_povm())
    assert len(res.terms[0][1].elements) == 3
    recon = res.reconstruct(2, pentagon_povm().labels())
    for lab, op in pentagon_povm().elements:
        assert np.abs(recon[lab] - op).max() < 1e-9


def test_ordered_extremal_input_single_term():
    res = povmdec.ordered_decompose(stern_gerlach())
    assert len(res.terms) == 1
    assert res.terms[0][0] == pytest.approx(1.0)


def test_ordered_mixed_two_outcome_preference():
    # two antipodal pairs plus noise outcomes: a pair must come out first
    rng = np.random.default_rng(29)
    vecs = [(0, 0, 1.0), (0, 0, -1.0), (1.0, 0, 0), (-1.0, 0, 0)]
    weights = [0.55, 0.55, 0.45, 0.45]
    elems = tuple(
        (f"e{k}", qubit_element(w, v)) for k, (w, v) in enumerate(zip(weights, vecs))
    )
    p = povmdec.Povm(dim=2, elements=elems)
    res = povmdec.ordered_decompose(p)
    assert len(res.terms[0][1].elements) == 2


def test_ordered_rejects_higher_dimensions():
    rng = np.random.default_rng(31)
    ops = oracles.random_povm(rng, 3, 5)
    p = povmdec.Povm(dim=3, elements=tuple((str(i), op) for i, op in enumerate(ops)))
    with pytest.raises(povmdec.UnsupportedCriterionError):
        povmdec.ordered_decompose(p)
    with pytest.raises(povmdec.UnsupportedCriterionError):
        povmdec.ordered_decompose(bb84_povm(), criterion="most-outcomes")


def prefixes(tree, path=()):
    """The entering-column path of every state of a tree of walks, given the
    children of its start."""
    for entering, child in tree.items():
        yield path + (entering,)
        yield from prefixes(child.children, path + (entering,))


def cold(m, ncol, tree=None):
    """The all-artificial start of a vertex LP's walk, updated in place, or
    the start of a tree of walks whose start's children are tree."""
    return povmdec._Walk(np.arange(ncol - m, ncol), np.eye(m), children=tree)


def test_ordered_decompose_pivots_each_entering_prefix_once_per_call():
    # every neighbour walk of one call starts from the same all-artificial
    # basis.  Replayed one by one, each in a tree of its own, the walks
    # enter columns along paths whose distinct prefixes are exactly the
    # states of the call's shared tree; a state is added by one pivot, so
    # the call pivots once per distinct prefix.  Each vertex has the bits of
    # its replay and of the same walk updated in place, and walking the same
    # drops again adds no state.
    rng = np.random.default_rng(43)
    neighbours = povmdec._neighboring_vertices
    saved = 0
    for n in (5, 8, 12):
        ops = oracles.random_povm(rng, 2, n)
        p = povmdec.Povm(dim=2, elements=tuple((str(i), op) for i, op in enumerate(ops)))
        trees, replayed, walked = [], set(), []

        def replaying(lp, live, x, tree):
            cols, b, cost = lp[:3]
            m, ncol = cols.shape
            got = neighbours(lp, live, x, tree)
            states = set(prefixes(tree))
            again = neighbours(lp, live, x, tree)
            assert set(prefixes(tree)) == states
            assert [bits(v) for v in again] == [bits(v) for v in got]
            want = []
            for k in (x > povmdec._ZERO).nonzero()[0] if len(live) >= 3 else []:
                own = {}
                vertex, _ = povmdec._phase1_simplex(cols, b, cost, cold(m, ncol, own), live[k])
                alone, _ = povmdec._phase1_simplex(cols, b, cost, cold(m, ncol), live[k])
                assert bits(vertex) == bits(alone)
                path = max(prefixes(own), key=len, default=())
                assert set(prefixes(own)) == {path[:j] for j in range(1, len(path) + 1)}
                replayed.update(prefixes(own))
                walked.append(len(path))
                if vertex is not None:
                    want.append(vertex[:-m][live])
            assert [bits(v) for v in got] == [bits(v) for v in want]
            trees.append(tree)
            return got

        with mock.patch.object(povmdec, "_neighboring_vertices", replaying):
            povmdec.ordered_decompose(p)
        assert trees and all(tree is trees[0] for tree in trees)
        states = list(prefixes(trees[0]))
        assert len(states) == len(set(states)) and set(states) == replayed
        saved += sum(walked) - len(states)
    assert saved > 0


def test_a_tree_state_below_a_finished_walk_keeps_its_own_solution():
    # one walk ends at the start (every column it may enter is barred); a
    # second walk of the same tree then enters from there, and what it finds
    # is its own walk's result, not the state it branched from
    _, vectors = povmdec.bloch_points(bb84_povm())
    cols, b, cost = povmdec._vertex_lp(vectors)[:3]
    m, ncol = cols.shape
    cost[: ncol - m] = 1.0
    cost[0] = 0.0  # the only column that may enter
    start = cold(m, ncol, {})
    for also in (0, None):
        got = povmdec._phase1_simplex(cols, b, cost, start, also)
        want = povmdec._phase1_simplex(cols, b, cost, cold(m, ncol), also)
        assert [bits(g) for g in got] == [bits(w) for w in want]
        assert list(prefixes(start.children)) == ([] if also == 0 else [(0,)])


def pretty_good_measurement(rng, n):
    """Rank-1 qubit POVM of the pretty-good measurement of n random pure
    states: no two of its Bloch vectors are antipodal."""
    psi = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    w, v = np.linalg.eigh(psi.T @ psi.conj())
    vecs = psi @ ((v * w**-0.5) @ v.conj().T).T  # rows rho^(-1/2) psi_i
    return [np.outer(u, u.conj()) for u in vecs]


@pytest.mark.parametrize("family", ["wishart", "pretty-good"])
def test_priced_out_neighbours_equal_the_rebuilt_lps(family):
    # at every extraction step of the ordered decomposition, the neighbour
    # for each live outcome k equals the vertex of the LP rebuilt from the
    # live Bloch vectors without k, bit for bit, and is None exactly where
    # that LP is infeasible
    rng = np.random.default_rng(59)
    neighbours = povmdec._neighboring_vertices
    compared = []
    for n in (3, 4, 6, 9, 12):
        ops = oracles.random_povm(rng, 2, n) if family == "wishart" else (
            pretty_good_measurement(rng, n))
        p = povmdec.Povm(dim=2, elements=tuple((str(i), op) for i, op in enumerate(ops)))
        vectors = povmdec._bloch(povmdec.rank1_expand(p)[0].ops)[2]

        def checked(lp, live, x, tree):
            for drop in range(len(live)):
                got = neighbours(lp, live, np.eye(len(live))[drop], tree)
                if len(live) < 3:
                    assert got == []
                    continue
                try:
                    want = np.insert(povmdec.find_extremal_vertex(
                        np.delete(vectors[live], drop, 0)), drop, 0.0)
                except povmdec.InfeasiblePovmError:
                    want = None
                assert [bits(v) for v in got] == ([] if want is None else [bits(want)])
                compared.append(want is None)
            return neighbours(lp, live, x, tree)

        with mock.patch.object(povmdec, "_neighboring_vertices", checked):
            povmdec.ordered_decompose(p)
    assert len(compared) > 50 and not all(compared)


# ---------------------------------------------------------------------------
# randomized round trips
# ---------------------------------------------------------------------------


def test_random_round_trips_small():
    rng = np.random.default_rng(37)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, 3 * d * d + 1))
        ops = oracles.random_povm(rng, d, n)
        p = povmdec.Povm(dim=d, elements=tuple((str(i), op) for i, op in enumerate(ops)))
        res = povmdec.decompose(p)
        nbar = len(povmdec.rank1_expand(p)[0].elements)
        assert len(res.terms) <= (nbar - 1) * d + 1
        recon = res.reconstruct(d, p.labels())
        for lab, op in p.elements:
            assert np.abs(recon[lab] - op).max() < 1e-9


# drawn as in criterion 10: dimension 2..4, N in [d, 3 d^2] outcomes
POVM_DRAWS = st.integers(min_value=2, max_value=4).flatmap(
    lambda d: st.tuples(
        st.just(d), st.integers(min_value=d, max_value=3 * d * d), st.integers(0, 2**32 - 1)
    )
)
PROPERTY = settings(max_examples=30, deadline=None)


def drawn_povm(draw):
    d, n, seed = draw
    ops = oracles.random_povm(np.random.default_rng(seed), d, n)
    return povmdec.Povm(dim=d, elements=tuple((str(i), op) for i, op in enumerate(ops)))


@PROPERTY
@given(draw=POVM_DRAWS)
def test_decompose_round_trip_term_bound_and_extremality(draw):
    # the ordered decomposition is defined for qubits only
    p = drawn_povm(draw)
    nbar = len(povmdec.rank1_expand(p)[0].elements)
    runs = [povmdec.decompose] + ([povmdec.ordered_decompose] if p.dim == 2 else [])
    for run in runs:
        res = run(p)
        assert len(res.terms) <= (nbar - 1) * p.dim + 1
        recon = res.reconstruct(p.dim, p.labels())
        assert max(np.abs(recon[lab] - op).max() for lab, op in p.elements) <= 1e-9
        for _, ext in res.terms:
            assert povmdec.is_extremal(ext)[0]


@PROPERTY
@given(draw=POVM_DRAWS)
def test_vertex_is_a_balanced_point_of_small_support(draw):
    p = drawn_povm(draw)
    d = p.dim
    _, vecs = povmdec.bloch_points(p)
    x = povmdec.find_extremal_vertex(vecs)
    assert np.all(x >= 0.0)
    assert x.sum() == pytest.approx(d, abs=1e-9)
    balance = sum(xi * v for xi, v in zip(x, vecs))
    assert np.abs(balance).max() <= 1e-9
    assert np.count_nonzero(x) <= d * d


@PROPERTY
@given(draw=POVM_DRAWS)
def test_infeasibility_certificate_separates_every_point(draw):
    # vectors pushed into one open half-space cannot balance
    d, n, seed = draw
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d * d - 1)
    u /= np.linalg.norm(u)
    vecs = rng.standard_normal((n, d * d - 1))
    vecs *= np.sign(vecs @ u)[:, None]
    vecs += 0.1 * u
    with pytest.raises(povmdec.InfeasiblePovmError) as exc:
        povmdec.find_extremal_vertex(vecs)
    nu = exc.value.certificate
    assert max(float(v @ nu) for v in vecs) < 0.0


def bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


def checked_simplex(calls):
    """The library pivot loop, run after the reference loop of tests/oracles.py
    on copies of the same basis and inverse, the column ``also`` priced out;
    x and the certificate must agree bit for bit, and so must the basis and
    inverse that a walk updated in place leaves behind.  A walk through a
    tree starts at its root, the all-artificial basis."""
    library = povmdec._phase1_simplex

    def run(cols, b, cost, walk, also=None):
        assert walk.step == 0
        priced = cost.copy()
        if also is not None:
            priced[also] = 1.0
        ref_basis, ref_binv = walk.basis.copy(), walk.binv.copy()
        want = oracles.phase1_simplex_reference(cols, b, priced, ref_basis, ref_binv)
        got = library(cols, b, cost, walk, also)
        assert [bits(g) for g in got] == [bits(w) for w in want]
        if walk.children is None:
            assert bits(walk.basis) == bits(ref_basis)
            assert bits(walk.binv) == bits(ref_binv)
        calls.append(got[0] is None)
        return got

    return run


@PROPERTY
@given(draw=POVM_DRAWS)
def test_simplex_matches_reference_loop_on_cold_vertex_lps(draw):
    # the LP over every Bloch vector, each neighbour LP with one vector
    # dropped, and an infeasible one whose certificate is compared too
    p = drawn_povm(draw)
    _, vecs = povmdec.bloch_points(p)
    u = np.random.default_rng(draw[2]).standard_normal(vecs.shape)
    lps = [vecs] + [np.delete(vecs, k, axis=0) for k in range(len(vecs))]
    lps.append(u * np.sign(u @ u[0])[:, None] + 0.1 * u[0])
    calls = []
    with mock.patch.object(povmdec, "_phase1_simplex", checked_simplex(calls)):
        for v in lps:
            try:
                povmdec.find_extremal_vertex(v)
            except povmdec.InfeasiblePovmError:
                pass
    assert len(calls) == len(lps) and calls[-1]


@PROPERTY
@given(draw=POVM_DRAWS)
def test_simplex_matches_reference_loop_on_warm_started_extractions(draw):
    # every search of the extraction loop resumes from the basis and inverse
    # that the previous search left behind
    p = drawn_povm(draw)
    calls = []
    with mock.patch.object(povmdec, "_phase1_simplex", checked_simplex(calls)):
        res = povmdec.decompose(p)
        if p.dim == 2:
            povmdec.ordered_decompose(p)
    assert len(calls) >= len(res.terms)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def test_povm_json_round_trip():
    p = bb84_povm()
    data = povmdec.povm_to_json(p)
    back = povmdec.povm_from_json(data)
    assert back.dim == 2
    for (la, oa), (lb, ob) in zip(p.elements, back.elements):
        assert la == lb
        assert np.abs(oa - ob).max() < 1e-15


def test_povm_json_keeps_signed_zeros():
    data = povmdec.povm_to_json(bb84_povm())
    data["elements"][0]["matrix"][0][1] = [-0.0, -0.0]
    data["elements"][0]["matrix"][1][0] = [-0.0, 0.0]
    op = povmdec.povm_from_json(data).ops[0]
    assert np.signbit([op[0, 1].real, op[0, 1].imag, op[1, 0].real, op[1, 0].imag]).tolist() == [
        True, True, True, False
    ]


def _set_entry(value):
    def edit(data):
        data["elements"][1]["matrix"][0][1] = value
    return edit


MALFORMED_POVM_JSON = [
    pytest.param(_set_entry(["x", 0]), "element 1 'z1'", id="string-entry"),
    pytest.param(_set_entry(3), "element 1 'z1'", id="bare-number-entry"),
    pytest.param(_set_entry([10**400, 0]), "element 1 'z1'", id="huge-integer-entry"),
    pytest.param(lambda d: d["elements"].__setitem__(2, 7), "element 2", id="bare-number-element"),
    pytest.param(lambda d: d.__setitem__("elements", "ab"), "element 0", id="string-elements"),
    pytest.param(lambda d: d["elements"][3].pop("matrix"), "element 3 'x-'", id="no-matrix"),
    pytest.param(lambda d: d.__setitem__("dim", 2.7), "dim 2.7", id="float-dim"),
    pytest.param(lambda d: d.__setitem__("dim", True), "dim True", id="bool-dim"),
    pytest.param(lambda d: d.__setitem__("dim", 3), "element 0 'z0'", id="wrong-dim"),
]


@pytest.mark.parametrize("edit, names", MALFORMED_POVM_JSON)
def test_povm_from_json_malformed_raises_value_error_naming_it(edit, names):
    data = povmdec.povm_to_json(bb84_povm())
    edit(data)
    with pytest.raises(ValueError, match=f"^POVM JSON:? {re.escape(names)}"):
        povmdec.povm_from_json(data)


def test_povm_from_json_top_level_list_raises_value_error():
    with pytest.raises(ValueError, match="must be an object, not a list"):
        povmdec.povm_from_json([povmdec.povm_to_json(bb84_povm())])


def test_decomposition_json_shape():
    res = povmdec.decompose(bb84_povm())
    data = povmdec.decomposition_to_json(res)
    assert set(data) == {"terms", "relabel"}
    assert all(set(t) == {"probability", "extremal"} for t in data["terms"])
    total = sum(t["probability"] for t in data["terms"])
    assert total == pytest.approx(1.0, abs=1e-12)


# entries whose repr is unusual: signed zero, the smallest subnormal, the
# exponent extremes and integer-valued floats
JSON_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 1e-300, -1e300,
                     1.0, -7.0, 2.0**53, 1e16, 123456789.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# labels that must be escaped, or that hold the separators the writer
# re-indents
JSON_LABELS = st.one_of(
    st.sampled_from(['"', "\\", 'a"b\\c', "é", "Ψ⟩", "量子", "#", "z0#1", ", ", '", "',
                     '"], ["', "]], [[", "\n"]),
    st.text(max_size=6),
)


@st.composite
def decomposition_results(draw):
    d = draw(st.integers(2, 6))
    size = 2 * d * d
    lower, diag = np.tril_indices(d, -1), np.diag_indices(d)
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        labels = draw(st.lists(JSON_LABELS, min_size=1, max_size=5, unique=True))
        # random entries across the exponent range, some replaced by drawn ones
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (len(labels), size)
        entries = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
        at = st.tuples(st.integers(0, len(labels) - 1), st.integers(0, size - 1))
        for k, value in draw(st.lists(st.tuples(at, JSON_ENTRIES), max_size=8)):
            entries[k] = value
        ops = entries.view(complex).reshape(-1, d, d)
        ops[:, lower[0], lower[1]] = ops[:, lower[1], lower[0]].conj()
        # a diagonal imaginary part within the Hermiticity tolerance, or a
        # drawn +0.0 that conj mirrors to -0.0, takes the general writer
        skew = draw(st.sampled_from([0.0, 1e-10, -3e-17]))
        ops[:, diag[0], diag[1]] = ops[:, diag[0], diag[1]].real + skew * 1j
        extremal = povmdec.Povm(dim=d, elements=tuple(zip(labels, ops)))
        terms.append((draw(st.floats()), extremal))
    relabel = draw(st.dictionaries(JSON_LABELS, JSON_LABELS, max_size=6))
    return povmdec.DecompositionResult(terms=tuple(terms), relabel=relabel)


@settings(max_examples=100, deadline=None)
@given(result=decomposition_results())
def test_decomposition_writer_matches_indented_sorted_json_dumps(result):
    chunks = []
    povmdec._write_decomposition(result, chunks.append)
    want = json.dumps(povmdec.decomposition_to_json(result), indent=2, sort_keys=True)
    assert "".join(chunks) == want
    assert len(chunks) == len(result.terms) + 2


def writer_inputs():
    """(name, POVM): the fixtures, real-valued and complex random POVMs of
    d = 2..4, and a qubit POVM whose every zero entry is -0.0, one of its
    elements full rank."""
    povms = [(path.name, povmdec.povm_from_json(path.read_text(encoding="utf-8")))
             for path in sorted(FIXTURES.glob("*.json"))]
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        for n in (d + 1, 2 * d * d):
            ops = oracles.random_povm(rng, d, n)
            for kind, stack in (("complex", ops), ("real", [op.real for op in ops])):
                povms.append((f"{kind}-d{d}-n{n}", povmdec.Povm(
                    dim=d, elements=tuple((str(i), op) for i, op in enumerate(stack)))))
    signed = []
    for label, op in (("z", np.eye(2) / 2), ("x+", np.full((2, 2), 0.25)),
                      ("x-", np.array([[0.25, -0.25], [-0.25, 0.25]]))):
        op = op.astype(complex)
        op.real[op.real == 0.0] = -0.0
        op.imag[:] = -0.0
        signed.append((label, op))
    return povms + [("signed-zeros", povmdec.Povm(dim=2, elements=tuple(signed)))]


def test_writer_prints_the_indented_sorted_json_through_both_paths(tmp_path):
    # a term of exactly Hermitian elements is printed from the reprs of its
    # upper triangles, any other term from every number; the CLI's bytes are
    # json's either way, on stdout and in the --output file
    exact = 0
    for name, p in writer_inputs():
        src = tmp_path / "povm.json"
        src.write_text(json.dumps(povmdec.povm_to_json(p)), encoding="utf-8")
        for flags in [[]] + [["--ordered"]] * (p.dim == 2):
            result = povmdec.ordered_decompose(p) if flags else povmdec.decompose(p)
            want = json.dumps(povmdec.decomposition_to_json(result), indent=2, sort_keys=True)
            out, err = io.StringIO(), io.StringIO()
            argv = ["decompose", "--input", str(src), *flags]
            assert cli.run(argv, out=out, err=err) == 0 and not err.getvalue()
            assert out.getvalue() == want + "\n", (name, flags)
            dst = tmp_path / "out.json"
            assert cli.run(argv + ["--output", str(dst)], out=out, err=err) == 0
            assert dst.read_bytes() == (want + "\n").encode("utf-8")
            hermitian = [bool(mirrored(ext.ops).all()) for _, ext in result.terms]
            # the skewed element of the wobble fixture keeps its bits, and its
            # term takes the general path
            assert all(hermitian) != (name == "povm-small-trace-wobble.json")
            exact += sum(hermitian)
    assert exact > 400

