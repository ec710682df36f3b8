"""Constructive decomposition of finite-outcome POVMs into extremal rank-1
measurements.

In the generalized Bloch picture a rank-1 POVM is a weighted set of points
on a sphere whose weighted barycentre sits at the origin; feasible weight
redistributions form a polytope whose vertices are exactly the extremal
measurements assembled from the original elements.  A phase-1 revised
simplex with an explicit, eta-updated basis inverse finds one vertex per
step, the largest extractable probability is peeled off, and at least one
outcome dies each round, so an N-outcome rank-1 POVM on dimension d splits
into at most (N-1)d + 1 extremals.  The vertex LP never changes between
rounds except that columns die, so each search resumes from the previous
optimal basis; the ordered decomposition's neighbour searches price one
more column out of the same LP.  Higher-rank inputs are first split along
their eigenbases, with a relabelling map carrying the outcomes back.

A POVM holds its elements as one (N, d, d) stack; every trace, spectrum,
Bloch vector and JSON matrix is taken over the whole stack at once, and the
Bloch points are plain arrays: N weights and N rows of Bloch vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg

SUM_TOL = 1e-9
PSD_TOL = 1e-9
_ZERO = 1e-10  # simplex zero threshold on reduced costs and weights


class InfeasiblePovmError(ValueError):
    """The weighted Bloch points cannot balance: the offending input is not a
    POVM.  Carries a separating vector with negative product against every
    point."""

    def __init__(self, message: str, certificate: np.ndarray):
        super().__init__(message)
        self.certificate = certificate


class UnsupportedCriterionError(ValueError):
    """Ordering criterion without a validity guarantee in this dimension."""


@dataclass(frozen=True)
class Povm:
    """Labelled positive elements resolving the identity on dimension d;
    ``ops`` is their (N, d, d) stack, whose rows ``elements`` holds."""

    dim: int
    elements: tuple
    ops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if not self.elements:
            raise ValueError("a POVM needs at least one element")
        labels = tuple(str(label) for label, _ in self.elements)
        ops = linalg.require_hermitian(
            [op for _, op in self.elements], names=[f"element {lb!r}" for lb in labels]
        )
        if ops.shape[1] != self.dim:
            raise ValueError(f"elements of shape {ops.shape[1:]} on dimension {self.dim}")
        object.__setattr__(self, "elements", tuple(zip(labels, ops)))
        object.__setattr__(self, "ops", ops)

    @classmethod
    def _of_stack(cls, dim: int, labels, ops: np.ndarray) -> "Povm":
        """A Povm over a complex stack that is Hermitian by construction; a
        re-check of x E / tr E would scale E's tolerated skew part by 1 / tr E."""
        p = object.__new__(cls)
        p.__dict__.update(dim=dim, elements=tuple(zip(labels, ops)), ops=ops)
        return p

    def total(self) -> np.ndarray:
        return self.ops.sum(axis=0)

    def labels(self) -> tuple:
        return tuple(label for label, _ in self.elements)


@dataclass(frozen=True)
class DecompositionResult:
    """Probability-weighted extremal POVMs plus the outcome relabelling."""

    terms: tuple
    relabel: dict

    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.terms])

    def reconstruct(self, dim: int, labels) -> dict:
        """Aggregate p_k * elements through the relabel map, per original label."""
        out = {lab: np.zeros((dim, dim), dtype=complex) for lab in labels}
        for p, extremal in self.terms:
            for lab, op in extremal.elements:
                out[self.relabel[lab]] += p * op
        return out


@dataclass
class PovmDiagnostics:
    weight_residual: float
    barycentre_residual: float
    identity_residual: float
    min_eigenvalues: dict
    is_valid: bool = field(init=False)

    def __post_init__(self):
        self.is_valid = (
            self.identity_residual <= SUM_TOL
            and min(self.min_eigenvalues.values(), default=0.0) >= -PSD_TOL
        )


def gellmann_basis(d: int) -> list[np.ndarray]:
    """Generalized Gell-Mann generators of SU(d): d^2 - 1 traceless Hermitian
    matrices with tr(g_i g_j) = 2 delta_ij.  For d = 2 these are the Pauli
    matrices."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            out.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j
            anti[k, j] = 1j
            out.append(anti)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        out.append(np.diag(diag * math.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return out


@lru_cache(maxsize=16)
def _generator_stack(d: int) -> np.ndarray:
    return np.stack(gellmann_basis(d))


def _bloch(ops: np.ndarray):
    """Traces, normalized elements and Bloch vectors of a stack of elements.
    A row of zero trace normalizes to NaN; callers drop it by its trace."""
    traces = np.trace(ops, axis1=1, axis2=2).real
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = ops / traces[:, None, None]
    vectors = np.einsum("gij,nji->ng", _generator_stack(ops.shape[1]), normalized).real
    return traces, normalized, vectors


def bloch_points(p: Povm) -> tuple[np.ndarray, np.ndarray]:
    """Weights (traces) and Bloch vectors, one row each, of the elements of
    positive trace."""
    traces, _, vectors = _bloch(p.ops)
    keep = traces > _ZERO
    return traces[keep], vectors[keep]


def element_from_bloch(weight: float, vector: np.ndarray, d: int) -> np.ndarray:
    """Reconstruct weight * (1/d + v.generators / 2) from a Bloch point."""
    gens = _generator_stack(d)
    return weight * (np.eye(d) / d + 0.5 * np.einsum("g,gij->ij", vector, gens))


def validate_povm(p: Povm) -> PovmDiagnostics:
    """Diagnostics only, never raises: identity and barycentre residuals plus
    the smallest eigenvalue of every element."""
    weights, vectors = bloch_points(p)
    return PovmDiagnostics(
        weight_residual=float(abs(weights.sum() - p.dim)),
        barycentre_residual=float(np.linalg.norm(weights @ vectors)),
        identity_residual=float(np.abs(p.total() - np.eye(p.dim)).max()),
        min_eigenvalues=dict(zip(p.labels(), np.linalg.eigvalsh(p.ops)[:, 0].tolist())),
    )


def require_valid(p: Povm) -> PovmDiagnostics:
    diag = validate_povm(p)
    if not diag.is_valid:
        raise ValueError(
            f"not a POVM: identity residual {diag.identity_residual:.2e}, "
            f"min eigenvalue {min(diag.min_eigenvalues.values()):.2e}"
        )
    return diag


def rank1_expand(p: Povm) -> tuple[Povm, dict]:
    """Split every element along its eigenbasis into rank-1 outcomes.

    Eigenvalues below 1e-10 of the element trace are dropped as numerical
    zeros.  Returns the rank-1 POVM and the map from new labels back to the
    source outcomes; aggregating through the map recovers the input.
    """
    w, v = np.linalg.eigh((p.ops + p.ops.conj().transpose(0, 2, 1)) / 2)
    w, v = w[:, ::-1], v[:, :, ::-1]  # eigenvalues descending
    sums = w.sum(axis=1)
    tr = np.maximum(sums, _ZERO)
    new_elements = []
    relabel = {}
    for k, (label, op) in enumerate(p.elements):
        keep = np.flatnonzero(w[k] > 1e-10 * tr[k])
        if len(keep) == 1 and abs(w[k, keep[0]] - sums[k]) < 1e-12 * tr[k]:
            new_elements.append((label, op))
            relabel[label] = label
            continue
        for pos, i in enumerate(keep):
            vec = v[k, :, i]
            new_label = f"{label}#{pos}" if len(keep) > 1 else label
            new_elements.append((new_label, w[k, i] * np.outer(vec, vec.conj())))
            relabel[new_label] = label
    labels, ops = zip(*new_elements)
    return Povm._of_stack(p.dim, labels, np.stack(ops)), relabel


def _phase1_simplex(cols, b, cost, basis, binv):
    """Phase 1 of the revised simplex method for cols x = b, x >= 0, b >= 0.

    The last m columns of cols are the identity block of the artificials.
    cost is 1 on the artificials and on every column to be driven out, 0
    elsewhere; apart from the artificials, a column of cost 1 never enters.
    The walk starts from `basis`, m column indices whose basic solution is
    feasible, with the explicit basis inverse `binv`.  Both are updated in
    place, so a later call that prices out more columns resumes from the
    final basis.  Each pivot updates binv by one eta (rank-1) step, and
    binv is refactorized every m pivots.  The entering column has the
    steepest cost, the smallest basic index leaves among ratio ties, and
    Bland's anti-cycling rule takes over once the objective stalls for more
    than m + 10 steps.  The final basis is solved once more with LAPACK, so
    no update drift reaches the result.  Returns (x, None) when the optimum
    is zero and (None, dual certificate y with y.A <= 0, y.b > 0) otherwise.
    """
    m, ncol = cols.shape
    barred = cost > 0.0
    barred[ncol - m:] = False
    closed = barred.copy()  # columns that may not enter: barred or basic
    closed[basis] = True
    bland = False
    last_obj = math.inf
    stall = 0
    ratios = np.empty(m)
    for step in range(1, 500 * ncol + 1):
        cb = cost[basis]
        gain = (cb @ binv) @ cols - cost  # minus the reduced costs
        gain[closed] = 0.0
        entering = int((gain > _ZERO).argmax() if bland else gain.argmax())
        if gain[entering] <= _ZERO:
            bmat = cols[:, basis]
            xb = np.maximum(np.linalg.solve(bmat, b), 0.0)
            if cb @ xb > 1e-8:
                return None, np.linalg.solve(bmat.T, cb)
            x = np.zeros(ncol)
            x[basis] = xb
            return x, None
        xb = np.maximum(binv @ b, 0.0)
        direction = binv @ cols[:, entering]
        ratios.fill(math.inf)
        np.divide(xb, direction, out=ratios, where=direction > _ZERO)
        best = ratios.min()
        if best == math.inf:
            raise RuntimeError("unbounded feasibility subproblem")
        tied = (ratios <= best + 1e-12).nonzero()[0]
        leave = tied[basis[tied].argmin()]
        obj = float(cb @ xb)
        stall = stall + 1 if obj >= last_obj - 1e-13 else 0
        bland = bland or stall > m + 10
        last_obj = obj
        closed[basis[leave]] = barred[basis[leave]]
        closed[entering] = True
        basis[leave] = entering
        row = binv[leave] / direction[leave]
        binv -= direction[:, None] * row
        binv[leave] = row
        if step % m == 0:
            binv[:] = np.linalg.inv(cols[:, basis])
    raise RuntimeError("simplex iteration limit exceeded")


def _vertex_lp(vectors: np.ndarray):
    """Cold start of the vertex LP over the rows of vectors: the columns
    [vectors^T; 1 | I], the right-hand side (0, ..., 0, d), phase-1 cost 1 on
    the artificials, and the all-artificial basis with its inverse."""
    n, nvec = vectors.shape
    m = nvec + 1
    cols = np.hstack([np.vstack([vectors.T, np.ones(n)]), np.eye(m)])
    b = np.zeros(m)
    b[-1] = math.isqrt(m)
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    return cols, b, cost, np.arange(n, n + m), np.eye(m)


def _solve_vertex(cols, b, cost, basis, binv) -> np.ndarray:
    x, certificate = _phase1_simplex(cols, b, cost, basis, binv)
    if x is None:
        nu = certificate[:-1]
        norm = np.linalg.norm(nu)
        raise InfeasiblePovmError(
            "weighted Bloch points admit no balancing: not a POVM",
            nu / norm if norm > 0 else nu,
        )
    return x[: -len(b)]


def find_extremal_vertex(vectors: np.ndarray) -> np.ndarray:
    """One vertex of the feasible-weight polytope over the Bloch vectors v_i,
    the rows of an (N, d^2 - 1) array: coefficients x >= 0 with
    sum x_i = d and sum x_i v_i = 0, supported on at most d^2 points.

    When no such x exists the input was not a POVM; the raised error carries
    a vector whose product with every Bloch vector is negative.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or not len(vectors):
        raise ValueError("no points given")
    d = math.isqrt(vectors.shape[1] + 1)
    if d * d != vectors.shape[1] + 1:
        raise ValueError("Bloch vectors must have length d^2 - 1")
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(bad):
        raise ValueError(f"Bloch vector {bad[0]} {vectors[bad[0]].tolist()} is not finite")
    return _solve_vertex(*_vertex_lp(vectors))


def is_extremal(p: Povm) -> tuple[bool, np.ndarray | None]:
    """Extremality of a rank-1 POVM: linearly independent elements and at
    most d^2 of them.

    A failing POVM returns a null-space witness: coefficients y (one per
    element, relative to the normalized elements) with sum y_i E_i = 0, along
    which the measurement splits into two distinct POVMs.
    """
    w = np.linalg.eigvalsh(p.ops)
    tr = w.sum(axis=1)
    high = (tr > _ZERO) & (w[:, -1] < tr * (1.0 - 1e-8))
    if high.any():
        raise ValueError(
            f"element {p.labels()[np.argmax(high)]!r} has rank > 1; "
            "expand with rank1_expand first"
        )
    stack = (p.ops / tr[:, None, None]).reshape(len(tr), -1).T  # (d^2 complex, N)
    stack = np.vstack([stack.real, stack.imag])
    _, s, vh = np.linalg.svd(stack)
    rank = int(np.sum(s > 1e-10 * (s[0] if len(s) else 1.0)))
    if rank == len(p.elements) and len(p.elements) <= p.dim**2:
        return True, None
    return False, vh[-1]


def _extraction_loop(p: Povm, refine=None) -> DecompositionResult:
    """Shared peeling loop over the rank-1 expansion of a valid POVM.

    The normalized elements and their Bloch vectors never change; only the
    weight vector evolves, renormalized to its exact total each step.  The
    vertex LP is built once: its columns are fixed and the current weights
    always balance, so each search resumes from the previous optimal basis
    with the dead outcomes priced out (phase-1 cost 1, barred from
    re-entering), and only has to pivot them out of the basis.
    refine(lp, live, vectors, x), if given, may swap the vertex found for
    another one over the live Bloch vectors, leaving lp as it found it.  A
    step is final when its vertex uses every live outcome, or when the
    sliver it would leave carries reconstruction mass remaining * (1 - prob)
    <= SUM_TOL, which the final term then takes.  The rule measures that
    absolute mass: each renormalization multiplies the remainder's relative
    imbalance by 1 / (1 - prob), so a relative rule (on 1 - prob or on the
    imbalance) ends the loop while live outcomes still carry mass, or walks
    into remainders of pure rounding.  A remainder that still admits no
    balancing is refused with a ValueError naming the step.
    """
    residual = require_valid(p).identity_residual
    rank1, relabel = rank1_expand(p)
    d = rank1.dim
    labels = rank1.labels()
    weights, normalized, vectors = _bloch(rank1.ops)
    lp = _vertex_lp(vectors)
    cost = lp[2]
    live = np.arange(len(labels))
    terms = []
    remaining = 1.0
    for step in range(1, len(labels) + 2):
        try:
            x = _solve_vertex(*lp)[live]
        except InfeasiblePovmError as exc:
            raise ValueError(f"cannot decompose: the remainder at step {step}, of probability "
                             f"{remaining:.3e}, admits no balancing (the input's identity "
                             f"residual is {residual:.2e})") from exc
        if refine is not None:
            x = refine(lp, live, vectors[live], x)
        support = x > _ZERO
        prob = float((weights[live][support] / x[support]).min())
        final = remaining * (1.0 - prob) <= SUM_TOL or int(support.sum()) == live.size
        keep = live[support]
        ops = x[support, None, None] * normalized[keep]
        extremal = Povm._of_stack(d, [labels[i] for i in keep], ops)
        terms.append((remaining if final else remaining * prob, extremal))
        if final:
            return DecompositionResult(terms=tuple(terms), relabel=relabel)
        raw = np.maximum(weights[live] - prob * x, 0.0)
        raw[raw <= _ZERO * (1.0 - prob)] = 0.0
        raw *= d / raw.sum()
        weights[live] = raw
        cost[live[raw == 0.0]] = 1.0
        live = live[raw > 0.0]
        remaining *= 1.0 - prob
    raise RuntimeError("extraction failed to terminate")


def decompose(p: Povm) -> DecompositionResult:
    """Express a POVM as a probability mixture of extremal rank-1 POVMs.

    Repeatedly finds a vertex, extracts it with the largest admissible
    probability (eliminating at least one live outcome), and recurses on the
    remainder.  Supports a classical relabelling step for inputs of rank
    above 1.
    """
    return _extraction_loop(p)


# ---------------------------------------------------------------------------
# ordered decompositions
# ---------------------------------------------------------------------------


def _vertex_quality(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def _neighboring_vertices(lp, live, x: np.ndarray, solved: dict) -> list:
    """For each support element k of x, the vertex that a cold walk finds on
    the face x_k = 0, not necessarily one pivot from x: the step's vertex LP,
    solved from its all-artificial basis with k priced out too, pivots as one
    built without k.  ``solved`` keeps each drop's vertex over the live
    outcomes (None if infeasible)."""
    cols, b, cost = lp[:3]
    drops = (x > _ZERO).nonzero()[0].tolist() if len(live) >= 3 else []
    for drop in drops:
        if drop not in solved:
            priced = cost.copy()
            priced[live[drop]] = 1.0
            start = np.arange(len(cost) - len(b), len(cost))
            try:
                solved[drop] = _solve_vertex(cols, b, priced, start, np.eye(len(b)))[live]
            except InfeasiblePovmError:
                solved[drop] = None
    return [solved[k] for k in drops if solved[k] is not None]


def _antipodal_vertices(vectors: np.ndarray) -> np.ndarray:
    """Two-outcome vertices, one per row, in lexicographic order of the
    pair: pairs of opposite unit Bloch vectors (d = 2)."""
    pairs = np.argwhere(np.triu(vectors @ vectors.T < -1.0 + 1e-9, 1))
    out = np.zeros((len(pairs), len(vectors)))
    out[np.arange(len(pairs))[:, None], pairs] = 1.0
    return out


def ordered_decompose(p: Povm, criterion: str = "fewest-outcomes") -> DecompositionResult:
    """Decomposition biased toward extremals with fewer outcomes.

    Valid for d = 2 only, where the sum-of-squares vertex quality provably
    ranks two-outcome above three- above four-outcome extremals; beyond
    dimension 2 no ordering criterion is guaranteed and the call is refused.
    Each extraction climbs from the feasibility vertex through the vertices
    on the faces x_k = 0 of its support, then tries every antipodal pair.
    """
    if criterion != "fewest-outcomes":
        raise UnsupportedCriterionError(f"unknown criterion {criterion!r}")
    if p.dim != 2:
        raise UnsupportedCriterionError(
            "the fewest-outcomes ordering is only guaranteed for dimension 2"
        )

    def refine(lp, live, vectors, best):
        solved = {}  # the live outcomes are fixed within one extraction step
        improved = True
        while improved:
            improved = False
            for cand in _neighboring_vertices(lp, live, best, solved):
                if _vertex_quality(cand) > _vertex_quality(best) + 1e-12:
                    best, improved = cand, True
        for cand in _antipodal_vertices(vectors):
            if _vertex_quality(cand) > _vertex_quality(best) + 1e-12:
                best = cand
        return best

    return _extraction_loop(p, refine)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def povm_to_json(p: Povm) -> dict:
    """Each matrix as rows of [re, im] entry pairs."""
    matrices = np.stack([p.ops.real, p.ops.imag], -1).tolist()
    return {
        "dim": p.dim,
        "elements": [{"label": lab, "matrix": m} for lab, m in zip(p.labels(), matrices)],
    }


def povm_from_json(data) -> Povm:
    """Inverse of :func:`povm_to_json`.  A malformed document raises a
    ``ValueError`` that names the element at fault by index and label."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"POVM JSON must be an object, not a {type(data).__name__}")
    where = "POVM JSON"
    try:
        dim = data["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError(f"dim {dim!r} is not an integer")
        elements = []
        for k, e in enumerate(data["elements"]):
            where = f"POVM JSON element {k}"  # by index alone if the label is missing
            where += f" {e['label']!r}"
            m = np.ascontiguousarray(e["matrix"], dtype=float)
            if m.shape != (dim, dim, 2):
                raise ValueError(f"matrix of shape {m.shape} is not ({dim}, {dim}, 2)")
            # a float64 (re, im) pair is laid out as one complex128: exactly
            # complex(re, im), signed zeros included
            elements.append((e["label"], m.view(complex)[..., 0]))
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"{where}: {reason}") from exc
    return Povm(dim=dim, elements=tuple(elements))


def decomposition_to_json(result: DecompositionResult) -> dict:
    return {
        "terms": [
            {"probability": float(p), "extremal": povm_to_json(extremal)}
            for p, extremal in result.terms
        ],
        "relabel": dict(result.relabel),
    }


# The indented text of decomposition_to_json, written without the pure-Python
# encoder that json.dumps(indent=2) falls back to.  Every matrix is written
# through one template per dimension with a %r slot per number: repr is how
# json writes a finite float, and Povm refuses NaN and infinite entries.
_ELEMENT = """{
            "label": %s,
            "matrix": [
              [
                [
                  %s
                ]
              ]
            ]
          }"""
_TERM = """{
      "extremal": {
        "dim": %s,
        "elements": [
          %s
        ]
      },
      "probability": %s
    }"""


@lru_cache(maxsize=16)
def _element_template(d: int) -> str:
    """_ELEMENT for a d x d matrix, with a %s slot for the encoded label and
    then a %r slot for each number, in the order of the flattened pairs."""
    number, entry, row = ("\n" + " " * depth for depth in (18, 16, 14))
    text = f"{entry}],{entry}[{number}".join([f"%r,{number}%r"] * d)
    return _ELEMENT % ("%s", f"{entry}]{row}],{row}[{entry}[{number}".join([text] * d))


def _write_decomposition(result: DecompositionResult, write) -> None:
    """Pass ``json.dumps(decomposition_to_json(result), indent=2,
    sort_keys=True)`` to ``write`` in chunks of one term each."""
    relabel = json.dumps(dict(result.relabel), indent=2, sort_keys=True)
    write('{\n  "relabel": %s,\n  "terms": [' % relabel.replace("\n", "\n  "))
    sep = "\n    "
    for p, extremal in result.terms:
        ops = extremal.ops
        body = _element_template(extremal.dim)
        rows = np.stack([ops.real, ops.imag], -1).reshape(len(ops), -1).tolist()
        elements = ",\n          ".join(
            body % (json.dumps(label), *row) for label, row in zip(extremal.labels(), rows)
        )
        write(sep + _TERM % (json.dumps(extremal.dim), elements, json.dumps(float(p))))
        sep = ",\n    "
    write("\n  ]\n}" if result.terms else "]\n}")
