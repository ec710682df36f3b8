"""Output checks for every benchmark command.

References are independent of the paths under test: the dense brute-force
oracles of ``tests/oracles.py``, closed forms written out here, and a
known-amplitude quadrature for the reading oracles.  Tolerances are those of
``tests/test_acceptance.py``; the only addition is the rounding of the
CLI's nine-significant-digit output, which every comparison allows on top.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate

import oracles


class CheckError(Exception):
    pass


# tolerances pinned in tests/test_acceptance.py
TOL_PURE = 1e-12        # criterion 1: pure closed forms; criteria 5 and 6
TOL_DENSE = 1e-9        # criterion 2: block method vs dense oracle
TOL_ASYMPTOTE = 2e-3    # criterion 4: |exact - asymptote| at load 79, r >= 0.3
TOL_BOUND = 1e-9        # criterion 7: learning machine never beats the bound
TOL_REVERSED = 1e-11    # criterion 6: reversed-order limit 5/12
TOL_RECON = 1e-9        # criterion 10: decomposition round trip

TABLE_COLUMNS = {
    "fig4.1": ["r", "Pe_n3", "Pe_n11", "Pe_n29"],
    "fig4.2": ["n", "Pe_r0.2", "Pe_r0.5", "Pe_r0.7", "Pe_r1.0"],
    "fig4.3": ["r", "Pe_n20", "asym_n20", "Pe_n79", "asym_n79"],
    "fig4.4": ["n", "Pe_hs", "Pe_bures", "Pe_chernoff"],
}

# purity prior densities on [0, 1] (tests/test_programmable.py)
PRIOR_WEIGHTS = {
    "hard-sphere": lambda r: 3 * r * r,
    "bures": lambda r: 4 / math.pi * r * r / math.sqrt(1 - r * r),
    "chernoff": lambda r: (math.sqrt(1 + r) - math.sqrt(1 - r)) ** 2
    / ((math.pi - 2) * math.sqrt(1 - r * r)),
}


def fmt_tol(x: float) -> float:
    """Largest rounding error of x printed with nine significant digits."""
    if x == 0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def near(printed: float, ref: float, tol: float, what: str):
    slack = tol + fmt_tol(printed) + fmt_tol(ref)
    require(abs(printed - ref) <= slack,
            f"{what}: {printed!r} differs from reference {ref!r} by more than {slack:.2e}")


def at_most(a: float, b: float, tol: float, what: str):
    require(a <= b + tol + fmt_tol(a) + fmt_tol(b), f"{what}: {a!r} > {b!r}")


def probability(x: float, what: str):
    require(0.0 <= x <= 0.5, f"{what}: error probability {x!r} outside [0, 1/2]")


def parse_csv(text: str, header: list) -> list:
    lines = text.splitlines()
    require(len(lines) >= 2, "no CSV data rows")
    got = lines[0].split(",")
    require(got == header, f"header {got} != {header}")
    rows = [line.split(",") for line in lines[1:]]
    require(all(len(row) == len(header) for row in rows), "ragged CSV row")
    return rows


def parse_row(text: str, header: list) -> dict:
    rows = parse_csv(text, header)
    require(len(rows) == 1, f"expected one CSV row, got {len(rows)}")
    return dict(zip(header, rows[0]))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def pure_pe(n: int, nprime: int) -> float:
    """Pure-state programmable error from the Jordan-basis closed form."""
    d = (n + 1) * (n + nprime + 1)
    total = 0.0
    for k in range(n + 1):
        c = math.comb(n, k) / math.comb(n + nprime, n - k)
        total += (nprime + 2 * k + 1) / d * math.sqrt(max(0.0, 1.0 - c * c))
    return (1.0 - total) / 2.0


class References:
    """Dense references, memoized per run (they repeat across passes)."""

    def __init__(self):
        self._memo = {}

    def _get(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def mixed(self, n: int, nprime: int, r: float) -> float:
        return self._get(("mixed", n, nprime, r),
                         lambda: oracles.programmable_mixed_error_dense(n, nprime, r))

    def pure_ports(self, na: int, nb: int, nc: int) -> float:
        return self._get(("pure", na, nb, nc),
                         lambda: oracles.programmable_pe_dense(na, nb, nc))

    def universal(self, kind: str, n: int, nprime: int) -> float:
        return self._get(("universal", kind, n, nprime),
                         lambda: self._universal_dense(kind, n, nprime))

    def _averaged_power(self, kind: str, m: int) -> np.ndarray:
        """Prior average of the direction-averaged m-fold power: isotypic
        projectors weighted by quadrature-averaged block coefficients."""
        out = np.zeros((2**m, 2**m))
        for j2, proj in oracles.isotypic_projectors(m).items():
            k = (m - j2) // 2

            def coeff(r, j2=j2, k=k):
                if r == 0.0:
                    return 0.5**m
                t = (((1 + r) / 2) ** (j2 + 1) - ((1 - r) / 2) ** (j2 + 1)) / r
                return ((1 - r * r) / 4.0) ** k * t / (j2 + 1)

            avg, _ = integrate.quad(lambda r: coeff(r) * PRIOR_WEIGHTS[kind](r),
                                    0.0, 1.0, epsabs=1e-13)
            out += avg * proj
        return out

    def _universal_dense(self, kind: str, n: int, nprime: int) -> float:
        big = self._averaged_power(kind, n + nprime)
        small = self._averaged_power(kind, n)
        diff = np.kron(big, small) - np.kron(small, big)
        return (1.0 - 0.5 * oracles.trace_norm_dense(diff)) / 2.0

    def known_reading_error(self, alpha0: float, mu: float, naux: int, order: int) -> float:
        """Average Helstrom error with the drawn amplitude known, on the same
        Gauss-Hermite nodes; no measurement of the mixture can do better."""
        x, w = np.polynomial.hermite.hermgauss(order)
        u = mu * (x[:, None] + 1j * x[None, :])
        wt = w[:, None] * w[None, :] / math.pi
        amp2 = np.abs(alpha0 + u / math.sqrt(naux)) ** 2
        return float(np.sum(wt * 0.5 * (1.0 - np.sqrt(1.0 - np.exp(-amp2)))))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

DENSE_MAX_LOAD = 3     # n <= 3 keeps the dense construction at <= 2^9 dims
PRIOR_DENSE_MAX_LOAD = 2


def _check_table(cmd, text: str, refs: References, ctx: dict):
    fig = cmd.params["figure"]
    header = TABLE_COLUMNS[fig]
    rows = [[float(c) for c in row] for row in parse_csv(text, header)]
    grid = cmd.params["grid"]
    require(len(rows) == len(grid), f"{len(rows)} rows for a {len(grid)}-point grid")
    for row, x in zip(rows, grid):
        near(row[0], x, 1e-12, "grid point")
    xs = list(grid)
    cols = list(zip(*rows))

    if fig in ("fig4.1", "fig4.2", "fig4.4"):
        for name, col in zip(header[1:], cols[1:]):
            for v in col:
                probability(v, name)
    if fig == "fig4.1":
        # Pe non-increasing in r, over every fig4.1 row of the pass so far
        seen = ctx.setdefault("fig4.1", [])
        for x, row in zip(xs, rows):
            for x0, row0 in seen:
                if x0 <= x:
                    for load, a, b in zip((3, 11, 29), row0[1:], row[1:]):
                        at_most(b, a, 0.0, f"Pe_n{load} non-increasing in r")
            seen.append((x, row))
        for load, col in zip((3, 11, 29), cols[1:]):
            for x, v in zip(xs, col):
                if abs(x - 1.0) <= 1e-12:
                    near(v, pure_pe(load, load), TOL_PURE, f"Pe_n{load} at r = 1")
                if load <= DENSE_MAX_LOAD:
                    near(v, refs.mixed(load, load, x), TOL_DENSE, f"Pe_n{load} vs dense")
    elif fig == "fig4.2":
        purities = (0.2, 0.5, 0.7, 1.0)
        for x, row in zip(xs, rows):
            n = int(round(x))
            for a, b in zip(row[1:], row[2:]):
                at_most(b, a, 0.0, f"n={n}: Pe non-increasing in r")
            near(row[4], pure_pe(n, n), TOL_PURE, f"n={n}: Pe at r = 1")
            if n <= DENSE_MAX_LOAD:
                for r, v in zip(purities, row[1:]):
                    near(v, refs.mixed(n, n, r), TOL_DENSE, f"n={n}, r={r} vs dense")
    elif fig == "fig4.3":
        for load, pe_col, asym_col in ((20, cols[1], cols[2]), (79, cols[3], cols[4])):
            for v in pe_col:
                probability(v, f"Pe_n{load}")
            for a, b in zip(pe_col, pe_col[1:]):
                at_most(b, a, 0.0, f"Pe_n{load} non-increasing in r")
            for x, pe, asym in zip(xs, pe_col, asym_col):
                near(asym, 0.5 - x / 3.0 + 1.0 / (3.0 * load * x), TOL_PURE,
                     f"asym_n{load} closed form")
                if load == 79 and x >= 0.3:
                    near(pe, asym, TOL_ASYMPTOTE, "criterion 4: Pe_n79 vs asymptote")
    elif fig == "fig4.4":
        for x, row in zip(xs, rows):
            n = int(round(x))
            if n <= PRIOR_DENSE_MAX_LOAD:
                for kind, v in zip(("hard-sphere", "bures", "chernoff"), row[1:]):
                    near(v, refs.universal(kind, n, n), TOL_DENSE,
                         f"n={n} {kind} vs dense prior average")


# ---------------------------------------------------------------------------
# learning and reading
# ---------------------------------------------------------------------------


def _check_learn_sdp(cmd, text, refs, ctx):
    n, r = cmd.params["n"], cmd.params["r"]
    row = parse_row(text, ["n", "r", "delta_lm", "Pe", "excess_risk"])
    delta, pe, excess = (float(row[k]) for k in ("delta_lm", "Pe", "excess_risk"))
    probability(pe, "Pe_lm")
    # quantities derived from printed values also carry those values' rounding
    near(pe, (1.0 - delta / 2.0) / 2.0, TOL_PURE + fmt_tol(delta) / 4.0, "Pe from delta_lm")
    near(excess, pe - (0.5 - r / 3.0), TOL_PURE + fmt_tol(pe), "excess over the known-pair error")
    at_most(refs.mixed(n, 1, r), pe, TOL_BOUND, "Pe_lm >= programmable bound")


def _check_programmable(cmd, text, refs, ctx):
    n, nprime, r = cmd.params["n"], cmd.params["nprime"], cmd.params["r"]
    row = parse_row(text, ["n", "nprime", "r", "Pe"])
    pe = float(row["Pe"])
    probability(pe, "Pe")
    near(pe, refs.mixed(n, nprime, r), TOL_DENSE, "programmable bound vs dense")


def _check_read_oracle(cmd, text, refs, ctx):
    p = cmd.params
    row = parse_row(text, ["alpha0", "strategy", "naux", "mu", "Pe"])
    require(row["strategy"] == p["strategy"], f"strategy {row['strategy']!r}")
    pe = float(row["Pe"])
    probability(pe, "Pe")
    known = refs.known_reading_error(p["alpha0"], p["mu"], p["naux"], p["quad"])
    at_most(known, pe, TOL_DENSE, "known-amplitude error <= oracle Pe")
    ctx[("read-oracle", p["strategy"])] = pe
    if p["strategy"] == "eyd" and ("read-oracle", "collective") in ctx:
        at_most(ctx[("read-oracle", "collective")], pe, TOL_DENSE, "collective Pe <= eyd Pe")


def _check_learn_closed(cmd, text, refs, ctx):
    n, strategy = cmd.params["n"], cmd.params["strategy"]
    bound = refs.pure_ports(n, 1, n)
    if strategy == "reversed":
        pe = float(parse_row(text, ["n", "Pe"])["Pe"])
        at_most(5.0 / 12.0, pe, TOL_REVERSED, "reversed order stays above 5/12")
    else:
        row = parse_row(text, ["n", "Pe", "excess_risk"])
        pe, excess = float(row["Pe"]), float(row["excess_risk"])
        if strategy == "lm":
            near(pe, bound, TOL_PURE, "learning machine equals the programmable bound")
            near(excess, pe - 1.0 / 6.0, TOL_PURE + fmt_tol(pe), "excess risk")
        elif n == 1:
            near(excess, (4.0 - math.sqrt(2.0)) / 12.0, TOL_PURE, "R_eyd(1)")
    probability(pe, "Pe")
    at_most(bound, pe, TOL_PURE, "no strategy beats the programmable bound")


def _check_read_closed(cmd, text, refs, ctx):
    strategy = cmd.params["strategy"]
    if strategy == "collective":
        risk = float(parse_row(text, ["alpha0", "strategy", "excess_risk"])["excess_risk"])
    else:
        row = parse_row(text, ["alpha0", "strategy", "squeeze", "excess_risk"])
        risk = float(row["excess_risk"])
    require(risk > 0.0 and math.isfinite(risk), f"excess risk {risk!r}")
    ctx[("read-closed", strategy)] = risk
    if strategy == "eyd" and ("read-closed", "collective") in ctx:
        require(ctx[("read-closed", "collective")] < risk,
                "criterion 9: collective excess risk below eyd")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def extremal(mats: list, dim: int) -> bool:
    """The criterion of ``povmdec.is_extremal``, restated: every element has
    rank 1, and the elements are linearly independent and at most d^2."""
    vecs = []
    for op in mats:
        w = np.linalg.eigvalsh((op + op.conj().T) / 2)
        tr = float(np.sum(w))
        if tr <= 0 or w[-1] < tr * (1.0 - 1e-8):
            return False
        vecs.append((op / tr).ravel())
    if len(vecs) > dim * dim:
        return False
    stack = np.array(vecs).T
    s = np.linalg.svd(np.vstack([stack.real, stack.imag]), compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0])) == len(vecs)


def _check_decompose(cmd, text, refs, ctx):
    d, ops = cmd.params["dim"], cmd.params["ops"]
    data = json.loads(text)
    relabel = data["relabel"]
    terms = data["terms"]
    nbar = len(relabel)
    require(1 <= len(terms) <= (nbar - 1) * d + 1,
            f"{len(terms)} terms exceed the bound (N-1)d+1 = {(nbar - 1) * d + 1}")
    recon = {str(i): np.zeros((d, d), dtype=complex) for i in range(len(ops))}
    for k, term in enumerate(terms):
        p = float(term["probability"])
        require(p >= 0.0, f"term {k}: negative probability {p!r}")
        ext = term["extremal"]
        require(int(ext["dim"]) == d, f"term {k}: dimension {ext['dim']}")
        mats = [_matrix(e["matrix"]) for e in ext["elements"]]
        require(extremal(mats, d), f"term {k} is not an extremal rank-1 POVM")
        for e, m in zip(ext["elements"], mats):
            recon[relabel[e["label"]]] += p * m
    worst = max(float(np.abs(recon[str(i)] - op).max()) for i, op in enumerate(ops))
    require(worst <= TOL_RECON, f"reconstruction error {worst:.2e}")


CHECKERS = {
    "table": _check_table,
    "learn-sdp": _check_learn_sdp,
    "programmable": _check_programmable,
    "read-oracle": _check_read_oracle,
    "learn-closed": _check_learn_closed,
    "read-closed": _check_read_closed,
    "decompose": _check_decompose,
}


def check_pass(commands: list, outcomes: list, refs: References) -> list:
    """One entry per command: None when it ran and its output checks out,
    otherwise the reason it failed."""
    ctx = {}
    verdicts = []
    for cmd, outcome in zip(commands, outcomes):
        if outcome.error is not None:
            verdicts.append(f"raised: {outcome.error.strip().splitlines()[-1]}")
        elif outcome.code != 0:
            verdicts.append(f"exit code {outcome.code}: {outcome.stderr.strip()}")
        else:
            try:
                CHECKERS[cmd.kind](cmd, outcome.stdout, refs, ctx)
                verdicts.append(None)
            except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts.append(f"{type(exc).__name__}: {exc}")
    return verdicts
