"""Seeded inputs for the three benchmark workloads.

A workload is a list of passes.  A pass is the list of ``qdl`` command lines
one user runs in turn (closed loop, one client), each with the parameters
its output check needs.  Parameters are drawn from fixed bands, so the work
in a pass barely moves between seeds; the program only ever sees the argv
and the POVM JSON files written here.

Why these workloads:

* ``tables`` -- ``angular`` + ``programmable`` do nearly all the work.  The
  fig4.1/fig4.3 r-sweeps at fixed loads reuse the same (ja, jb, jc, J)
  sectors row after row; the fig4.2/fig4.4 n-sweeps and prior averages reuse
  less.  Purity 1 (most sectors pruned) sits beside mid purity (none).
* ``learn-read`` -- ``learning`` (SLSQP restarts) and ``reading`` (one
  large dense eigensolve for the collective oracle, many small ones for
  eyd) do the work, and the dense oracle sets this workload's memory peak.
  ``programmable`` runs here only at small n: the same layer used lightly.
* ``decompose`` -- ``povmdec`` + ``linalg`` do the work on random POVMs
  from the criterion-10 distribution (d = 2..4, N in [d, 3 d^2]), with N at
  the centres of equal strata of that range, so every pass holds the same
  mix and only the random matrices change.  Many short commands expose the
  fixed per-command cost; ``--ordered`` re-solves the vertex LP many times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("tables", "learn-read", "decompose")

# input sets generated before timing; a run that needs more passes reuses
# them in turn
PASSES = 12

# decompose: POVMs per pass for each dimension
DECOMPOSE_STRATA = {2: 4, 3: 3, 4: 3}

# reading oracles: prior width, auxiliary modes and quadrature order keep the
# collective operator near 1.3k dimensions (about 25 MB); the amplitude band
# [0.92, 1.0] keeps every Fock cutoff the same
READ_ORACLE = {"naux": 16, "mu": 0.5, "quad": 8}


@dataclass
class Command:
    argv: list
    kind: str
    params: dict = field(default_factory=dict)


def _num(x) -> str:
    return repr(float(x))


def grid(xmin: float, xmax: float, step: float) -> list:
    """Grid points of ``qdl table --xmin --xmax --step`` (both ends inclusive)."""
    out = []
    k = 0
    while True:
        x = xmin + k * step
        if x > xmax + step * 1e-9:
            return out
        out.append(min(x, xmax))
        k += 1


def _table(figure: str, xmin, xmax, step) -> Command:
    argv = ["table", "--figure", figure, "--xmin", _num(xmin), "--xmax", _num(xmax),
            "--step", _num(step)]
    return Command(argv, "table", {"figure": figure, "grid": grid(xmin, xmax, step)})


def _tables_pass(rng) -> list:
    r41 = round(float(rng.uniform(0.6, 0.7)), 4)
    r43 = round(float(rng.uniform(0.3, 0.35)), 4)
    s43 = round(float(rng.uniform(0.15, 0.17)), 4)
    return [
        # fig4.1 at loads 3/11/29: one mid purity (no sector pruned), then
        # purity 1 (most pruned), as two single-row tables
        _table("fig4.1", r41, r41, 0.1),
        _table("fig4.1", 1.0, 1.0, 0.1),
        _table("fig4.2", int(rng.integers(1, 3)), 14, 1),
        _table("fig4.3", r43, r43 + 3 * s43, s43),
        _table("fig4.4", int(rng.integers(1, 3)), 12, 1),
    ]


def _learn_read_pass(rng) -> list:
    cmds = []
    for n in (1, 2):
        r = round(float(rng.uniform(0.55, 0.75)), 4)
        cmds.append(Command(
            ["learn", "--n", str(n), "--strategy", "sdp", "--purity", _num(r)],
            "learn-sdp", {"n": n, "r": r}))
        cmds.append(Command(
            ["programmable", "--n", str(n), "--nprime", "1", "--purity", _num(r)],
            "programmable", {"n": n, "nprime": 1, "r": r}))
    a0 = round(float(rng.uniform(0.92, 1.0)), 4)
    squeeze = round(float(rng.uniform(0.2, 0.5)), 4)
    oracle = ["--oracle", "--naux", str(READ_ORACLE["naux"]), "--mu", _num(READ_ORACLE["mu"]),
              "--quad", str(READ_ORACLE["quad"])]
    params = {"alpha0": a0, **READ_ORACLE}
    cmds.append(Command(["read", "--alpha0", _num(a0), "--strategy", "collective", *oracle],
                        "read-oracle", {**params, "strategy": "collective"}))
    cmds.append(Command(["read", "--alpha0", _num(a0), "--strategy", "eyd", *oracle,
                         "--squeeze", _num(squeeze)],
                        "read-oracle", {**params, "strategy": "eyd"}))
    m = int(rng.integers(1, 4))
    for strategy in ("lm", "eyd", "reversed"):
        cmds.append(Command(["learn", "--n", str(m), "--strategy", strategy],
                            "learn-closed", {"n": m, "strategy": strategy}))
    for strategy in ("collective", "eyd"):
        cmds.append(Command(["read", "--alpha0", _num(a0), "--strategy", strategy],
                            "read-closed", {"alpha0": a0, "strategy": strategy}))
    return cmds


def random_povm(rng, dim: int, outcomes: int) -> list:
    """Random POVM from normalized complex Wishart factors (the criterion-10
    distribution; kept here so that the inputs never move with the tests)."""
    gs = []
    for _ in range(outcomes):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gs.append(a @ a.conj().T)
    w, v = np.linalg.eigh(sum(gs))
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ g @ inv_sqrt for g in gs]


def povm_json(ops: list) -> dict:
    """The documented POVM wire format: row-major [re, im] entry pairs."""
    return {
        "dim": int(ops[0].shape[0]),
        "elements": [
            {"label": str(i),
             "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op]}
            for i, op in enumerate(ops)
        ],
    }


def _decompose_pass(rng, directory: Path, k: int) -> list:
    cmds = []
    for d, count in DECOMPOSE_STRATA.items():
        lo, hi = d, 3 * d * d
        for i in range(count):
            n = lo + int((i + 0.5) * (hi - lo + 1) / count)  # centre of stratum i
            ops = random_povm(rng, d, n)
            path = directory / f"povm-{k:02d}-d{d}-{i}.json"
            path.write_text(json.dumps(povm_json(ops)), encoding="utf-8")
            params = {"dim": d, "ops": ops}
            cmds.append(Command(["decompose", "--input", str(path)], "decompose", params))
            if d == 2:
                cmds.append(Command(["decompose", "--input", str(path), "--ordered"],
                                    "decompose", params))
    return cmds


def generate(workload: str, seed: int, directory: Path) -> list:
    """PASSES input sets for a workload; POVM files are written to directory."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    passes = []
    for k in range(PASSES):
        rng = np.random.default_rng([seed, k])
        if workload == "tables":
            passes.append(_tables_pass(rng))
        elif workload == "learn-read":
            passes.append(_learn_read_pass(rng))
        else:
            passes.append(_decompose_pass(rng, directory, k))
    return passes
