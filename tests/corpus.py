"""Byte-identity corpus of ``qdl`` commands.

Every command of the corpus is run in-process through ``qdl.cli.run``, in a
fresh working directory that holds its inputs and is named by relative
paths only, so nothing it prints depends on where it ran.  Its record is the
exit code and the sha256 of stdout, of stderr and of each ``--output``,
``--out`` or ``--svg`` file (null where no file was written).  Beside the
hashes it keeps the text of stderr, of every stdout but a decomposition's,
and of each CSV file, so that a moved digit shows.  The commands, each
distinct command line once, are:

* the CLI examples of the README;
* refused inputs and usage errors of every command: not a POVM, malformed,
  missing; bad copy counts, purities, margins and grids; mutually exclusive
  modes; options the chosen strategy would ignore;
* the nine ``table`` figures at their default grids, and an unknown figure;
* ``programmable --nprime 1 --purity`` at n = 1..5 and five purities;
* every command of benchmark seeds 1-3 (``bench/run.py --workload ...``) of
  the three workloads, on the inputs ``bench/workloads.py`` generates.

Usage, from the root of a checkout:

    python3 tests/corpus.py --check               # compare with tests/corpus.json
    python3 tests/corpus.py --check --src OTHER/src   # another checkout's qdl
    python3 tests/corpus.py --record              # rewrite tests/corpus.json

``tests/test_corpus.py`` checks the SLICE groups in tier-1.

``--check`` exits 1 and names each command whose record differs.  The record
keeps the Python, numpy and BLAS versions it was made with; a check on a
different stack says so.  A re-record changes what the check accepts, so it
is listed, with every command whose record moved, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "corpus.json"
BENCH_SEEDS = (1, 2, 3)
WORKLOADS = ("decompose", "tables", "learn-read")
# the groups tier-1 checks, in a few seconds: one pass of each workload
SLICE = ("readme", "errors", "figures-fast", *(f"{w}-seed1-pass00" for w in WORKLOADS))
# the default figures of the slice; the others take seconds each
FAST_FIGURES = ("fig3.5", "fig4.5", "fig6.2", "fig6.3", "fig9.9")


def stack() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _povm(dim, elements) -> dict:
    """The POVM wire format of (label, matrix) pairs."""
    return {"dim": dim, "elements": [
        {"label": label, "matrix": np.stack([np.real(m), np.imag(m)], -1).tolist()}
        for label, m in elements
    ]}


def _qubit(weight, x, y, z):
    return weight * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2


def _documents() -> dict:
    """Input files of the README examples and of the refused commands."""
    pentagon = [(f"p{k}", _qubit(0.4, math.cos(2 * math.pi * k / 5),
                                 math.sin(2 * math.pi * k / 5), 0.0)) for k in range(5)]
    bb84 = [("z0", _qubit(0.5, 0, 0, 1)), ("z1", _qubit(0.5, 0, 0, -1)),
            ("x+", _qubit(0.5, 1, 0, 0)), ("x-", _qubit(0.5, -1, 0, 0))]
    trine3 = [(f"e{k}", np.diag(np.eye(3)[k])) for k in range(3)]
    skew = np.array([[0.5, 0.25], [0.0, 0.5]])
    nan = np.array([[math.nan, 0.0], [0.0, 1.0]])
    return {
        "pentagon.json": _povm(2, pentagon),
        "povm.json": _povm(2, bb84),
        "twice.json": _povm(2, [("a", 2 * np.eye(2))]),
        "negative.json": _povm(2, [("a", np.diag([1.2, -0.2])), ("b", np.diag([-0.2, 1.2]))]),
        "short.json": _povm(2, bb84[:3]),
        "qutrit.json": _povm(3, trine3),
        "skew.json": _povm(2, [("a", skew), ("b", np.eye(2) - skew)]),
        "nan.json": _povm(2, [("a", nan), ("b", np.eye(2) - nan)]),
        "malformed.json": {"dim": 2, "elements": [{"label": "a", "matrix": [[["x", 0]]]}]},
        "list.json": [1, 2],
    }


def _static_commands() -> list:
    readme = [
        "programmable --n 1 --nprime 1",
        "programmable --n 2 --nprime 1 --purity 0.7",
        "programmable --n 2 --nprime 2 --prior chernoff",
        "programmable --n 9 --nprime 2 --margin 0.05 --scheme strong",
        "discriminate --overlap 0.7 --mode weak --margin 0.02",
        "learn --n 4 --strategy lm",
        "learn --n 2 --strategy sdp --purity 0.7",
        "read --alpha0 1 --strategy collective",
        "read --alpha0 1 --strategy eyd",
        "read --alpha0 1 --strategy collective --oracle --naux 64 --mu 1 --quad 16",
        "decompose --input pentagon.json",
        "decompose --input povm.json --ordered --output out.json",
        "table --figure fig4.5 --out curve.csv --svg curve.svg",
    ]
    errors = [
        "decompose --input twice.json",
        "decompose --input twice.json --output twice-out.json",
        "decompose --input negative.json",
        "decompose --input short.json --ordered",
        "decompose --input qutrit.json --ordered",
        "decompose --input skew.json",
        "decompose --input nan.json",
        "decompose --input malformed.json",
        "decompose --input list.json",
        "decompose --input missing.json",
        "decompose",
        "",
        "programmable --n 2 --nprime 1 --purity 0.5 --prior bures",
        "programmable --na 2 --margin 0.1",
        "programmable --n two",
        "programmable --n 0 --nprime 1",
        "programmable --n 2 --nprime -1 --purity 0.5",
        "programmable --na 0 --nb 1 --nc 1",
        "programmable --n 2 --nprime 1 --purity 1.5",
        "programmable --n 2 --nprime 1 --purity nan",
        "programmable --n 2 --nprime 1 --margin 1.5",
        "learn --n 2 --strategy lm --purity 0.7",
        "learn --n 2 --strategy reversed --purity 0.7",
        "learn --n 0 --strategy lm",
        "learn --n 2 --strategy sdp --purity 1.5",
        "learn --strategy lm",
        "read --alpha0 1 --strategy collective --squeeze 0.3",
        "read --alpha0 1 --strategy collective --oracle --squeeze 0.3",
        "read --alpha0 1 --strategy eyd --oracle --quad 0",
        "read --alpha0 1 --strategy eyd --oracle --naux 0",
        "read --strategy eyd",
        "discriminate --overlap 0.7 --mode weak",
        "table --figure fig4.1 --step 1e-9",
        "table --figure fig4.1 --step 1e-9 --out refused.csv",
        "table --figure fig4.1 --xmin nan",
        "table --figure fig4.3 --xmin 0 --xmax 0",
        "table --figure fig4.5 --n 0",
        "table",
    ]
    figures = [f"table --figure {f}" for f in (
        "fig3.5", "fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig5.1", "fig6.2", "fig6.3",
        "fig9.9")]
    rows = [f"programmable --n {n} --nprime 1 --purity {r}"
            for n in range(1, 6) for r in ("0", "0.3", "0.5", "0.9", "1")]
    return ([("readme", a) for a in readme] + [("errors", a) for a in errors]
            + [("figures-fast" if a.split()[-1] in FAST_FIGURES else "figures", a)
               for a in figures]
            + [("rows", a) for a in rows])


def write_inputs(workdir: Path, groups=None) -> list:
    """Write every input under workdir; return the (group, argv) commands,
    with paths relative to workdir."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for name, doc in _documents().items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    commands = [(g, a.split()) for g, a in _static_commands()]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for workload in WORKLOADS:
            for seed in BENCH_SEEDS:
                prefix = f"{workload}-seed{seed}-"
                if groups is not None and not any(g.startswith(prefix) for g in groups):
                    continue
                directory = Path(f"seed{seed}")  # the POVM files of decompose
                directory.mkdir(exist_ok=True)
                for k, cmds in enumerate(workloads.generate(workload, seed, directory)):
                    commands += [(f"{prefix}pass{k:02d}", c.argv) for c in cmds]
    finally:
        os.chdir(cwd)
    # each distinct command line once, in the group that first runs it
    first = {}
    for group, argv in commands:
        first.setdefault(json.dumps(argv), (group, argv))
    return [(g, a) for g, a in first.values() if groups is None or g in groups]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv, workdir: Path) -> dict:
    from qdl import cli

    outputs = [argv[i + 1] for i, a in enumerate(argv[:-1])
               if a in ("--output", "--out", "--svg")]
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    # argparse wraps its usage messages to the terminal's width
    os.environ["COLUMNS"] = "80"
    try:
        code = cli.run(list(argv), out=out, err=err)
        files, text = {}, {"stderr": err.getvalue()}
        if argv[:1] != ["decompose"]:
            text["stdout"] = out.getvalue()
        for name in outputs:
            path = Path(name)
            files[name] = _sha(path.read_bytes()) if path.exists() else None
            if path.exists():
                if name.endswith(".csv"):
                    text[name] = path.read_text(encoding="utf-8")
                path.unlink()
    finally:
        os.chdir(cwd)
        if columns is None:
            os.environ.pop("COLUMNS")
        else:
            os.environ["COLUMNS"] = columns
    return {"code": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files, "text": text}


def _first_moved_line(recorded: dict, got: dict) -> str:
    """The first line of a kept text that moved, recorded and now."""
    for name, old in recorded.get("text", {}).items():
        new = got["text"].get(name, "")
        if old != new:
            pairs = zip(old.splitlines() + [""], new.splitlines() + [""])
            line, (was, now) = next((k, p) for k, p in enumerate(pairs, 1) if p[0] != p[1])
            return f"; {name} line {line}: {was!r} recorded, {now!r} now"
    return ""


def record(workdir: Path) -> dict:
    entries = [{"group": g, "argv": a, **run_command(a, workdir)}
               for g, a in write_inputs(workdir)]
    return {"stack": stack(), "commands": entries}


def load() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def check(recorded: dict, workdir: Path, groups=None) -> tuple:
    """Re-run the commands of the given groups (all by default); return the
    number run and one line for each command whose record differs."""
    want = {json.dumps(e["argv"]): e for e in recorded["commands"]
            if groups is None or e["group"] in groups}
    commands = write_inputs(workdir, groups)
    problems = []
    for group, argv in commands:
        key = json.dumps(argv)
        if key not in want:
            problems.append(f"qdl {' '.join(argv)}: not in the record ({group})")
            continue
        got, rec = run_command(argv, workdir), want.pop(key)
        moved = [f for f in ("code", "stdout", "stderr", "files") if got[f] != rec[f]]
        if moved:
            problems.append(f"qdl {' '.join(argv)}: {', '.join(moved)} changed "
                            f"(exit code {rec['code']} recorded, {got['code']} now)"
                            + _first_moved_line(rec, got))
    problems += [f"qdl {' '.join(e['argv'])}: recorded but no longer generated"
                 for e in want.values()]
    return len(commands), problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--record", action="store_true")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory that holds qdl")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        if args.record:
            data = record(Path(tmp))
            with open(RECORD, "w", encoding="utf-8") as fh:
                fh.write('{"stack": %s,\n "commands": [\n' % json.dumps(data["stack"]))
                fh.write(",\n".join(json.dumps(e) for e in data["commands"]))
                fh.write("\n]}\n")
            print(f"recorded {len(data['commands'])} commands in {RECORD}")
            return 0
        recorded = load()
        if recorded["stack"] != stack():
            print(f"note: recorded on {recorded['stack']}, checking on {stack()}; "
                  "a difference may come from the stack")
        count, problems = check(recorded, Path(tmp))
    for line in problems:
        print(line)
    print(f"{count} commands checked, {len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
