"""Command-line surface.

Evaluates the library quantities as CSV rows, sweeps curve families into CSV
tables (optionally with an SVG line plot), and runs the POVM decomposer on
JSON files.  The row commands (discriminate, programmable, learn, read)
return a header and one row, which ``run`` writes; ``decompose`` and
``table`` write their own file, stdout or SVG.  Each ``table`` figure is one
``FIGURES`` entry: default grid, labels and the function that makes its
rows.  Output is deterministic: fixed 9-significant-digit formatting with a
period decimal separator, and sweep results are assembled in input order
whatever the worker count (capped by the QDL_THREADS environment variable).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, redirect_stderr, redirect_stdout

from . import discrimination, learning, povmdec, programmable, reading


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _csv(stream, header, rows) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _thread_count() -> int:
    """Sweep workers from QDL_THREADS: 1 when unset or empty, otherwise an
    integer >= 1."""
    raw = os.environ.get("QDL_THREADS", "")
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"QDL_THREADS {raw!r} is not an integer >= 1")
    return count


def _sweep(fn, xs):
    """Map fn over grid points with ordered assembly."""
    workers = _thread_count()
    if workers == 1:
        return [fn(x) for x in xs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, xs))


# a finer grid is a mistyped step, not a figure: refuse it before the loop
# below fills memory with points
_MAX_GRID_POINTS = 10**6


def _grid(xmin: float, xmax: float, step: float):
    for name, value in (("--xmin", xmin), ("--xmax", xmax), ("--step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} {value} is not a finite number")
    if step <= 0 or xmax < xmin:
        return []
    if (xmax - xmin) / step > _MAX_GRID_POINTS:
        raise ValueError(f"--step {step} gives more than {_MAX_GRID_POINTS} grid points")
    out = []
    k = 0
    while True:
        x = xmin + k * step
        if x > xmax + step * 1e-9:
            return out
        if out and x <= out[-1]:  # xmin + k step stopped moving: refuse before memory fills
            raise ValueError(f"--step {step} is below the float spacing at {out[-1]}")
        out.append(min(x, xmax))
        k += 1


# ---------------------------------------------------------------------------
# row commands: each returns (header, row) and run() writes the one-row CSV
# ---------------------------------------------------------------------------


def _mode_opts(args, defaults: dict, mode: str, active: bool) -> list:
    """Options that only ``mode`` reads, each given or at its default; one
    given outside the mode is refused, even at an invalid value."""
    for option in defaults:
        if getattr(args, option) is not None and not active:
            raise ValueError(f"--{option} applies to {mode} only")
    return [d if getattr(args, o) is None else getattr(args, o) for o, d in defaults.items()]


def _surrogate_error(delta_lm: float) -> float:
    """Learning-machine error (1 - delta_lm/2)/2 from its optimized surrogate."""
    return (1.0 - delta_lm / 2.0) / 2.0


def _cmd_discriminate(args):
    c, with_margin = args.overlap, args.mode in ("weak", "strong")
    eta, = _mode_opts(args, {"prior": 0.5}, "--mode minerr or unambiguous", not with_margin)
    _mode_opts(args, {"margin": None}, "--mode weak or strong", with_margin)
    if args.mode == "minerr":
        return ["overlap", "prior", "Pe"], [c, eta, discrimination.pure_overlap_error(c, eta)]
    if args.mode == "unambiguous":
        return ["overlap", "prior", "Q"], [c, eta, discrimination.unambiguous_q(c, eta)]
    if args.margin is None:
        raise ValueError("weak/strong modes require --margin")
    fn = discrimination.weak_margin if args.mode == "weak" else discrimination.strong_margin
    res = fn(c, args.margin)
    phi = float("nan") if res.phi is None else res.phi
    return ["overlap", "margin", "Ps", "Pe", "Q", "phi", "regime"], [
        c, args.margin, res.p_success, res.p_error, res.p_inconclusive, phi, res.regime
    ]


def _cmd_programmable(args):
    n, nprime = args.n, args.nprime
    nb, nc = _mode_opts(args, {"nb": 1, "nc": 1}, "--na", args.na is not None)
    scheme, = _mode_opts(args, {"scheme": "weak"}, "--margin", args.margin is not None)
    if args.margin is not None:
        ps = programmable.margin_success(n, nprime, args.margin, scheme).p_success
        return ["n", "nprime", "R", "scheme", "Ps"], [n, nprime, args.margin, scheme, ps]
    if args.na is not None:
        rates = programmable.general_rates(programmable.PortLoad(args.na, nb, nc))
        return ["na", "nb", "nc", "Q", "Pe"], [args.na, nb, nc, rates.q, rates.pe]
    if args.prior is not None:
        kind = {"hs": "hard-sphere", "bures": "bures", "chernoff": "chernoff"}[args.prior]
        pe = programmable.universal_error(programmable.PuritySpec(kind=kind), n, nprime)
        return ["n", "nprime", "prior", "Pe"], [n, nprime, kind, pe]
    if args.purity is not None:
        pe = programmable.mixed_error(n, nprime, args.purity)
        return ["n", "nprime", "r", "Pe"], [n, nprime, args.purity, pe]
    rates = programmable.pure_rates(n, nprime)
    return ["n", "nprime", "Q", "Pe"], [n, nprime, rates.q, rates.pe]


def _cmd_learn(args):
    n = args.n
    if args.purity is not None and args.strategy != "sdp":
        raise ValueError(f"--purity applies to --strategy sdp only, not {args.strategy}")
    if args.strategy == "lm":
        pe = learning.lm_error(n)
        return ["n", "Pe", "excess_risk"], [n, pe, pe - learning.known_pair_error()]
    if args.strategy == "eyd":
        rates = learning.eyd_qubit(n)
        return ["n", "Pe", "excess_risk"], [n, rates.pe, rates.excess_risk]
    if args.strategy == "reversed":
        return ["n", "Pe"], [n, learning.reversed_error(n)]
    r = args.purity if args.purity is not None else 1.0
    opt = learning.lm_mixed_optimize(n, r)
    pe = _surrogate_error(opt.delta_lm)
    return ["n", "r", "delta_lm", "Pe", "excess_risk"], [
        n, r, opt.delta_lm, pe, pe - learning.known_pair_error(r)
    ]


def _cmd_read(args):
    a0 = args.alpha0
    if args.squeeze is not None and args.strategy != "eyd":
        raise ValueError(f"--squeeze applies to --strategy eyd only, not {args.strategy}")
    naux, mu, quad = _mode_opts(args, {"naux": 16, "mu": 1.0, "quad": 32}, "--oracle", args.oracle)
    if args.oracle:
        cfg = reading.ReadingConfig(alpha0=a0, mu=mu, n_aux=naux)
        squeeze = args.squeeze if args.squeeze is not None else 0.0
        pe = reading.finite_n_oracle(cfg, args.strategy, quad, squeeze)
        return ["alpha0", "strategy", "naux", "mu", "Pe"], [a0, args.strategy, naux, mu, pe]
    if args.strategy == "collective":
        risk = reading.collective_excess_risk(a0)
        return ["alpha0", "strategy", "excess_risk"], [a0, "collective", risk]
    squeeze = args.squeeze
    if squeeze is None:
        squeeze = reading.optimal_squeezing(a0)
    risk = reading.eyd_excess_risk(a0, squeeze)
    return ["alpha0", "strategy", "squeeze", "excess_risk"], [a0, "eyd", squeeze, risk]


def _cmd_decompose(args, out):
    with open(args.input, "r", encoding="utf-8") as fh:
        povm = povmdec.povm_from_json(json.load(fh))
    result = povmdec.ordered_decompose(povm) if args.ordered else povmdec.decompose(povm)
    # the result is complete before --output is opened: a refused input
    # leaves no file behind
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(out) as sink:
        povmdec._write_decomposition(result, sink.write)
        sink.write("\n")


# ---------------------------------------------------------------------------
# figure tables
# ---------------------------------------------------------------------------


def _by_row(row):
    """Rows of independent row(args, x), the grid shared among the workers."""
    return lambda args, xs: _sweep(lambda x: row(args, x), xs)


def _load_errors(priors, loads):
    """programmable.load_errors, each sweep worker running one pass over its share of the loads."""
    workers = _thread_count()
    shares = _sweep(lambda k: programmable.load_errors(priors, loads[k::workers]), range(workers))
    return [shares[k % workers][k // workers] for k in range(len(loads))]


def _purity_columns(loads, asymptote: bool = False):
    """Rows of an r-sweep at fixed loads (n, nprime): the error at each load,
    followed by mixed_asymptote(n, r) with ``asymptote``."""
    def rows(args, rs):
        specs, tails = [], []
        for r in rs:  # row by row, so that a refused grid names its first failing row
            specs.append(programmable.PuritySpec("fixed", r))
            tails.append([(programmable.mixed_asymptote(n, r),) if asymptote else ()
                          for n, _ in loads])
        cols = _load_errors(specs, loads)
        return [[r] + [v for value, tail in zip(values, row_tails) for v in (value, *tail)]
                for r, values, row_tails in zip(rs, zip(*cols), tails)]
    return rows


def _by_load(specs):
    """Rows of an n-sweep at loads n = nprime (whole: see _cmd_table), one error per spec."""
    def rows(args, ns):
        loads = [programmable.check_load(int(n), int(n)) for n in ns]  # refused in grid order
        return [[n] + errors for (n, _), errors in zip(loads, _load_errors(specs, loads))]
    return rows


def _learning_excess_row(args, r):
    cells = [r]
    for n in (1, 2, 3):
        pe_lm = _surrogate_error(learning.lm_mixed_optimize(n, r).delta_lm)
        pe_opt = programmable.mixed_error(n, 1, r)
        base = learning.known_pair_error(r)
        cells += [pe_lm - base, pe_opt - base]
    return cells


FIGURES = {
    # id: (xmin, xmax, step, x label, y labels, rows(args, xs))
    "fig3.5": (0.0, 0.25, 0.0025, "r", ["Ps_weak", "Ps_strong"], _by_row(lambda args, r: [
        r, discrimination.weak_margin(args.overlap, r).p_success,
        discrimination.strong_margin(args.overlap, r).p_success])),
    "fig4.1": (0.0, 1.0, 0.1, "r", ["Pe_n3", "Pe_n11", "Pe_n29"],
               _purity_columns([(3, 3), (11, 11), (29, 29)])),
    "fig4.2": (1, 26, 1, "n", ["Pe_r0.2", "Pe_r0.5", "Pe_r0.7", "Pe_r1.0"],
               _by_load([programmable.PuritySpec("fixed", r) for r in (0.2, 0.5, 0.7, 1.0)])),
    "fig4.3": (0.1, 1.0, 0.05, "r", ["Pe_n20", "asym_n20", "Pe_n79", "asym_n79"],
               _purity_columns([(20, 1), (79, 1)], asymptote=True)),
    "fig4.4": (1, 16, 1, "n", ["Pe_hs", "Pe_bures", "Pe_chernoff"], _by_load(
        [programmable.PuritySpec(k) for k in ("hard-sphere", "bures", "chernoff")])),
    "fig4.5": (0.0, 0.2, 0.002, "R", ["Ps_weak", "Ps_strong"], _by_row(lambda args, big_r: [
        big_r, programmable.margin_success(args.n, args.nprime, big_r, "weak").p_success,
        programmable.margin_success(args.n, args.nprime, big_r, "strong").p_success])),
    "fig5.1": (0.1, 0.9, 0.1, "r", ["R_lm_n1", "R_opt_n1", "R_lm_n2", "R_opt_n2",
                                    "R_lm_n3", "R_opt_n3"], _by_row(_learning_excess_row)),
    "fig6.2": (0.1, 3.0, 0.05, "alpha0", ["squeeze_opt"],
               _by_row(lambda args, a0: [a0, reading.optimal_squeezing(a0)])),
    "fig6.3": (0.3, 1.5, 0.05, "alpha0", ["R_collective", "R_eyd"], _by_row(lambda args, a0: [
        a0, reading.collective_excess_risk(a0),
        reading.eyd_excess_risk(a0, reading.optimal_squeezing(a0))])),
}


def _write_svg(path: str, header, rows):
    """One polyline per y column on a fixed 640x440 canvas."""
    width, height, pad = 640, 440, 50
    xs = [row[0] for row in rows]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    if rows:
        ys_all = [v for row in rows for v in row[1:] if isinstance(v, (int, float))]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys_all), max(ys_all)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def to_px(x, y):
            px = pad + (x - x_lo) / x_span * (width - 2 * pad)
            py = height - pad - (y - y_lo) / y_span * (height - 2 * pad)
            return f"{px:.2f},{py:.2f}"

        for col in range(1, len(header)):
            pts = " ".join(to_px(row[0], row[col]) for row in rows)
            parts.append(
                f'<polyline fill="none" stroke="{colors[(col - 1) % len(colors)]}" '
                f'stroke-width="1.5" points="{pts}"/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_table(args, out):
    if args.figure not in FIGURES:
        raise ValueError(f"unknown figure {args.figure!r}; known: {sorted(FIGURES)}")
    xmin, xmax, step, xlabel, ylabels, build = FIGURES[args.figure]
    args.overlap, = _mode_opts(args, {"overlap": 0.7}, "--figure fig3.5", args.figure == "fig3.5")
    args.n, args.nprime = _mode_opts(args, {"n": 9, "nprime": 2}, "--figure fig4.5",
                                     args.figure == "fig4.5")
    header = [xlabel] + ylabels
    xmin, xmax, step = (default if given is None else given for default, given in
                        ((xmin, args.xmin), (xmax, args.xmax), (step, args.step)))
    xs = _grid(xmin, xmax, step)
    if xlabel == "n":  # copy counts: a fractional point is a mistyped option
        for x in xs:
            if not float(x).is_integer():
                name, value = (("--xmin", xmin) if x == xmin else ("--xmax", xmax) if x == xmax
                               else ("--step", step))
                raise ValueError(f"{name} {value} puts n = {x} on the grid, not a whole number")
    # rows before --out: a refused grid or a failed row leaves no file behind
    rows = build(args, xs)
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(out) as sink:
            _csv(sink, header, rows)
        if args.svg:
            _write_svg(args.svg, header, rows)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise RuntimeError(f"cannot write table: {exc}") from exc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# one parser per process, built on first use: parsing leaves it unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdl",
        description="quantum state discrimination, learning machines, "
        "coherent-state reading and POVM decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discriminate", help="known-state binary discrimination")
    p.set_defaults(row=_cmd_discriminate)
    p.add_argument("--overlap", type=float, required=True)
    p.add_argument("--prior", type=float)
    p.add_argument("--mode", choices=["minerr", "unambiguous", "weak", "strong"],
                   default="minerr")
    p.add_argument("--margin", type=float)

    p = sub.add_parser("programmable", help="programmable discrimination machines")
    p.set_defaults(row=_cmd_programmable)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--nprime", type=int, default=1)
    p.add_argument("--nb", type=int)
    p.add_argument("--nc", type=int)
    p.add_argument("--scheme", choices=["weak", "strong"])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--na", type=int)
    mode.add_argument("--purity", type=float)
    mode.add_argument("--prior", choices=["hs", "bures", "chernoff"])
    mode.add_argument("--margin", type=float)

    p = sub.add_parser("learn", help="learning-machine error rates")
    p.set_defaults(row=_cmd_learn)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--purity", type=float)
    p.add_argument("--strategy", choices=["lm", "eyd", "reversed", "sdp"], default="lm")

    p = sub.add_parser("read", help="coherent-state quantum reading")
    p.set_defaults(row=_cmd_read)
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--strategy", choices=["collective", "eyd"], default="collective")
    p.add_argument("--squeeze", type=float)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--naux", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--quad", type=int)

    p = sub.add_parser("decompose", help="decompose a POVM into extremals")
    p.set_defaults(write=_cmd_decompose)
    p.add_argument("--input", required=True)
    p.add_argument("--ordered", action="store_true")
    p.add_argument("--output")

    p = sub.add_parser("table", help="reproduce a curve family as CSV")
    p.set_defaults(write=_cmd_table)
    p.add_argument("--figure", required=True)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.add_argument("--xmin", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--overlap", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--nprime", type=int)

    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse prints usage errors and --help to the process streams
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if "row" in args:
            header, row = args.row(args)
            _csv(out, header, [row])
        else:
            args.write(args, out)
        return 0
    except BrokenPipeError:
        # the reader of the output stream has gone; main() exits quietly
        raise
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        err.write(f"error: {exc}\n")
        return 1


# exit status when the reader of stdout closes it early (`qdl ... | head`):
# 128 + SIGPIPE, what a shell reports for a process that signal ended
BROKEN_PIPE_STATUS = 141


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's SIGPIPE recipe: point stdout at devnull so that the
        # flush at exit cannot fail again, and say nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = BROKEN_PIPE_STATUS
    sys.exit(status)


if __name__ == "__main__":
    main()
