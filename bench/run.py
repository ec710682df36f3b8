"""qdl benchmark: drives ``qdl.cli.run`` in-process, one command after another
(closed loop, one client), on seeded inputs, and checks every output.

Usage (from the root of a checkout):

    python3 bench/run.py --workload tables --seed 1 --seconds 25 --trace 0

A run repeats passes of the workload's commands until ``--seconds`` have
elapsed (at least one pass).  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes on the
same inputs, requires their outputs to be byte-identical, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

import os

# fixed thread environment, set before numpy loads: one BLAS thread and the
# CLI's default of one sweep worker, so a run uses one core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QDL_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# fresh interpreters timed per run; setup_s is their median
SETUP_PROBES = 5

# Median time of calibrate() on the reference machine (bench/README.md).  Every
# timing is scaled by CALIBRATION_S / (calibrate() measured around it): that
# host's speed moved by up to 2x for seconds to minutes at a time, and scaled
# pass times moved by about 4 % where the raw ones moved by 15 % or more.
CALIBRATION_S = 0.006


class Outcome(NamedTuple):
    code: object
    stdout: str
    stderr: str
    error: object


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in ("QDL_THREADS",) + THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def calibrate() -> float:
    """Seconds for a fixed mix of small LAPACK calls and dict updates, the
    kind of work the CLI does; a measure of the host's current speed."""
    a = np.add.outer(np.arange(32.0), np.arange(32.0)) % 7.0
    start = time.perf_counter()
    for i in range(100):
        n = 8 + i % 24
        np.linalg.eigvalsh(a[:n, :n])
    counts = {}
    for i in range(10000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Scale seconds measured between two calibrations to the reference host
    speed."""
    return seconds * 2.0 * CALIBRATION_S / (before + after)


def setup_probe(workload: str, seed: int, directory: Path) -> tuple:
    """One fresh interpreter: seconds from process start until the CLI is
    imported and the seeded inputs are written, then the probe's own import
    and input-generation times, all scaled to the reference host speed."""
    directory.mkdir()
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(directory)]
    before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    after = calibrate()
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited with code {proc.returncode}")
    shutil.rmtree(directory)
    info = json.loads(line)
    return tuple(to_reference(t, before, after)
                 for t in (elapsed, info["import_s"], info["inputs_s"]))


def run_pass(cli_run, commands) -> tuple:
    """Run one pass; return its scaled and raw seconds, the scaled latency of
    every command, and the outcomes."""
    outcomes, latencies, raw = [], [], 0.0
    after = calibrate()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        before = after
        start = time.perf_counter()
        try:
            code, error = cli_run(list(cmd.argv), out=out, err=err), None
        except Exception:  # a raising command counts as failed; the run goes on
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        after = calibrate()
        raw += elapsed
        latencies.append(to_reference(elapsed, before, after))
        outcomes.append(Outcome(code, out.getvalue(), err.getvalue(), error))
    return sum(latencies), raw, latencies, outcomes


def measure(args, passes, workdir: Path) -> dict:
    import checks
    import tracing

    from qdl import cli

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        traced_cli = tracer.wrap("cli.run", cli.run)
        command_ids = itertools.count()

        def traced_run(argv, out, err):
            tracer.command = next(command_ids)
            return traced_cli(argv, out=out, err=err)

    refs = checks.References()
    probes = []               # (setup_s, import_s, inputs_s)

    def probe():
        probes.append(setup_probe(args.workload, args.seed, workdir / f"probe-{len(probes)}"))

    plain, traced = [], []    # (pass index, scaled wall, scaled latencies, raw wall)
    attempted, failures = 0, []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        commands = passes[k % len(passes)]
        if tracer is None:
            modes = ("untraced",)
        else:
            modes = ("untraced", "traced") if k % 2 == 0 else ("traced", "untraced")
        verdicts, digests = {}, {}
        for mode in modes:
            if mode == "traced":
                tracer.install()
                try:
                    wall, raw, lat, outcomes = run_pass(traced_run, commands)
                finally:
                    tracer.uninstall()
                traced.append((k, wall, lat, raw))
            else:
                wall, raw, lat, outcomes = run_pass(cli.run, commands)
                plain.append((k, wall, lat, raw))
            # checked between passes, outside the pass timing; only digests
            # are kept, so stored outputs never set the memory peak
            verdicts[mode] = checks.check_pass(commands, outcomes, refs)
            digests[mode] = [(o.code, hash(o.stdout)) for o in outcomes]
        if tracer is not None:
            for i, (a, b) in enumerate(zip(digests["untraced"], digests["traced"])):
                if verdicts["traced"][i] is None and a != b:
                    verdicts["traced"][i] = "traced output differs from the untraced output"
        for mode in modes:
            attempted += len(commands)
            failures += [(mode, k, commands[i].argv, v)
                         for i, v in enumerate(verdicts[mode]) if v]
        # set-up probes go between passes, so that they sample the host's
        # speed across the run rather than at one moment
        if len(probes) < SETUP_PROBES:
            probe()
        k += 1
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < SETUP_PROBES:
        probe()

    latencies = [t for _, _, lat, _ in plain for t in lat]
    result = {
        "attempted": attempted,
        "failures": failures,
        "passes": len(plain),
        "commands": len(latencies),
        "raw_wall_s": statistics.median(raw for _, _, _, raw in plain),
        "wall_s": statistics.median(w for _, w, _, _ in plain),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_mib,
    }
    for i, name in enumerate(("setup_s", "setup.import_s", "setup.inputs_s")):
        result[name] = statistics.median(p[i] for p in probes)
    if tracer is not None:
        d4 = sum(t for k, _, lat, _ in plain
                 for cmd, t in zip(passes[k % len(passes)], lat) if cmd.params.get("dim") == 4)
        layers = tracer.layer_metrics(len(traced))
        layers["povmdec.d4_share"] = d4 / sum(latencies)
        layers["trace.overhead_frac"] = (
            statistics.median(w for _, w, _, _ in traced) / result["wall_s"] - 1.0)
        result["layers"] = layers
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src, oracles = ROOT / "src", ROOT / "tests" / "oracles.py"
    if not (src / "qdl" / "cli.py").is_file() or not oracles.is_file():
        print(f"error: {src / 'qdl'} or {oracles} not found; run the benchmark from the "
              "root of a qdl checkout", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(src), str(oracles.parent)]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        passes = workloads.generate(args.workload, args.seed, workdir)
        result = measure(args, passes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], len(result["failures"])
    for label, k, argv, reason in result["failures"][:20]:
        print(f"# FAIL {label} pass {k}: qdl {' '.join(argv)}: {reason}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {result['passes']} untraced passes, "
          f"{result['commands']} timed commands, {attempted} checked, {failed} failed "
          f"(fail_frac {failed / attempted:.4f}); "
          f"unscaled median pass {result['raw_wall_s']:.4f} s")
    if args.trace:
        values = {**result, **result["layers"]}
        wanted = spec["per_layer"]
    else:
        values = {**result, "pass_frac": (attempted - failed) / attempted}
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
