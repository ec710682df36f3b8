"""Self-test of the benchmark.

1. Corruption: cheap commands of every workload are run through the CLI;
   their outputs must pass the checks, and each output, once corrupted
   (last number negated, or last line dropped; a decomposition probability
   nudged by 1e-6), must fail them.
2. Smoke: a one-second run of every workload, traced and untraced, must
   print exactly the metrics BENCHMARK.json names, with their units, and
   report no failed command.

Usage (from the root of a checkout): python3 bench/selftest.py
"""

import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402  (first: pins the thread environment before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402

def _cheap(cmd) -> bool:
    """All commands but mid-purity fig4.1, fig4.2 and the n = 2 seed optimization."""
    p = cmd.params
    if cmd.kind == "table":
        return p["figure"] in ("fig4.3", "fig4.4") or p["grid"] == [1.0]
    return not (cmd.kind == "learn-sdp" and p["n"] == 2)


def corruptions(text: str) -> list:
    lines = text.rstrip("\n").split("\n")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        data["terms"][0]["probability"] += 1e-6
        return [json.dumps(data), text[: len(text) // 2]]
    cells = lines[-1].split(",")
    for i in range(len(cells) - 1, -1, -1):
        try:
            cells[i] = repr(-float(cells[i]) - 0.1)
            break
        except ValueError:
            continue
    negated = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    return [negated, "\n".join(lines[:-1]) + "\n"]


def corruption_test(workdir: Path) -> list:
    from qdl import cli

    problems = []
    refs = checks.References()
    for workload in workloads.WORKLOADS:
        commands = [c for c in workloads.generate(workload, 0, workdir)[0] if _cheap(c)]
        outcomes = []
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(list(cmd.argv), out=out, err=err)
            outcomes.append(run.Outcome(code, out.getvalue(), err.getvalue(), None))
        verdicts = checks.check_pass(commands, outcomes, refs)
        problems += [f"{workload}: clean output failed: {' '.join(c.argv)}: {v}"
                     for c, v in zip(commands, verdicts) if v]
        for i, (cmd, outcome) in enumerate(zip(commands, outcomes)):
            for bad in corruptions(outcome.stdout):
                trial = list(outcomes)
                trial[i] = outcome._replace(stdout=bad)
                if checks.check_pass(commands, trial, refs)[i] is None:
                    problems.append(f"{workload}: corrupted output passed: {' '.join(cmd.argv)}")
        print(f"corruption: {workload}: {len(commands)} commands, "
              f"{2 * len(commands)} corrupted outputs")
    return problems


def smoke_test() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(want)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            print(f"smoke: {label}: {len(got)} metrics, {result['attempted']} commands checked")
    return problems


def main() -> int:
    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        problems = corruption_test(workdir)
    finally:
        for path in workdir.glob("*.json"):
            path.unlink()
        workdir.rmdir()
    problems += smoke_test()
    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
