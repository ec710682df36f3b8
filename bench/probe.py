"""Set-up probe: a fresh interpreter imports the qdl CLI and generates one
workload's inputs, then prints both times as one JSON line and exits.

Usage: python3 bench/probe.py WORKLOAD SEED DIRECTORY
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import qdl.cli  # noqa: F401

    t_import = time.perf_counter()
    import workloads

    workloads.generate(workload, seed, directory)
    t_inputs = time.perf_counter()
    print(json.dumps({"import_s": t_import - _T0, "inputs_s": t_inputs - t_import}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
