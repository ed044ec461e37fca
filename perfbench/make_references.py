"""Write references.json: the pinned outputs of every input-table entry.

    python3 perfbench/make_references.py

The references are generated once, at the commit that defines the
benchmark; later commits must reproduce them.  Regenerating them is a
change of the benchmark, not of the program.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, check

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

# Counts measured when the benchmark was defined, at each default input.
DEFAULT_COUNTS = {
    "gasket-cli": {"count": 13_916},
    "sphere3-dedup": {"count": 5_912},
    "k3-orbits": {"baragar_222.count": 7_149, "baragar_p2p2.count": 4_540},
}


def pin(workload, inputs: dict, smoke: bool) -> dict:
    workdir = BENCH / "_work" / f"references-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outputs, _ = workload.run(inputs, str(workdir))
    finally:
        shutil.rmtree(workdir)
    problems = check(workload, outputs, outputs, smoke)
    if problems:
        raise SystemExit(f"{workload.name} {inputs}: {problems}")
    print(workload.name, inputs, outputs, flush=True)
    return {"inputs": inputs, "expected": outputs}


def main() -> int:
    pinned = {}
    for name, workload in WORKLOADS.items():
        table = [pin(workload, inputs, smoke=False) for inputs in workload.table]
        for key, count in DEFAULT_COUNTS[name].items():
            if table[0]["expected"][key] != count:
                raise SystemExit(f"{name} default {key} is {table[0]['expected'][key]}, expected {count}")
        pinned[name] = {"table": table, "smoke": pin(workload, workload.smoke, smoke=True)}
    (BENCH / "references.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
