"""packlab benchmark: run a workload, check every output, print its metrics.

    python3 perfbench/run.py --workload gasket-cli --seed 3 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh worker process (worker.py) as a closed loop
for ``--seconds`` seconds; every iteration's outputs are checked against
the pinned references, and a run that raises or misses them counts as
failed.  ``wall_s`` is the median iteration time, from the first call into
packlab to verified outputs, and ``items_per_s`` the distinct outputs
(spheres or classes) per second of it.  Before each iteration the worker
times a few fresh probe processes that import packlab and build the
workload's seed cluster or surface models; ``setup_s`` is their median.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced iteration (see spans.py).  Metric lines go to
standard output as ``<workload> <name> = <value> <unit>``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the machine record, all samples and the
failures goes to perfbench/results/, and the spans of a traced run next to
it.  The exit code is 0 only when every run passed its checks.

The package is imported from ``src/`` of this checkout, never from an
installed copy; without it the benchmark stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, exercises

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# Room beyond --seconds for the worker's start, an iteration slower than
# the ones before it, and a traced run's traced and traced-only passes;
# at the default length a run still ends within three minutes.
WORKER_SLACK_S = 100


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10  # 1-based rank of the value that leaves ten above it
    return {"percentile": 100.0 * rank / n, "value": sorted(samples)[rank - 1]}


def load_entry(workload, seed: int, smoke: bool):
    """(table index, inputs, expected outputs) for this seed."""
    pinned = json.loads((BENCH / "references.json").read_text())[workload.name]
    if smoke:
        index, inputs, ref = "smoke", workload.smoke, pinned["smoke"]
    else:
        index = seed % len(workload.table)
        inputs, ref = workload.table[index], pinned["table"][index]
    if json.loads(json.dumps(inputs)) != ref["inputs"]:
        raise SystemExit(f"references.json does not match the {workload.name} table; rerun make_references.py")
    return index, inputs, ref["expected"]


def run_workload(workload, args) -> dict:
    index, inputs, expected = load_entry(workload, args.seed, args.smoke)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}"
    RESULTS.mkdir(exist_ok=True)
    workdir = BENCH / "_work" / tag
    workdir.mkdir(parents=True)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        spec = {
            "workload": workload.name,
            "inputs": inputs,
            "expected": expected,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "trace": args.trace,
            "trace_id": tag,
            "src": str(SRC),
            "workdir": str(workdir),
            "spans_path": str(RESULTS / f"{tag}.spans.jsonl"),
        }
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            cwd=ROOT, input=json.dumps(spec), stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + WORKER_SLACK_S, check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = json.loads(done.stdout.splitlines()[-1])
    env["numpy"] = report.pop("numpy")
    env["loadavg_end"] = os.getloadavg()

    samples, setup = report["samples"], report["setup"]
    values = {}
    if samples and args.trace and report["per_layer"] is not None:
        values = report["per_layer"]
    elif samples and not args.trace:
        wall = statistics.median(samples)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "items_per_s": report["items"] / wall,
            "peak_rss_mib": report["peak_rss_mib"],
        }
    units = metric_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {
        "correct": report["failed"] == 0 and bool(metrics),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "table_entry": index,
        "inputs": inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": report["failed"] / report["attempted"],
        "wall_samples_s": samples,
        "wall_tail": tail_percentile(samples),
        "setup_samples_s": setup,
        "items": report["items"],
        "errors": report["errors"],
        "layers_run": [k for k in values if args.trace and exercises(workload, k)],
        "environment": env,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} failed_frac = {record['failed_frac']:.6g} ({report['failed']}/{report['attempted']} runs)")
    print(f"{workload.name} wall samples = {len(samples)}, tail = {record['wall_tail']}")
    for problems in report["errors"]:
        print(f"{workload.name} FAILED: {'; '.join(problems)}", file=sys.stderr)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0, help="input table entry, modulo its length (0: default)")
    ap.add_argument("--seconds", type=float, default=60.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()
    if not (SRC / "packlab" / "__init__.py").is_file():
        print(f"no packlab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
