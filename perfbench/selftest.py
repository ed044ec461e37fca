"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at its smoke size, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit, that
every run passes its checks, and that the traced run measures exactly the
layers its workload declares.  Then runs each workload, from a copy of
the benchmark, against references with one wrong digest and checks that
the runs are reported failed with a non-zero exit, and checks that the
benchmark stops without printing a result when the package sources are
missing.  Exits non-zero on any
problem; takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, exercises

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def copy_bench(tree: Path) -> Path:
    """A checkout holding only BENCHMARK.json and the benchmark's files."""
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(BENCH, tree / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    return tree


def result_of(done: subprocess.CompletedProcess):
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]) if lines else None


def layer_problems(workload, metrics: dict) -> list[str]:
    """Layers the workload runs must read above 0 (the tracing overhead
    may read either way), the others exactly 0; the CLI pipeline converts
    its orbit to Euclidean spheres twice, once for the CSV and once for
    the SVG."""
    problems = []
    for name, m in metrics.items():
        if not exercises(workload, name):
            if m["value"] != 0:
                problems.append(f"{workload.name}: {name} = {m['value']}, but the workload does not run it")
        elif name != "trace.overhead_s" and not m["value"] > 0:
            problems.append(f"{workload.name}: {name} = {m['value']}, but the workload runs it")
    calls = metrics["inversive.euclidean_spheres_calls"]["value"]
    if workload.name == "gasket-cli" and calls != 2:
        problems.append(f"gasket-cli: inversive.euclidean_spheres_calls = {calls}, expected 2")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    WORK.mkdir(exist_ok=True)

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = bench("--workload", workload, "--smoke", "--trace", str(trace))
            result = result_of(done)
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace} smoke run failed: {done.stderr[-2000:]}")
                continue
            names = {m["name"] for m in spec[kind]}
            if set(result["metrics"]) != names:
                problems.append(f"{workload} trace {trace}: metrics {sorted(result['metrics'])} != {sorted(names)}")
            for m in spec[kind]:
                shown = re.search(rf"^{workload} {re.escape(m['name'])} = \S+ (\S+)$", done.stdout, re.M)
                got = result["metrics"].get(m["name"], {}).get("unit")
                if shown is None or shown.group(1) != m["unit"] or got != m["unit"]:
                    problems.append(f"{workload}: {m['name']} not printed with unit {m['unit']}")
            if trace:
                problems += layer_problems(WORKLOADS[workload], result["metrics"])

    references = json.loads((BENCH / "references.json").read_text())
    for workload in references:
        wrong = json.loads(json.dumps(references))
        expected = wrong[workload]["smoke"]["expected"]
        key = next(k for k, v in expected.items() if isinstance(v, str) and len(v) == 64)
        expected[key] = "0" * 64
        tree = copy_bench(WORK / f"wrong-{workload}")
        (tree / "src").symlink_to(ROOT / "src")
        (tree / "perfbench" / "references.json").write_text(json.dumps(wrong))
        done = bench("--workload", workload, "--smoke", root=tree)
        shutil.rmtree(tree)
        result = result_of(done)
        if done.returncode == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a wrong {key} digest was not reported as a failed run")

    bare = copy_bench(WORK / "bare")
    done = bench("--workload", "gasket-cli", "--seed", "0", "--trace", "0", root=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("without src/ the benchmark did not stop silently with a non-zero exit")

    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
