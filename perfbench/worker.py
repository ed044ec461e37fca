"""Run one workload in this fresh process and print its measurements.

run.py starts this file with a JSON spec on standard input and reads one
JSON line from its standard output.  The untraced closed loop runs first,
each iteration preceded by SETUP_PROBES set-up probes, so that probes and
iterations sample the same phases of a shared host.  With tracing on, the
loop runs for half the time without probes, then one traced iteration
follows and the traced-only passes without the convergence recheck come
last, so neither perturbs the other.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# Set-up probes before each untraced iteration; setup_s is their median.
SETUP_PROBES = 4


def probe_setup(src: str, build: str) -> float:
    """Seconds from starting a fresh interpreter to a built seed or model."""
    code = f"import sys, time\nsys.path.insert(0, {src!r})\nimport packlab\n{build}\nprint(time.monotonic())"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.split()[-1]) - start


def layer_metrics(t, overhead_s: float, out_bytes: int) -> dict:
    """Per-layer numbers of one traced iteration.

    Every per-layer metric is reported on every workload; a layer the
    workload does not run (see Workload.layers) reads 0.
    """

    def ratio(useful, attempts):
        return useful / attempts if attempts else 0.0

    packing = "orbit.enumerate_packing"
    surface = "surfaces.orbit_count"
    orbit_attempts = t.counter(packing, "expanded") + t.counter(packing, "recheck_expanded")
    surface_attempts = t.counter(surface, "expanded") + t.counter(surface, "recheck_expanded")
    return {
        "orbit.enumerate_s": t.total(packing),
        "orbit.main_pass_s": t.total("orbit.main_pass"),
        "orbit.expanded": t.counter(packing, "expanded"),
        "orbit.recheck_expanded": t.counter(packing, "recheck_expanded"),
        "orbit.pruned": t.counter(packing, "pruned"),
        "orbit.max_frontier": t.counter(packing, "max_frontier", max),
        "orbit.useful_ratio": ratio(t.counter(packing, "outputs"), orbit_attempts),
        "inversive.euclidean_spheres_s": t.total("inversive.euclidean_spheres"),
        "inversive.euclidean_spheres_calls": t.calls("inversive.euclidean_spheres"),
        "inversive.render_svg_s": t.total("inversive.render_svg"),
        "cli.self_s": t.self_time("cli.cmd_pack"),
        "cli.out_bytes": out_bytes,
        "exponent.curve_s": t.total("exponent.curve_from_orbit", "exponent.counting_function"),
        "exponent.fit_s": t.total("exponent.fit_exponent"),
        "surfaces.verify_s": t.total("surfaces.verify_model"),
        "surfaces.orbit_count_s": t.total(surface),
        "surfaces.main_pass_s": t.total("surfaces.main_pass"),
        "surfaces.expanded": t.counter(surface, "expanded"),
        "surfaces.recheck_expanded": t.counter(surface, "recheck_expanded"),
        "surfaces.pruned": t.counter(surface, "pruned"),
        "surfaces.useful_ratio": ratio(t.counter(surface, "outputs"), surface_attempts),
        "catalog.packing_seed_s": t.total("catalog.packing_seed"),
        "coxeter.build_polytope_s": t.total("coxeter.build_polytope"),
        "trace.overhead_s": overhead_s,
    }


def main() -> int:
    spec = json.load(sys.stdin)
    src = spec["src"]
    sys.path.insert(0, src)
    import numpy
    import packlab

    if not os.path.abspath(packlab.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"packlab imported from {packlab.__file__}, not from {src}")

    from spans import Tracer, patched
    from workloads import WORKLOADS, check

    workload = WORKLOADS[spec["workload"]]
    inputs, workdir = spec["inputs"], spec["workdir"]
    errors = []

    def attempt():
        """One closed-loop iteration: the workload call through verified outputs."""
        start = time.perf_counter()
        try:
            outputs, items = workload.run(inputs, workdir)
            problems = check(workload, outputs, spec["expected"], spec["smoke"])
        except Exception:  # a raising run is a failed run, not a crashed benchmark
            items, problems = 0, [traceback.format_exc(limit=3)]
        wall = time.perf_counter() - start
        if problems:
            errors.append(problems)
        return wall, items, not problems

    samples, setup, items, attempted = [], [], 0, 0
    seconds = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    # An iteration starts only if one as long as the longest so far still
    # ends within the measured time, so a run seldom outlasts it.
    loop_start = cycle_start = time.perf_counter()
    longest = 0.0
    while attempted == 0 or cycle_start - loop_start + longest <= seconds:
        if not spec["trace"]:
            setup += [probe_setup(spec["src"], workload.setup) for _ in range(SETUP_PROBES)]
        wall, n, ok = attempt()
        attempted += 1
        if ok:
            samples.append(wall)
            items = n
        gc.collect()
        now = time.perf_counter()
        longest, cycle_start = max(longest, now - cycle_start), now
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_layer = None
    if spec["trace"]:
        tracer = Tracer(trace_id=spec["trace_id"])
        with patched(tracer.wrap):
            traced_wall, _, ok = attempt()
        attempted += 1
        out_bytes = sum(e.stat().st_size for e in os.scandir(workdir) if e.is_file())
        workload.main_pass(inputs, tracer)
        if samples and ok:
            per_layer = layer_metrics(tracer, traced_wall - statistics.median(samples), out_bytes)
        with open(spec["spans_path"], "w") as fh:
            for record in tracer.spans:
                fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "samples": samples,
        "setup": setup,
        "items": items,
        "peak_rss_mib": peak_rss_mib,
        "numpy": numpy.__version__,
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
