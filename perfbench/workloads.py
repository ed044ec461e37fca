"""The benchmark's workloads, their input tables and their output checks.

Each workload is a closed loop: one caller in one process, each run
starting when the previous one ends, with at most two threads.  ``--seed``
picks an entry of the workload's input table (seed modulo its length).
Entry 0 is the default input; the others move the bound a few percent
either side.  references.json pins every entry's outputs, generated once by
make_references.py, so packlab only ever receives inputs from the table and
every run is checked against a reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from spans import patched


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- gasket-cli: the headline user pipeline ---------------------------------


def run_gasket(inputs: dict, workdir: str):
    from packlab import cli

    paths = {
        "spheres_csv": os.path.join(workdir, "spheres.csv"),
        "counts_csv": os.path.join(workdir, "counts.csv"),
        "svg": os.path.join(workdir, "gasket.svg"),
    }
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        packed = cli.main([
            "pack", "--catalog", "apollonian2", "--T", inputs["T"], "--threads", "2",
            "--out", paths["spheres_csv"], "--counts", paths["counts_csv"], "--svg", paths["svg"],
        ])
        fitted = cli.main(["fit", "--counts", paths["counts_csv"], "--window-decades", inputs["window_decades"]])
    if packed or fitted:
        raise RuntimeError(f"packlab pack/fit exited with {packed}/{fitted}")
    out = {}
    for key, path in paths.items():
        with open(path, "rb") as fh:
            out[key] = hashlib.sha256(fh.read()).hexdigest()
    with open(paths["spheres_csv"]) as fh:
        ks = sorted(Fraction(row.split(",", 1)[0]) for row in fh.read().splitlines()[1:])
    bound = Fraction(inputs["T"])
    text = shown.getvalue()
    out["count"] = sum(1 for k in ks if 0 < k <= bound)
    out["curvatures"] = digest("\n".join(map(str, ks)))
    out["truncated"] = re.search(r"\(truncated: (\w+)\)", text).group(1) != "False"
    out["delta_hat"] = json.loads(text.splitlines()[-1])["delta_hat"]
    return out, out["count"]


def main_pass_gasket(inputs: dict, tracer):
    import packlab

    seed = packlab.packing_seed("apollonian2")
    with tracer.span("orbit.main_pass"):
        packlab.enumerate_packing(seed, bound=inputs["T"], threads=2, convergence_check=False)


# -- sphere3-dedup: the non-tree-safe rank-5 orbit ---------------------------


def run_sphere3(inputs: dict, workdir: str):
    import packlab

    orb = packlab.enumerate_packing(packlab.packing_seed("apollonian3"), bound=inputs["T"], threads=1)
    curve = packlab.curve_from_orbit(orb)
    ks = orb.positive_curvatures()
    out = {
        "count": len(ks),
        "spheres": digest("\n".join(",".join(map(str, col)) for col in orb.spheres)),
        "curvatures": digest("\n".join(map(str, ks))),
        "counts_csv": digest(curve.to_csv()),
        "truncated": orb.truncated,
    }
    return out, len(ks)


def main_pass_sphere3(inputs: dict, tracer):
    import packlab

    seed = packlab.packing_seed("apollonian3")
    with tracer.span("orbit.main_pass"):
        packlab.enumerate_packing(seed, bound=inputs["T"], threads=1, convergence_check=False)


# -- k3-orbits: the surface orbit engine ------------------------------------


def run_k3(inputs: dict, workdir: str):
    import packlab

    counted = []

    def keep(_name, fn):
        def call(*args, **kwargs):
            counted.append(fn(*args, **kwargs))
            return counted[-1]

        return call

    out, items = {}, 0
    for name, bound in inputs["models"]:
        # estimate_surface_exponent returns only the fit; keep its OrbitCount
        with patched(keep, [("surfaces.orbit_count", "packlab.surfaces", "orbit_count")]):
            est = packlab.estimate_surface_exponent(packlab.builtin_model(name), bound, threads=1)
        oc = counted.pop()
        out[f"{name}.count"] = oc.count
        out[f"{name}.degrees"] = digest("\n".join(map(str, oc.degrees)))
        out[f"{name}.truncated"] = oc.truncated
        out[f"{name}.delta_hat"] = est.delta_hat
        items += oc.count
    return out, items


def main_pass_k3(inputs: dict, tracer):
    import packlab

    for name, bound in inputs["models"]:
        model = packlab.builtin_model(name)
        with tracer.span("surfaces.main_pass"):
            packlab.orbit_count(model, bound, threads=1, convergence_check=False)


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # (inputs, workdir) -> (outputs, items); items = distinct outputs
    main_pass: Callable  # (inputs, tracer): traced-only run without the recheck
    table: tuple  # inputs per seed; entry 0 is the default
    smoke: dict  # tiny inputs for the self-test
    setup: str  # Python run by a setup probe after `import packlab`
    layers: tuple  # per-layer metrics (or their layer prefixes) this workload runs
    delta_ranges: dict = field(default_factory=dict)  # output -> (lo, hi) on table entries


WORKLOADS = {
    w.name: w
    for w in (
        # The headline user pipeline: `pack` then `fit` through the CLI.  Its
        # orbit is tree-safe (no cluster dedup) with exact geometry, and
        # euclidean_spheres runs twice (CSV and SVG), so both orbit-kernel and
        # output changes show.  The default 2-decade fit window holds only 7 of
        # the 8 points fit needs at T=3e4, hence 3 decades.
        Workload(
            name="gasket-cli",
            run=run_gasket,
            main_pass=main_pass_gasket,
            table=tuple(
                {"T": t, "window_decades": "3"}
                for t in ("30000", "29700", "30300", "29850", "30150", "29550", "30450")
            ),
            # T=1000 leaves 7 grid points, one fewer than fit requires
            smoke={"T": "2000", "window_decades": "3"},
            setup="packlab.packing_seed('apollonian2')",
            layers=("orbit", "inversive", "cli", "exponent", "catalog", "coxeter", "trace"),
        ),
        # The non-tree-safe rank-5 orbit: cluster dedup and the doubled-slack
        # recheck dominate and output is negligible, so kernel and dedup changes
        # help most here and output changes should read "no change".
        # BENCHMARK.json does not list it: two workloads of 60-s runs fit the
        # benchmark's time budget where three fit only 45-s runs, too short
        # to average out the host's slow spells.  Run it by name.
        Workload(
            name="sphere3-dedup",
            run=run_sphere3,
            main_pass=main_pass_sphere3,
            # curvatures are integers: 58 and 61 give the same spheres as 57
            # and 60, so 59 and 62 are the nearest bounds with other orbits
            table=({"T": 60}, {"T": 59}, {"T": 62}),
            smoke={"T": 20},
            setup="packlab.packing_seed('apollonian3')",
            layers=("orbit", "exponent.curve_s", "catalog", "coxeter", "trace"),
        ),
        # The second orbit engine (integer matrix-vector, vector dedup, slack 4)
        # with no Coxeter or geometry code: the bypass for packing-only changes.
        Workload(
            name="k3-orbits",
            run=run_k3,
            main_pass=main_pass_k3,
            table=tuple(
                {"models": [["baragar_222", a], ["baragar_p2p2", b]]}
                for a, b in (
                    (10_000, 10_000_000),
                    (9_900, 10_100_000),
                    (10_100, 9_900_000),
                    (9_800, 10_200_000),
                    (10_200, 9_800_000),
                )
            ),
            smoke={"models": [["baragar_p2p2", 10_000]]},
            setup="[packlab.builtin_model(m) for m in ('baragar_222', 'baragar_p2p2')]",
            layers=("surfaces", "exponent", "trace"),
            # acceptance criterion 8
            delta_ranges={"baragar_p2p2.delta_hat": (0.60, 0.70), "baragar_222.delta_hat": (1.20, 1.40)},
        ),
    )
}


def exercises(workload: Workload, metric: str) -> bool:
    """Whether the workload runs the layer a per-layer metric measures."""
    return any(metric == layer or metric.startswith(layer + ".") for layer in workload.layers)


def check(workload: Workload, outputs: dict, expected: dict, smoke: bool) -> list[str]:
    """Every way the outputs miss the pinned reference; empty when correct."""
    problems = []
    if set(outputs) != set(expected):
        problems.append(f"outputs {sorted(outputs)} differ from reference keys {sorted(expected)}")
    for key, want in expected.items():
        got = outputs.get(key)
        if isinstance(want, float) and isinstance(got, float):
            same = math.isclose(got, want, rel_tol=1e-9)
        else:
            same = got == want
        if not same:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    for key, value in outputs.items():
        if key.rsplit(".", 1)[-1] == "truncated" and value is not False:
            problems.append(f"{key} is {value!r}")
    if not smoke:
        for key, (lo, hi) in workload.delta_ranges.items():
            if not lo <= outputs.get(key, math.nan) <= hi:
                problems.append(f"{key} = {outputs.get(key)!r} outside [{lo}, {hi}]")
    return problems
