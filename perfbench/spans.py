"""Span recording around calls into packlab's public functions.

The benchmark times each layer from outside the library: it replaces a
public function with a recording wrapper in every packlab namespace that
binds it (``cli`` binds ``render_svg`` at import, so both
``packlab.inversive.render_svg`` and ``packlab.cli.render_svg`` are
replaced), runs one workload iteration, and puts the originals back.
Spans stay in memory until the run ends.  Wrapped calls must come from
one thread; packlab's own worker threads run below the wrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (span name, module, attribute path) of every wrapped public function.
TARGETS = (
    ("cli.main", "packlab.cli", "main"),
    ("cli.cmd_pack", "packlab.cli", "cmd_pack"),
    ("cli.cmd_fit", "packlab.cli", "cmd_fit"),
    ("catalog.packing_seed", "packlab.catalog", "packing_seed"),
    ("coxeter.build_polytope", "packlab.coxeter", "build_polytope"),
    ("orbit.enumerate_packing", "packlab.orbit", "enumerate_packing"),
    ("inversive.euclidean_spheres", "packlab.orbit", "PackingOrbit.euclidean_spheres"),
    ("inversive.render_svg", "packlab.inversive", "render_svg"),
    ("exponent.curve_from_orbit", "packlab.exponent", "curve_from_orbit"),
    ("exponent.counting_function", "packlab.exponent", "counting_function"),
    ("exponent.fit_exponent", "packlab.exponent", "fit_exponent"),
    ("surfaces.estimate_surface_exponent", "packlab.surfaces", "estimate_surface_exponent"),
    ("surfaces.verify_model", "packlab.surfaces", "verify_model"),
    ("surfaces.orbit_count", "packlab.surfaces", "orbit_count"),
)


# Spans whose result (a PackingOrbit or OrbitCount) carries work counters.
COUNTED = ("orbit.enumerate_packing", "surfaces.orbit_count")


def orbit_counts(result) -> dict:
    """Work counters of a PackingOrbit or OrbitCount, recorded on its span."""
    keys = ("expanded", "recheck_expanded", "pruned", "max_frontier")
    out = {k: v for k, v in result.stats.items() if k in keys}
    out["outputs"] = len(result.spheres) if hasattr(result, "spheres") else result.count
    return out


class Tracer:
    """In-memory span log: name, start, end, parent span and counters."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name in COUNTED:
                    record["counts"] = orbit_counts(result)
                return result

        return traced

    # -- derived numbers -------------------------------------------------

    def duration(self, record) -> float:
        return record["end"] - record["start"]

    def total(self, *names: str) -> float:
        """Time inside spans of the given names, each interval counted once."""
        by_id = {s["id"]: s for s in self.spans}

        def nested(s):
            p = s["parent"]
            while p is not None:
                if by_id[p]["name"] in names:
                    return True
                p = by_id[p]["parent"]
            return False

        return sum(self.duration(s) for s in self.spans if s["name"] in names and not nested(s))

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        child = sum(self.duration(s) for s in self.spans if s["parent"] in ids)
        return sum(self.duration(s) for s in self.spans if s["id"] in ids) - child

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def counter(self, name: str, key: str, combine=sum) -> int:
        values = [s["counts"].get(key, 0) for s in self.spans if s["name"] == name]
        return combine(values) if values else 0


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(wrap, targets=TARGETS):
    """Replace each target by ``wrap(name, fn)`` in every namespace that
    binds it, and restore the originals on exit."""
    undo = []
    try:
        for name, module, path in targets:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapped = wrap(name, original)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = [
                    m for key, m in list(sys.modules.items())
                    if key == "packlab" or key.startswith("packlab.")
                ]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapped)
                        undo.append((home, key, original))
        yield
    finally:
        for home, key, original in reversed(undo):
            setattr(home, key, original)
