"""The breadth-first orbit walk behind packings, surface counts and iter_clusters.

A walk starts from a list of root nodes and expands one whole level at a
time.  ``expand(level)`` returns the children that pass its prune test, in
order, and how many it pruned; the walk then drops the children whose
dedup key it has already seen.  Pruning comes before dedup on purpose:
whether a packing child is kept depends on the generator that produced
it, not only on the cluster it reaches, so deduping first would drop
clusters that a later, unpruned path reaches.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional


def walk(
    roots: list,
    expand: Callable[[list], tuple[list, int]],
    key: Optional[Callable] = None,
    stats: Optional[dict] = None,
) -> Iterator[list]:
    """Yield each level below the roots in turn; the last one yielded is empty.

    With a ``key``, a child whose key a root or an earlier child had is
    dropped.  ``stats`` receives the counters ``expanded`` (children
    generated), ``pruned`` and ``max_frontier`` (largest level, roots
    included).
    """
    stats = {} if stats is None else stats
    level = list(roots)
    seen = None if key is None else set(map(key, level))
    stats.update(expanded=0, pruned=0, max_frontier=len(level))
    while level:
        children, pruned = expand(level)
        stats["expanded"] += len(children) + pruned
        stats["pruned"] += pruned
        if seen is None:
            level = children
        else:
            level = []
            for child in children:
                k = key(child)
                if k not in seen:
                    seen.add(k)
                    level.append(child)
        stats["max_frontier"] = max(stats["max_frontier"], len(level))
        yield level


def recheck(run: Callable, outputs, stats: dict, below: Callable):
    """Doubled-slack convergence check of a pruned counting walk.

    ``outputs`` and ``stats`` come from ``run(1)``; ``run(2)`` repeats the
    walk with twice the pruning slack.  When ``below`` (the outputs within
    the counting bound) differs between the two, the first walk pruned a
    branch it needed: the union of both outputs is returned, marked
    truncated.  Returns (outputs, truncated) and records the rerun's
    expansions as ``stats["recheck_expanded"]``.
    """
    wide, wide_stats = run(2)
    stats["recheck_expanded"] = wide_stats["expanded"]
    if below(outputs) == below(wide):
        return outputs, False
    return outputs | wide, True
