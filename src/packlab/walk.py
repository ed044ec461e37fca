"""The bounded breadth-first orbit walk behind packings, surface counts and iter_clusters.

A walk starts from a list of root nodes and expands one whole level at a
time.  ``expand(level)`` returns the children that pass its prune test, in
order, and how many it pruned; the walk then drops the children whose
dedup key it has already seen.  Pruning comes before dedup on purpose:
whether a packing child is kept depends on the generator that produced
it, not only on the cluster it reaches, so deduping first would drop
clusters that a later, unpruned path reaches.

The walk policy is written here once: the depth cap, the pruning limit,
the doubled-slack recheck and every work counter.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .errors import PreconditionError
from .exact import rat, tight


def walk(
    roots: list,
    expand: Callable[[list], tuple[list, int]],
    key: Optional[Callable] = None,
    stats: Optional[dict] = None,
    max_depth: Optional[int] = None,
    depth: int = 0,
    pruned_roots: int = 0,
) -> Iterator[list]:
    """Yield each level below the roots in turn; the last one yielded is empty.

    With a ``key``, a child whose key a root or an earlier child had is
    dropped.  The roots sit at ``depth``, and a level at ``max_depth`` is
    cut: not expanded, its nodes counted as ``depth_cut`` and as pruned.
    ``stats`` receives ``expanded`` (children generated), ``pruned``
    (``pruned_roots``, roots the caller dropped, included) and
    ``max_frontier`` (largest level, roots included).
    """
    stats = {} if stats is None else stats
    level = list(roots)
    seen = None if key is None else set(map(key, level))
    stats.update(expanded=0, pruned=pruned_roots, max_frontier=len(level))
    while level:
        if max_depth is not None and depth >= max_depth:
            stats["pruned"] += len(level)
            stats["depth_cut"] = len(level)
            yield []
            return
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
        depth += 1
        yield level


def bounded_walk(run: Callable, bound, slack, below: Callable, max_depth=None, check=True):
    """A counting walk pruned beyond ``bound * slack``, and its recheck.

    ``run(walk_pass, limit)`` walks once and returns its outputs, a set or
    a dict.  ``walk_pass(roots, expand, key, depth, pruned_roots)`` is
    ``walk`` with this pass's counters and depth cap, and it calls
    ``expand(level, limit, factor)``.  The limit is an int when integral;
    with ``bound`` None it is None and ``slack`` is not read.  With
    ``check``, a walk that pruned something is rerun at factor 2 (twice
    the slack); one that pruned nothing already reached every node.  If
    ``below`` (the outputs within the counting bound) differs between the
    two, the first walk missed a branch: the union of both is returned.

    Returns (outputs, stats, truncated): a disagreement or a depth cut
    truncates; stats holds the first walk's counters, ``slack`` and
    ``recheck_expanded``.
    """
    if bound is not None and rat(slack) < 1:
        raise PreconditionError("slack must be >= 1")

    def one(factor):
        limit = None if bound is None else tight(rat(bound) * rat(slack) * factor)
        stats = {}

        def walk_pass(roots, expand, key=None, depth=0, pruned_roots=0):
            step = lambda level: expand(level, limit, factor)
            return walk(roots, step, key, stats, max_depth, depth, pruned_roots)

        return run(walk_pass, limit), stats

    outputs, stats = one(1)
    truncated = "depth_cut" in stats
    if check and bound is not None and stats["pruned"]:
        wide, wide_stats = one(2)
        stats["recheck_expanded"] = wide_stats["expanded"]
        if below(outputs) != below(wide):
            outputs, truncated = outputs | wide, True
    stats["slack"] = None if bound is None else str(slack)
    return outputs, stats, truncated
