"""The bounded breadth-first orbit walk behind packings, surface counts and iter_clusters.

A walk starts from a list of root nodes and expands one whole level at a
time.  ``expand(level)`` returns the children that pass its prune test, in
order, and how many it pruned; the walk then drops the children whose
dedup key it has already seen.

The walk policy is written here once: the depth cap, the pruning limit,
the doubled-slack recheck and every work counter, and the vector-orbit
expand that bounded packings and surface counts share.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Iterator, Optional, Sequence

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


def vector_expand(generators: Sequence[Callable], row: Sequence):
    """``expand(level, limit, factor)`` for an orbit of single vectors.

    A node is ``(vector, |row . vector|)`` and each generator is a callable
    acting on a vector from the left.  A child whose height is beyond the
    limit is pruned; key the walk by ``itemgetter(0)`` to dedup by vector.
    """

    def expand(level, limit, _factor):
        children, pruned = [], 0
        for v, _ in level:
            for g in generators:
                w = g(v)
                h = abs(sum(map(mul, row, w)))
                if h <= limit:
                    children.append((w, h))
                else:
                    pruned += 1
        return children, pruned

    return expand


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
