"""The breadth-first orbit walk behind packings, surface counts and iter_clusters.

A walk starts from a list of root nodes and expands one whole level at a
time.  A node is a tuple whose first field is its dedup key: a sphere or
class vector, or a cluster's columns.  ``expand(level)`` returns the
children that pass its prune test, in order, and how many it pruned; the
walk then drops the children whose key it has already seen.

``bounded_walk`` is the one vector-orbit walk: packings in both modes
and surface counts all count the orbits of a few integer vectors under
exact square matrices acting on columns from the left, cut off by the
height ``|row . v|`` (a depth-limited packing's zero row cuts nothing).
``iter_clusters``, which lists group elements as clusters, is the only
other caller of ``walk``.  ``bounded_walk`` holds the pruning limit, the
doubled-slack recheck and every work counter; a caller's ``run`` picks
what it counts and enforces budgets.  Roots are always expanded, and
``known`` vectors (a resumed checkpoint's spheres) start out seen, so the
walk does not walk them again.  It builds each node once: the recheck
continues the first walk instead of replaying it, and a generator with
A A = I, which the walk detects itself, is never applied back to the node
it made.  Every generator is linear, so a child's height is priced from
its parent, as (row A) . v, and a pruned child is never built.
"""

from __future__ import annotations

from collections import deque
from operator import mul
from typing import Callable, Iterator, Optional, Sequence

from .errors import PreconditionError
from .exact import identity, mat_mul, rat, tight


def walk(
    roots: list,
    expand: Callable[[list], tuple[list, int]],
    seen: set,
    stats: Optional[dict] = None,
    max_depth: Optional[int] = None,
    depth: int = 0,
    held=(),
) -> Iterator[list]:
    """Yield each level below the roots in turn; the last one yielded is empty.

    A child whose key (first field) is in ``seen`` is dropped; the roots'
    keys and every kept child's key are added to it.  The roots sit at
    ``depth``, and a level at ``max_depth`` is cut: not expanded, its
    nodes counted as ``depth_cut`` and as pruned.  ``held`` is a deque of
    extra children, one iterable of nodes per level below the roots, that
    join those levels as if expanded there; the walk pops each one as it
    uses it and goes on while any is left.  ``stats`` receives
    ``expanded`` (children generated, held ones not included), ``pruned``
    and ``max_frontier`` (largest level, roots included).
    """
    stats = {} if stats is None else stats
    level = list(roots)
    seen.update(node[0] for node in level)
    stats.update(expanded=0, pruned=0, max_frontier=len(level))
    while level or held:
        if max_depth is not None and depth >= max_depth:
            stats["pruned"] += len(level)
            stats["depth_cut"] = len(level)
            yield []
            return
        children, pruned = expand(level)
        stats["expanded"] += len(children) + pruned
        stats["pruned"] += pruned
        if held:
            children += held.popleft()
        level = []
        for child in children:
            if child[0] not in seen:
                seen.add(child[0])
                level.append(child)
        stats["max_frontier"] = max(stats["max_frontier"], len(level))
        depth += 1
        yield level


def image(moves, v) -> tuple:
    """The child A v, from the ``moves`` of A: the pairs (j, column j of
    A - I) where A differs from I.  ``bounded_walk`` builds every vector here."""
    w = v
    for j, d in moves:
        t = v[j]
        w = [x + c * t for x, c in zip(w, d)]
    return tuple(w)


def bounded_walk(
    roots: Sequence[tuple], generators: Sequence[Sequence[tuple]], row: Sequence, bound, slack,
    run: Callable, max_depth=None, check=True, depth=0, known=(),
):
    """The orbit of the root vectors, pruned beyond ``bound * slack``, and its recheck.

    Each generator is a square exact matrix A acting on a column vector
    from the left, its entries ints or Fractions as ``exact.tight`` gives
    them.  Once per call the walk reads each one's height row row . A,
    which prices a child |row . A v| from its parent, so only a child that
    passes the prune test is built (by ``image``), and tests A A = I
    exactly: such a generator is not tried on a node it made, which would
    only give back the parent.  A node is ``(vector, |row . vector|, index
    of the generator that made it)``, -1 for a root.  A child beyond the
    limit (an int when integral) is pruned, and dedup is by vector.  A
    zero ``row`` with ``bound`` 0 prunes nothing: every height is 0, so
    only ``max_depth`` stops the walk.
    ``run(levels, seen)`` consumes one pass's levels and returns what it
    counts, a set or dict of its own keyed by vector; ``seen`` is the live
    set of vectors: ``known``, the roots and every child kept so far.  With
    ``check``, a walk that pruned something is rechecked at twice the
    limit; one that pruned nothing already reached every node.
    The recheck is a second ``run`` on the same ``seen``: each level takes
    the children the walk pruned there within twice the limit, and only
    nodes new to ``seen`` are expanded.  Without a depth cap it reaches
    what a fresh walk at twice the limit reaches, since the first node of
    any path outside the walk's set is such a child; it counts levels as
    the walk does, so ``max_depth`` cuts it at the same level.  If its
    ``run`` counts a vector that the walk's did not, the walk missed a
    branch: the union of both is returned.

    Returns (outputs, stats, truncated): a disagreement or a first-walk
    depth cut truncates; stats holds the first walk's counters, ``slack``
    and ``recheck_expanded``, the children the recheck generated.
    """
    if rat(slack) < 1:
        raise PreconditionError("slack must be >= 1")
    limit, far = (tight(rat(bound) * rat(slack) * factor) for factor in (1, 2))
    # per generator: the columns where A differs from I, which build a
    # child; the height row p = row . A, which prices a child from its
    # parent v as |p . v|; and whether A A = I
    priced, one = [], identity(len(row))
    for i, a in enumerate(generators):
        cols = [tuple(x - int(r == j) for r, x in enumerate(col)) for j, col in enumerate(zip(*a))]
        p = tight(sum(map(mul, row, col)) for col in zip(*a))
        priced.append((i, [(j, d) for j, d in enumerate(cols) if any(d)], p, mat_mul(a, a) == one))
    # the generators a node tries, by the index of the one that made it;
    # roots (-1) try every generator
    tries = [[t for t in priced if t[0] != i or not t[3]] for i in range(len(priced))]
    tries.append(priced)

    def expansion(cut, hold=None):
        """Expand a level, pruning beyond ``cut``; with ``hold``, append the
        level's pruned children within ``far`` to it as one list of
        (parent vector, generator index) pairs."""

        def expand(level):
            children, near, pruned = [], [], 0
            for v, _, last in level:
                for i, moves, p, _ in tries[last]:
                    h = abs(sum(map(mul, p, v)))
                    if h <= cut:
                        children.append((image(moves, v), h, i))
                    else:
                        pruned += 1
                        if hold is not None and h <= far:
                            near.append((v, i))
            if hold is not None:
                hold.append(near)
            return children, pruned

        return expand

    def rebuild(near):
        # a held child is built again when the recheck reaches its level, so
        # until then it costs a pair, not a vector
        for v, i in near:
            _, moves, p, _ = priced[i]
            yield image(moves, v), abs(sum(map(mul, p, v))), i

    stats, seen, held = {}, set(known), [] if check else None
    nodes = [(v, abs(sum(map(mul, row, v))), -1) for v in roots]
    outputs = run(walk(nodes, expansion(limit, held), seen, stats, max_depth, depth), seen)
    truncated = "depth_cut" in stats
    if check and stats["pruned"]:
        wide, held = {}, deque(map(rebuild, held))
        more = run(walk([], expansion(far), seen, wide, max_depth, depth, held), seen)
        stats["recheck_expanded"] = wide["expanded"]
        if not set(outputs).issuperset(more):
            outputs, truncated = outputs | more, True
    stats["slack"] = str(slack)
    return outputs, stats, truncated
