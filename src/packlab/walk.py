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
its parent, as (row A) . v, and a pruned child is never built.  Once per
walk, ``compile_generator`` turns each generator into two straight-line
functions over a vector's coordinates: ``price`` runs for every child
the walk tries, ``build`` only for one that passes the prune test.
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


def compile_generator(a: Sequence[Sequence], row: Sequence) -> tuple[Callable, Callable]:
    """``price(v)``, the height |(row . A) . v| of the child A v, and
    ``build(v)``, the child A v itself, for the square exact matrix A.

    Each is one generated expression over the unpacked coordinates v0,
    v1, ... of v.  Zero coefficients are dropped and +-1 become a bare
    sign.  Only an entry of type exactly int, of at most 64 bits, is
    written into the source, as a literal.  Every other entry (a Fraction,
    an int subclass, a longer int, whose decimal text the interpreter may
    refuse to make) is bound by name in the functions' namespace, so no
    text that a caller's object makes enters the source.
    """
    names = {}

    def linear(coefficients) -> str:
        text = ""
        for j, c in enumerate(coefficients):
            if type(c) is not int or c.bit_length() > 64:
                name = f"c{len(names)}"
                names[name] = c
                text += f" + {name}*v{j}"
            elif c:
                size = abs(c)
                text += (" + " if c > 0 else " - ") + (f"v{j}" if size == 1 else f"{size}*v{j}")
        if not text:
            return "0"
        return ("-" if text[1] == "-" else "") + text[3:]

    unpack = "".join(f"v{j}, " for j in range(len(row))) + "= v"
    height = linear(tight(sum(map(mul, row, col)) for col in zip(*a)))
    child = "".join(linear(r) + ", " for r in a)
    source = (
        f"def price(v):\n    {unpack}\n    return abs({height})\n"
        f"def build(v):\n    {unpack}\n    return ({child})\n"
    )
    exec(compile(source, "<walk generator>", "exec"), names)
    return names["price"], names["build"]


def bounded_walk(
    roots: Sequence[tuple], generators: Sequence[Sequence[tuple]], row: Sequence, bound, slack,
    run: Callable, max_depth=None, check=True, depth=0, known=(),
):
    """The orbit of the root vectors, pruned beyond ``bound * slack``, and its recheck.

    Each generator is a square exact matrix A acting on a column vector
    from the left, its entries ints or Fractions as ``exact.tight`` gives
    them.  Once per call the walk reads each one's height row row . A,
    which prices a child |row . A v| from its parent, so only a child that
    passes the prune test is built; each generator's ``price`` and
    ``build`` come from ``compile_generator``.  It also tests A A = I
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
    priced = [(i, *compile_generator(a, row)) for i, a in enumerate(generators)]
    # the generators a node tries, by the index of the one that made it: an
    # involution is not tried again, and roots (-1) try every generator
    one = identity(len(row))
    tries = [
        [t for t in priced if t[0] != i or mat_mul(a, a) != one] for i, a in enumerate(generators)
    ]
    tries.append(priced)

    def expansion(cut, hold=None):
        """Expand a level, pruning beyond ``cut``; with ``hold``, append the
        level's pruned children within ``far`` to it as one list of
        (parent vector, generator index) pairs."""

        def expand(level):
            children, near, pruned = [], [], 0
            for v, _, last in level:
                for i, price, build in tries[last]:
                    h = price(v)
                    if h <= cut:
                        children.append((build(v), h, i))
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
            _, price, build = priced[i]
            yield build(v), price(v), i

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
