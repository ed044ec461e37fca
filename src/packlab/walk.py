"""The breadth-first orbit walk behind packings, surface counts and iter_clusters.

A walk starts from a list of root nodes and expands one whole level at a
time.  A node is a tuple whose first field is its dedup key: a sphere,
class or cluster vector (a cluster's columns end to end).
``expand(level, seen, held)`` returns the next level, the children that
pass its prune test less those whose key is already seen, and how many
children it generated and pruned.

``bounded_walk`` is the one vector-orbit walk: packings in both modes
and surface counts all count the orbits of a few integer vectors under
exact square matrices acting on columns from the left, cut off by the
height ``|row . v|`` (a depth-limited packing's zero row cuts nothing).
``iter_clusters`` lists group elements by ``walk`` and ``compile_level``,
zero row, no recheck.  ``bounded_walk`` holds the pruning limit, the
doubled-slack recheck and every work counter; a caller's ``run`` picks
what it counts and enforces budgets.  Roots are always expanded, and
``known`` vectors (a resumed checkpoint's spheres) start out seen, so the
walk does not walk them again.  It builds each node once: the recheck
continues the first walk instead of replaying it, and a generator with
A A = I, which the walk detects itself, is never applied back to the node
it made.  Every generator is linear, so a child's height is priced from
its parent, as (row A) . v, and a pruned child is never built.  Once per
walk, ``compile_level`` turns all the generators into one straight-line
function that expands a whole level: it unpacks each parent once, prices
every child it tries, builds one that passes the prune test, drops it if
seen, holds a pruned one for the recheck with its height, and builds the
held children of the level without pricing them again.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import mul
from typing import Callable, Iterator, Optional, Sequence

from .errors import PreconditionError
from .exact import identity, mat_mul, rat, tight


def walk(
    roots: list,
    expand: Callable[[list, set, Sequence], tuple[list, int, int]],
    seen: set,
    stats: Optional[dict] = None,
    max_depth: Optional[int] = None,
    depth: int = 0,
    held=(),
) -> Iterator[list]:
    """Yield each level below the roots in turn; the last one yielded is empty.

    ``expand(level, seen, held_level)`` returns the next level, how many
    children it generated and how many of those it pruned.  The next level
    holds, in order, each child that passed the prune test and each child
    of ``held_level``, less those whose key (first field) is in ``seen``;
    ``expand`` adds each key it keeps to ``seen``.  The roots' keys are
    added before the first call.  The roots sit at ``depth``, and a level
    at ``max_depth`` is cut: not expanded, its nodes counted as
    ``depth_cut`` and as pruned.  ``held`` is a deque of extra children,
    one iterable of them per level below the roots, passed as
    ``held_level`` to the call that makes that level; the walk pops each
    one as it uses it and goes on while any is left.  ``stats`` receives
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
        level, generated, pruned = expand(level, seen, held.popleft() if held else ())
        stats["expanded"] += generated
        stats["pruned"] += pruned
        stats["max_frontier"] = max(stats["max_frontier"], len(level))
        depth += 1
        yield level


def compile_level(generators: Sequence[Sequence[Sequence]], row: Sequence) -> Callable:
    """``expand(level, seen, held, cut, far, near)``: one level of the walk
    by the square exact matrices ``generators``, with heights |row . v|.

    ``level`` is a list of nodes ``(v, height, last)``; each node tries
    every generator in order but the one that made it (its index ``last``)
    if that one is an involution, A A = I (tested exactly), which would
    only give back the parent.  A child A v is priced from its parent as
    |(row . A) . v|.  Within ``cut`` it is built and kept as ``(A v,
    height, index)`` unless it is in ``seen``, to which it is then added;
    beyond ``cut`` it is pruned, and if within ``far`` held as ``(v,
    index, height)`` in the list ``near``.  Then the triples of ``held``
    are built, without pricing them again, and kept in turn unless seen.
    Returns the kept children, the number of children generated and the
    number pruned.

    The function is generated once, as straight-line code over the
    unpacked coordinates v0, v1, ... of each parent.  Zero coefficients
    are dropped and +-1 become a bare sign.  Only an entry of type exactly
    int, of at most 64 bits, is written into the source, as a literal.
    Every other entry (a Fraction, an int subclass, a longer int, whose
    decimal text the interpreter may refuse to make) is bound by name in
    the function's namespace, so no text that a caller's object makes
    enters the source.
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
    one = identity(len(row))
    lines = [
        "def expand(level, seen, held, cut, far, near):",
        "    out = []",
        "    keep, hold, add = out.append, near.append, seen.add",
        "    pruned = skipped = 0",
        "    for v, _, last in level:",
        f"        {unpack}",
    ]
    builds = []
    for i, a in enumerate(generators):
        height = linear(tight(sum(map(mul, row, col))) for col in zip(*a))
        builds.append("(" + "".join(linear(r) + ", " for r in a) + ")")
        pad = "        "
        if mat_mul(a, a) == one:
            lines.append(f"{pad}if last == {i}:\n{pad}    skipped += 1\n{pad}else:")
            pad += "    "
        lines += [
            f"{pad}h = abs({height})",
            f"{pad}if h <= cut:",
            f"{pad}    c = {builds[i]}",
            f"{pad}    if c not in seen:",
            f"{pad}        add(c)",
            f"{pad}        keep((c, h, {i}))",
            f"{pad}else:",
            f"{pad}    pruned += 1",
            f"{pad}    if h <= far:",
            f"{pad}        hold((v, {i}, h))",
        ]
    lines += ["    for v, i, h in held:", f"        {unpack}"]
    for i, child in enumerate(builds):
        lines.append(f"        {'if' if i == 0 else 'elif'} i == {i}:\n            c = {child}")
    lines += [
        "        if c not in seen:",
        "            add(c)",
        "            keep((c, h, i))",
        f"    return out, {len(builds)} * len(level) - skipped, pruned",
    ]
    exec(compile("\n".join(lines) + "\n", "<walk level>", "exec"), names)
    return names["expand"]


def bounded_walk(
    roots: Sequence[tuple], generators: Sequence[Sequence[tuple]], row: Sequence, bound, slack,
    run: Callable, max_depth=None, check=True, depth=0, known=(),
):
    """The orbit of the root vectors, pruned beyond ``bound * slack``, and its recheck.

    Each generator is a square exact matrix A acting on a column vector
    from the left, its entries ints or Fractions as ``exact.tight`` gives
    them.  Once per call ``compile_level`` turns them into the one
    function that expands a level: it prices each child from its parent,
    builds only one that passes the prune test, and never applies an
    involution to the node it made.  A node is ``(vector, |row .
    vector|, index of the generator that made it)``, -1 for a root.  A child beyond the
    limit (an int when integral) is pruned, and dedup is by vector.  A
    zero ``row`` with ``bound`` 0 prunes nothing: every height is 0, so
    only ``max_depth`` stops the walk.
    ``run(levels, seen)`` consumes one pass's levels and returns what it
    counts, a set or dict of its own keyed by vector; ``seen`` is the live
    set of vectors: ``known``, the roots and every child kept so far.  With
    ``check``, a walk that pruned something is rechecked at twice the
    limit; one that pruned nothing already reached every node.
    The recheck is a second ``run`` on the same ``seen``: each level takes
    the children the walk pruned there within twice the limit, held as
    (parent, generator index, height) and built only then, and only nodes
    new to ``seen`` are expanded.  Without a depth cap it reaches
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
    expand = compile_level(generators, row)
    held = deque()

    def first(level, seen, _):
        # a pruned child within twice the limit waits for the recheck as a
        # (parent, generator index, height) triple, one list per level;
        # without a recheck none is held
        held.append([])
        return expand(level, seen, (), limit, far if check else limit, held[-1])

    stats, seen = {}, set(known)
    nodes = [(v, abs(sum(map(mul, row, v))), -1) for v in roots]
    outputs = run(walk(nodes, first, seen, stats, max_depth, depth), seen)
    truncated = "depth_cut" in stats
    if check and stats["pruned"]:
        wide = {}
        recheck = partial(expand, cut=far, far=far, near=[])
        more = run(walk([], recheck, seen, wide, max_depth, depth, held), seen)
        stats["recheck_expanded"] = wide["expanded"]
        if not set(outputs).issuperset(more):
            outputs, truncated = outputs | more, True
    stats["slack"] = str(slack)
    return outputs, stats, truncated
