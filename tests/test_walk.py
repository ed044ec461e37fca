import dataclasses
import functools
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from packlab import catalog, exact, surfaces, walk as walk_module
from packlab.errors import PreconditionError
from packlab.orbit import enumerate_packing
from packlab.walk import bounded_walk, walk


def _unseen(children, seen):
    """The children whose key is not in ``seen``, in order; each kept key
    is added to it."""
    fresh = []
    for child in children:
        if child[0] not in seen:
            seen.add(child[0])
            fresh.append(child)
    return fresh


def _expand(level, seen, held):
    # children n + 1 and 2n of every node; those above 6 are pruned
    children = [(c,) for (n,) in level for c in (n + 1, 2 * n)]
    kept = [c for c in children if c[0] <= 6]
    return _unseen(kept + list(held), seen), len(children), len(children) - len(kept)


def test_walk_levels_dedup_and_counters():
    stats, seen = {}, set()
    levels = list(walk([(1,)], _expand, seen, stats))
    assert levels == [[(2,)], [(3,), (4,)], [(6,), (5,)], []]
    assert stats == {"expanded": 12, "pruned": 4, "max_frontier": 2}
    # the seen set holds the roots and every kept child
    assert seen == {1, 2, 3, 4, 5, 6}
    # a key seen before the walk is dropped like any other repeat
    assert list(walk([(1,)], _expand, {3}))[:2] == [[(2,)], [(4,)]]


def test_walk_depth_cap_is_the_level_index():
    stats = {}
    levels = list(walk([(1,)], _expand, set(), stats, max_depth=2))
    # level 2 ([3, 4]) is cut, not expanded: its nodes count as pruned
    assert levels == [[(2,)], [(3,), (4,)], []]
    assert stats == {"expanded": 4, "pruned": 2, "max_frontier": 2, "depth_cut": 2}
    # roots that start deeper reach the cap sooner
    assert list(walk([(1,)], _expand, set(), max_depth=2, depth=1)) == [[(2,)], []]


class Height(int):
    """An int that records every limit it is compared with."""

    limits = []

    def __rmul__(self, other):
        return Height(other * int(self))

    def __add__(self, other):
        return Height(int(self) + other)

    def __radd__(self, other):
        return Height(other + int(self))

    def __abs__(self):
        return Height(abs(int(self)))

    def __le__(self, limit):
        Height.limits.append(limit)
        return int(self) <= limit


# n -> n + 1 and n -> 2n on vectors (n, 1), the 1 a homogeneous
# coordinate; the height is n itself
STEPS = (((1, 1), (0, 1)), ((2, 0), (0, 1)))
ROOT = (Height(1), 1)


def _collect(levels, seen):
    # counts every n below 5 the pass leaves seen, as a set of its own
    for _ in levels:
        pass
    return {n for n, _ in seen if n < 5}


def test_recheck_takes_union_on_disagreement():
    # limits 6 then 12: the wider walk finds nothing new below 5
    Height.limits.clear()
    out, stats, truncated = bounded_walk([ROOT], STEPS, (1, 0), "3", 2, _collect)
    assert (out, truncated) == ({1, 2, 3, 4}, False)
    assert set(Height.limits) == {6, 12} and all(type(x) is int for x in Height.limits)
    assert stats["expanded"] == 12
    # the recheck continues the first walk: it expands only the nodes that
    # walk lacks, 8 (held at level 3), 7, 9, 10, 12 (level 4) and 11
    # (level 5), two children each; a replay from the root expanded 24
    assert stats["recheck_expanded"] == 12
    assert stats["slack"] == "2"
    # limit 3 misses 4, which the walk at limit 6 finds: the union, truncated
    out, stats, truncated = bounded_walk([ROOT], STEPS, (1, 0), 3, 1, _collect)
    assert (out, truncated) == ({1, 2, 3, 4}, True)
    with pytest.raises(PreconditionError, match="slack"):
        bounded_walk([ROOT], STEPS, (1, 0), 3, "1/2", _collect)


def test_bounded_walk_skips_recheck_when_nothing_pruned():
    passes = []

    def run(levels, seen):
        passes.append(_collect(levels, seen))
        return passes[-1]

    # a finite orbit: the one generator fixes the root, so nothing is pruned
    out, stats, truncated = bounded_walk([(0, 1)], [((1, 0), (0, 1))], (1, 0), 10, 1, run)
    assert passes == [{0}] and "recheck_expanded" not in stats
    assert (out, truncated) == ({0}, False)

    # a depth cut marks the result truncated; roots at a depth reach the
    # cap sooner, and known vectors start out seen: 3 is not walked again,
    # so its children 6 and 7 are never reached
    out, stats, truncated = bounded_walk(
        [(1, 1)], STEPS, (1, 0), 100, 1, _collect, max_depth=4, depth=1, known=[(3, 1)]
    )
    assert (out, truncated) == ({1, 2, 3, 4}, True)
    assert stats["depth_cut"] == 2 and stats["expanded"] == 6


def test_involution_is_not_applied_to_a_node_it_made():
    # the walk finds that flip * flip = I itself; shift * shift is not I
    flip, shift = ((-1, 0), (0, 1)), ((1, 1), (0, 1))
    out, stats, _ = bounded_walk(
        [(1, 1)], [flip, shift], (1, 0), 3, 1, _collect, check=False
    )
    assert out == {-3, -2, -1, 0, 1, 2, 3}
    # -1, -2 and -3 are made by the flip and never flipped back to their
    # parents: 11 children where trying every generator makes 14
    assert stats["expanded"] == 11 and stats["pruned"] == 1


def _generator(kind, c):
    """A generator matrix on (n, t, 1) vectors, t = +-1 and the 1 a
    homogeneous coordinate; the height is |n|.

    shift n -> n + c (the identity when c = 0) and double n -> 2n are not
    involutions; reflect n -> c - n and turn t -> -t are.  Every orbit within a height
    bound is finite, so every walk ends.
    """
    return {
        "shift": ((1, 0, c), (0, 1, 0), (0, 0, 1)),
        "double": ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
        "reflect": ((-1, 0, c), (0, 1, 0), (0, 0, 1)),
        "turn": ((1, 0, 0), (0, -1, 0), (0, 0, 1)),
    }[kind]


def _fresh_walk(roots, generators, limit, max_depth):
    """Oracle: one walk from the roots at ``limit`` that tries every generator
    on every node, each a row-by-row matrix product.  Returns each reached
    vector's level, and the counters."""
    def expand(level, seen, _):
        children = [(tuple(sum(map(mul, r, v)) for r in a),) for v, in level for a in generators]
        kept = [c for c in children if abs(c[0][0]) <= limit]
        return _unseen(kept, seen), len(children), len(children) - len(kept)

    level_of, stats = dict.fromkeys(roots, 0), {}
    levels = walk([(v,) for v in roots], expand, set(), stats, max_depth)
    for depth, level in enumerate(levels, 1):
        level_of.update((v, depth) for v, in level)
    return level_of, stats


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["shift", "double", "reflect", "turn"]), st.integers(-4, 8)),
        min_size=2, max_size=4,
    ),
    st.lists(
        st.tuples(st.integers(-6, 12), st.sampled_from([1, -1]), st.just(1)), min_size=1, max_size=3
    ),
    st.integers(0, 20),
    st.sampled_from([1, Fraction(3, 2), 2, 3]),
    st.none() | st.integers(0, 8),
)
def test_bounded_walk_matches_two_fresh_walks(specs, roots, bound, slack, max_depth):
    generators = [_generator(*spec) for spec in specs]

    def below(out):
        return {v for v in out if abs(v[0]) <= bound}

    def run(levels, seen):
        out = set(roots)
        for level in levels:
            out.update(node[0] for node in level)
        return below(out)

    out, _, truncated = bounded_walk(
        roots, generators, (1, 0, 0), bound, slack, run, max_depth
    )
    # the oracle: a fresh walk at the limit and, if it pruned anything, one
    # at twice the limit, whose outputs join the first's on disagreement
    first, stats = _fresh_walk(roots, generators, bound * slack, max_depth)
    want, want_truncated, second = below(first), "depth_cut" in stats, first
    if stats["pruned"]:
        second = _fresh_walk(roots, generators, 2 * bound * slack, max_depth)[0]
        if below(first) != below(second):
            want, want_truncated = want | below(second), True
    if max_depth is None or all(second[v] == d for v, d in first.items()):
        assert (out, truncated) == (want, want_truncated)
    else:
        # the recheck counts levels as the first walk does; where a path
        # through heights beyond the limit reaches one of the first walk's
        # nodes sooner, the depth cap can cut a branch a fresh walk at
        # twice the limit keeps, and never the other way round
        event("a wider path reaches a node sooner")
        assert below(first) <= out <= below(first) | below(second)
        assert want_truncated or not truncated


@settings(max_examples=12, deadline=None)
@given(st.permutations(catalog.FIGURE_SEED_CURVATURES), st.integers(1, 3000))
def test_root_permutations_count_alike(order, bound):
    root = enumerate_packing(catalog.packing_seed("apollonian2"), bound=bound)
    permuted = enumerate_packing(catalog.packing_seed("apollonian2", curvatures=order), bound=bound)
    assert permuted.positive_curvatures() == root.positive_curvatures()


@settings(max_examples=12, deadline=None)
@given(st.permutations(range(3)), st.integers(1, 10**6))
def test_generator_order_leaves_degrees_alike(order, bound):
    model = surfaces.builtin_model("baragar_p2p2")
    permuted = dataclasses.replace(
        model,
        generators=tuple(model.generators[i] for i in order),
        generator_labels=tuple(model.generator_labels[i] for i in order),
        reflection_vectors=None,
        reflection_words=None,
        alpha_gram_expected=None,
    )
    count = surfaces.orbit_count
    assert count(permuted, bound).degrees == count(model, bound).degrees


class Built:
    """The vectors a walk builds, read from the products its counted
    matrix entries take: a build of A v multiplies every entry of A by a
    coordinate of v, row by row, and each row's products sum to one
    coordinate of the child."""

    def __init__(self, size):
        self.size, self.products = size, []

    def vectors(self):
        n = self.size
        rows = [sum(self.products[k:k + n]) for k in range(0, len(self.products), n)]
        return [tuple(rows[k:k + n]) for k in range(0, len(rows), n)]

    def __len__(self):
        return len(self.vectors())

    def __getitem__(self, index):
        return self.vectors()[index]


def _counted(generators):
    """The generators with every entry an int that records each product it
    takes with a vector coordinate (an exact int), and the ``Built`` view
    of those products.  Such entries are bound by name in the compiled
    level, so every build multiplies each of them; a product of two
    entries, as the walk's involution test makes, is not recorded."""
    built = Built(len(generators[0]))

    class Entry(int):
        def __mul__(self, other):
            product = int(self) * other
            if type(other) is int:
                built.products.append(product)
            return product

    return [tuple(tuple(map(Entry, r)) for r in a) for a in generators], built


def _built_by_pass(built):
    """A ``run`` that consumes a pass's levels and records how many vectors
    had been built when the pass began."""
    starts = []

    def run(levels, seen):
        starts.append(len(built))
        for _ in levels:
            pass
        return set(seen)

    return run, starts


def test_pruned_children_are_never_built():
    specs = [("shift", 3), ("double", 0), ("reflect", 5), ("turn", 0)]
    generators, built = _counted([_generator(*spec) for spec in specs])
    run, starts = _built_by_pass(built)
    roots = [(1, 1, 1), (-2, -1, 1)]
    _, stats, _ = bounded_walk(roots, generators, (1, 0, 0), 20, 1, run, check=False)
    assert stats["pruned"] > 0
    # setup builds no vector: each child is priced from its parent
    assert starts == [0]
    # then only the children that pass the prune test are built
    assert len(built) == stats["expanded"] - stats["pruned"]
    assert all(abs(n) <= 20 for n, _, _ in built)


def test_recheck_builds_only_held_and_kept_children():
    steps, built = _counted(STEPS)
    run, starts = _built_by_pass(built)
    # limits 6 then 12, as in test_recheck_takes_union_on_disagreement
    _, stats, _ = bounded_walk([(1, 1)], steps, (1, 0), 3, 2, run)
    assert starts[0] == 0
    walked, rechecked = built[:starts[1]], built[starts[1]:]
    assert len(walked) == stats["expanded"] - stats["pruned"] == 8
    assert all(n <= 6 for n, _ in walked)
    # the recheck rebuilds the held children 8, 7, 12 and 10 and builds the
    # five children it keeps, 9, 10, 8, 11 and 12, of the 12 it generates
    assert stats["recheck_expanded"] == 12
    assert sorted(n for n, _ in rechecked) == [7, 8, 8, 9, 10, 10, 11, 12, 12]


@st.composite
def _fractions(draw, top=None, max_denominator=None):
    """``st.fractions(max_denominator=...)`` or ``st.fractions(0, top)``, drawn
    the same way, a denominator and then a numerator, but without building
    and validating a new strategy for each value."""
    d = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers() if top is None else st.integers(0, top * d)), d)


_ENTRY = (
    st.sampled_from([0, 1, -1])
    | st.integers(-1000, 1000)
    | st.tuples(st.integers(2**64, 2**100), st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])
    | _fractions(max_denominator=12)
)
_NONZERO_ENTRY = _ENTRY.filter(bool)


@st.composite
def _involution(draw, n):
    """A generalized permutation matrix of order 2: swapped pairs of
    coordinates, scaled by r and 1/r, and fixed coordinates times +-1."""
    order = draw(st.permutations(range(n)))
    a = [[0] * n for _ in range(n)]
    k = 0
    while k < n:
        if k + 1 < n and draw(st.booleans()):
            i, j = order[k:k + 2]
            r = draw(_NONZERO_ENTRY)
            a[i][j], a[j][i] = r, exact.tight(1 / Fraction(r))
            k += 2
        else:
            a[order[k]][order[k]] = draw(st.sampled_from([1, -1]))
            k += 1
    return tuple(map(tuple, a))


_COORDINATE = st.integers(-2**70, 2**70) | st.integers(-3, 3) | _fractions()
_BOUND = _fractions(top=100)


# Hypothesis validates each new strategy object on its first draw, so the
# strategies that depend only on the size n and the generator count k are
# built once each, not once per example
@functools.cache
def _sized(n):
    """(generators, row, vector) strategies for n coordinates."""
    matrix = st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    generators = st.lists(matrix | _involution(n), min_size=1, max_size=4)
    row = st.just([0] * n) | st.lists(_ENTRY, min_size=n, max_size=n)
    return generators, row, st.lists(_COORDINATE, min_size=n, max_size=n).map(tuple)


@functools.cache
def _nodes(n, k):
    """(level, held) strategies for n coordinates and k generators."""
    vector = _sized(n)[2]
    index, last = st.integers(0, k - 1), st.integers(-1, k - 1)
    level = st.lists(st.tuples(vector, st.just(0), last))
    return level, st.lists(st.tuples(vector, index, st.integers(0, 50)))


def _reference_level(generators, row, level, seen, held, cut, far):
    """One level of the walk, written plainly: every child built as A v and
    priced from itself."""
    out, near, generated, pruned = [], [], 0, 0
    one = exact.identity(len(row))

    def keep(child, h, i):
        if child not in seen:
            seen.add(child)
            out.append((child, h, i))

    for v, _, last in level:
        for i, a in enumerate(generators):
            if i == last and exact.mat_mul(a, a) == one:
                continue
            generated += 1
            child = exact.mat_vec(a, v)
            h = abs(sum(map(mul, row, child)))
            if h <= cut:
                keep(child, h, i)
            else:
                pruned += 1
                if h <= far:
                    near.append((v, i, h))
    for v, i, h in held:
        keep(exact.mat_vec(generators[i], v), h, i)
    return out, generated, pruned, near


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_compiled_generator_is_the_matrix(n, data):
    generators, row, vector = _sized(n)
    generators, row = data.draw(generators), data.draw(row)
    level, held = _nodes(n, len(generators))
    level, held = data.draw(level), data.draw(held)
    # seen holds some of the children the level can make, and other vectors
    children = [exact.mat_vec(a, v) for v, _, _ in level for a in generators]
    children += [exact.mat_vec(generators[i], v) for v, i, _ in held]
    seen = data.draw(st.sets(vector | st.sampled_from(children) if children else vector))
    heights = [abs(sum(map(mul, row, c))) for c in children] or [0]
    cut, far = (data.draw(st.sampled_from(heights) | _BOUND) for _ in range(2))

    want_seen = set(seen)
    want = _reference_level(generators, row, level, want_seen, held, cut, far)
    expand = walk_module.compile_level(generators, row)
    near = []
    out, generated, pruned = expand(level, seen, held, cut, far, near)
    assert (out, generated, pruned, near) == want
    assert seen == want_seen
    if generated < len(level) * len(generators):
        event("an involution skipped")


class Opaque(int):
    """An int whose text is never to be asked for: each of its text methods
    records the call and raises.  Its absolute value is an Opaque too."""

    calls = []

    def __abs__(self):
        return Opaque(abs(int(self)))

    def __repr__(self):
        Opaque.calls.append("repr")
        raise AssertionError("repr of a matrix entry")

    def __str__(self):
        Opaque.calls.append("str")
        raise AssertionError("str of a matrix entry")

    def __format__(self, spec):
        Opaque.calls.append("format")
        raise AssertionError("format of a matrix entry")


def test_compiled_generator_never_prints_an_entry():
    Opaque.calls.clear()
    a = ((Opaque(3), 1, 0), (0, Opaque(-1), 2), (Opaque(1), 0, 1))
    v = (5, -7, 2**80)
    expand = walk_module.compile_level([a], (1, Opaque(2), 0))
    child, h = exact.mat_vec(a, v), abs(8 + 2 * (7 + 2**81))
    assert child == (8, 7 + 2**81, 5 + 2**80)
    assert expand([(v, 0, -1)], set(), (), h, h, []) == ([(child, h, 0)], 1, 0)
    # priced beyond the cut, the child is held; built from the held triple,
    # it is the same child
    near = []
    assert expand([(v, 0, -1)], set(), (), h - 1, h, near) == ([], 1, 1)
    assert near == [(v, 0, h)]
    assert expand([], set(), near, 0, 0, []) == ([(child, h, 0)], 0, 0)
    assert Opaque.calls == []


def _work(stats):
    return tuple(stats[k] for k in ("expanded", "pruned", "max_frontier", "recheck_expanded"))


def test_work_counters_are_pinned():
    # recorded when every generated child was built before its prune test;
    # pricing children from their parents must walk exactly the same nodes
    count = surfaces.orbit_count(surfaces.builtin_model("baragar_222"), 1000)
    assert (len(count.degrees), _work(count.stats)) == (367, (6487, 3612, 353, 9528))
    packing = enumerate_packing(catalog.packing_seed("apollonian2"), bound=3000)
    assert (len(packing.spheres), _work(packing.stats)) == (691, (2077, 1378, 192, 3036))
    # at the benchmark's size, and on the box path, whose height row has
    # large integers and is not the curvature
    count = surfaces.orbit_count(surfaces.builtin_model("baragar_p2p2"), 10**7)
    assert (len(count.degrees), _work(count.stats)) == (4540, (22339, 11169, 672, 12664))
    box = enumerate_packing(catalog.band_seed(), bound=300, box=((-3, -1), (3, 3)))
    assert (len(box.spheres), _work(box.stats)) == (1521, (59023, 39342, 4190, 86754))
    # at the benchmark's own sizes
    count = surfaces.orbit_count(surfaces.builtin_model("baragar_222"), 10**4)
    assert (len(count.degrees), _work(count.stats)) == (7149, (129031, 71678, 5019, 187290))
    packing = enumerate_packing(catalog.packing_seed("apollonian2"), bound=30000)
    assert (len(packing.spheres), _work(packing.stats)) == (13917, (41755, 27830, 3275, 61653))
