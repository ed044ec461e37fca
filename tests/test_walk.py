import pytest

from packlab.errors import PreconditionError
from packlab.walk import bounded_walk, walk


def _expand(level):
    # children n + 1 and 2n of every node; those above 6 are pruned
    children = [c for n in level for c in (n + 1, 2 * n)]
    kept = [c for c in children if c <= 6]
    return kept, len(children) - len(kept)


def test_walk_levels_dedup_and_counters():
    stats = {}
    levels = list(walk([1], _expand, key=lambda n: n, stats=stats))
    assert levels == [[2], [3, 4], [6, 5], []]
    assert stats == {"expanded": 12, "pruned": 4, "max_frontier": 2}
    # without a key every kept child is a node of the next level
    assert next(walk([1], _expand)) == [2, 2]


def test_walk_depth_cap_is_the_level_index():
    stats = {}
    levels = list(walk([1], _expand, key=lambda n: n, stats=stats, max_depth=2))
    # level 2 ([3, 4]) is cut, not expanded: its nodes count as pruned
    assert levels == [[2], [3, 4], []]
    assert stats == {"expanded": 4, "pruned": 2, "max_frontier": 2, "depth_cut": 2}
    # roots that start deeper reach the cap sooner
    assert list(walk([1], _expand, key=lambda n: n, max_depth=2, depth=1)) == [[2], []]


def _below(outputs):
    return {x for x in outputs if x < 5}


def _limited(level, limit, factor):
    children = [c for n in level for c in (n + 1, 2 * n)]
    kept = [c for c in children if c <= limit]
    return kept, len(children) - len(kept)


def test_recheck_takes_union_on_disagreement():
    limits = []

    def run(walk_pass, limit):
        limits.append(limit)
        out = {1}
        for level in walk_pass([1], _limited, key=lambda n: n):
            out.update(level)
        return out

    # limits 6 then 12: the wider walk finds nothing new below 5
    out, stats, truncated = bounded_walk(run, 3, 2, _below)
    assert (out, truncated) == ({1, 2, 3, 4, 5, 6}, False)
    assert limits == [6, 12] and all(type(x) is int for x in limits)
    assert stats["recheck_expanded"] > stats["expanded"] == 12
    assert stats["slack"] == "2"
    # limit 3 misses 4, which the walk at limit 6 finds: the union, truncated
    out, stats, truncated = bounded_walk(run, 3, 1, _below)
    assert (out, truncated) == ({1, 2, 3, 4, 5, 6}, True)
    with pytest.raises(PreconditionError, match="slack"):
        bounded_walk(run, 3, "1/2", _below)


def test_bounded_walk_skips_recheck_when_nothing_pruned():
    passes = []

    def run(walk_pass, limit):
        passes.append(limit)
        # a finite orbit: nothing is ever over the limit
        for _ in walk_pass([0], lambda level, limit, factor: ([], 0)):
            pass
        return {0}

    out, stats, truncated = bounded_walk(run, 10, 1, _below)
    assert passes == [10] and "recheck_expanded" not in stats
    assert (out, truncated) == ({0}, False)

    # without a bound nothing is pruned, the slack is not read and a depth
    # cut marks the result truncated
    def deep(walk_pass, limit):
        assert limit is None
        return set().union(*walk_pass([1], lambda level, limit, f: ([n + 1 for n in level], 0)))

    out, stats, truncated = bounded_walk(deep, None, "1/2", _below, max_depth=3)
    assert (out, truncated) == ({2, 3, 4}, True)
    assert stats["depth_cut"] == 1 and stats["slack"] is None
