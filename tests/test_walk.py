from packlab.walk import recheck, walk


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


def _below(outputs):
    return {x for x in outputs if x < 5}


def test_recheck_takes_union_on_disagreement():
    runs = {2: ({1, 2, 9}, {"expanded": 5})}
    stats = {}
    assert recheck(runs.get, {1, 2, 7}, stats, _below) == ({1, 2, 7}, False)
    assert stats["recheck_expanded"] == 5
    assert recheck(runs.get, {1}, stats, _below) == ({1, 2, 9}, True)
