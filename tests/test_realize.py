"""Float sphere coordinates (packlab.realize) against exact geometry."""

import itertools
import math
from operator import mul

import packlab as pl
from packlab.realize import approximate_spheres, gram_schmidt_rows


def test_float_geometry_matches_exact_geometry():
    # the apollonian2 catalog seed has exact geometry; the float realization
    # is another one, equal up to an isometry: same radii, same distances
    seed = pl.packing_seed("apollonian2")
    orb = pl.enumerate_packing(seed, bound=3000)
    floats, spheres = approximate_spheres(seed, orb.spheres), orb.euclidean_spheres()
    assert len(floats) == 691
    for rec, s in zip(floats, spheres):
        assert math.isclose(rec["radius"], 1 / abs(s.curvature), rel_tol=1e-12)
    for i, j in itertools.combinations(range(0, len(floats), 11), 2):
        want = math.sqrt(sum((x - y) ** 2 for x, y in zip(spheres[i].center, spheres[j].center)))
        got = math.dist(floats[i]["center"], floats[j]["center"])
        assert math.isclose(got, want, rel_tol=1e-12)
    # no exact geometry here: every pair of spheres with inner product -1
    # must touch, at centre distance |1/k + 1/k'|
    for name, bound in (("boyd", 50), ("apollonian3", 10)):
        seed = pl.packing_seed(name)
        # the float rows realize the normalized Gram: X^T J X = W
        rows, norms = gram_schmidt_rows(seed)
        x = [rows[0], *([v / math.sqrt(d) for v in r] for r, d in zip(rows[1:], norms)), rows[-1]]
        for a, row in enumerate(seed.system.normalized_gram):
            for b, want in enumerate(row):
                got = x[0][a] * x[-1][b] + x[-1][a] * x[0][b] + sum(y[a] * y[b] for y in x[1:-1])
                assert math.isclose(got, want, abs_tol=1e-12)
        orb = pl.enumerate_packing(seed, bound=bound)
        floats = approximate_spheres(seed, orb.spheres)
        rows, d = seed.system.scaled_gram
        paired = [tuple(sum(map(mul, r, c)) for r in rows) for c in orb.spheres]
        touching = 0
        for (c, _, a), (_, p, b) in itertools.combinations(zip(orb.spheres, paired, floats), 2):
            if sum(map(mul, c, p)) == -d:
                touching += 1
                gap = math.dist(a["center"], b["center"])
                assert math.isclose(gap, abs(1 / a["curvature"] + 1 / b["curvature"]), rel_tol=1e-9)
        assert touching >= len(floats)
