"""The exact Gram-Schmidt realization of seeds given only curvatures."""

import itertools
import math
from fractions import Fraction as F
from operator import mul

import packlab as pl
from packlab import catalog
from packlab.orbit import _square_free, initial_cluster, seed_cluster_from_curvatures, with_curvatures


def test_catalog_seed_is_the_figure_geometry():
    # the apollonian2 catalog seed is the Gram-Schmidt realization of its
    # curvatures, and that is the shipped figure exactly: the same integer
    # rows over the same denominator
    p = pl.polytope("apollonian2")
    given = seed_cluster_from_curvatures(
        p, catalog.FIGURE_SEED_CURVATURES, realization=catalog.FIGURE_SEED_GEOMETRY
    )
    assert pl.packing_seed("apollonian2") == given
    assert given.realization[1] == 200


def test_gram_schmidt_matches_given_geometry_up_to_isometry():
    # the Gram-Schmidt realization of the figure seed's curvatures matches
    # its given rational geometry up to an isometry: same curvatures, same
    # squared centre distances
    seed = seed_cluster_from_curvatures(
        pl.polytope("apollonian2"),
        catalog.FIGURE_SEED_CURVATURES,
        realization=catalog.FIGURE_SEED_GEOMETRY,
    )
    built = with_curvatures(initial_cluster(seed.system.polytope), seed.curvature_seed)
    assert built.squares == ()
    orb = pl.enumerate_packing(seed, bound=3000)
    given = orb.euclidean_spheres()
    spheres = list(map(built.euclidean_sphere, orb.spheres))
    assert len(spheres) == 691
    assert [s.curvature for s in spheres] == [s.curvature for s in given]
    for i, j in itertools.combinations(range(0, len(spheres), 11), 2):
        want = sum((x - y) ** 2 for x, y in zip(given[i].center, given[j].center))
        got = sum((x - y) ** 2 for x, y in zip(spheres[i].center, spheres[j].center))
        assert got == want


def test_irrational_realizations_are_exact():
    # boyd and apollonian3 carry sqrt(3) on one axis; their realizations are
    # checked in integers, and every pair of spheres with Gram pairing -1
    # touches exactly: sum s_i (q_a,i - q_b,i)^2 = (1/k_a + 1/k_b)^2
    for name, bound, squares in (("boyd", 50, (1, 3)), ("apollonian3", 10, (1, 1, 3))):
        seed = pl.packing_seed(name)
        assert seed.squares == squares
        # the rows realize the normalized Gram: X^T J X = W, over d^2
        (k, *mid, last), d = seed.realization
        for a, row in enumerate(seed.system.normalized_gram):
            for b, want in enumerate(row):
                got = k[a] * last[b] + last[a] * k[b] + sum(
                    s * r[a] * r[b] for s, r in zip(squares, mid)
                )
                assert got == want * d * d
        orb = pl.enumerate_packing(seed, bound=bound)
        spheres = orb.euclidean_spheres()
        assert all(s.kind == "sphere" and s.squares == squares for s in spheres)
        rows, e = seed.system.scaled_gram
        paired = [tuple(sum(map(mul, r, c)) for r in rows) for c in orb.spheres]
        touching = 0
        for (c, _, a), (_, p, b) in itertools.combinations(zip(orb.spheres, paired, spheres), 2):
            if sum(map(mul, c, p)) == -e:
                touching += 1
                gap = sum(s * (x - y) ** 2 for s, x, y in zip(squares, a.center, b.center))
                assert gap == (1 / a.curvature + 1 / b.curvature) ** 2
        assert touching >= len(spheres)
        assert isinstance(spheres[-1].center[0], F)


def test_square_free_parts():
    # n = m^2 s with s square-free, which makes (m, s) unique
    for n in range(1, 3000):
        m, s = _square_free(n)
        assert m * m * s == n
        assert all(s % (p * p) for p in range(2, math.isqrt(s) + 1))
    # primes above the cube root of what trial division leaves: q^2 or q r
    big = [(2 * 17**2, (17, 2)), (101**2 * 8, (202, 2)), (999983 * 1000003, (1, 999983 * 1000003)),
           (1000003**2 * 3, (1000003, 3))]
    assert [_square_free(n) for n, _ in big] == [want for _, want in big]
