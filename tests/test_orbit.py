import random
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packlab as pl
from packlab import catalog, exact
from packlab.errors import CheckpointError, NormalizationError, PackingError, PreconditionError
from packlab.inversive import EuclideanSphere, SphereVector, sphere_from_vector
from packlab.orbit import (
    CERTIFY_PAIRS,
    Cluster,
    OrbitSystem,
    _pairing,
    apply_generator,
    certify_integral,
    enumerate_packing,
    initial_cluster,
    iter_clusters,
    seed_cluster_from_curvatures,
    with_curvatures,
)


def test_initial_cluster_apollonian():
    p = pl.polytope("apollonian2")
    c = initial_cluster(p)
    assert c.gram() == p.cluster_gram
    for i in range(4):
        for j in range(i + 1, 4):
            assert c.gram()[i][j] == -1  # mutually tangent circles


def test_initial_cluster_boyd_pattern():
    p = pl.polytope("boyd")
    c = initial_cluster(p)
    g = c.gram()
    assert g == p.cluster_gram
    assert g[0][2] == -2 and g[1][3] == -2  # one divergent pair per sphere


def test_initial_cluster_needs_real_weights():
    p = pl.polytope("ideal-triangle")
    with pytest.raises(PackingError):
        initial_cluster(p, mode="weights")
    # but its own walls do form a (degenerate 0-sphere) packing
    c = initial_cluster(p, mode="mirrors")
    assert c.gram() == p.gram


def test_swap_example():
    seed = pl.packing_seed("apollonian2")
    child = apply_generator(seed, 0)
    assert child.curvatures == (146, 18, 23, 27)
    assert apply_generator(child, 0).curvatures == seed.curvatures
    assert apply_generator(child, 0).cols == seed.cols


def test_soddy_rejection():
    p = pl.polytope("apollonian2")
    with pytest.raises(PackingError, match="residual"):
        seed_cluster_from_curvatures(p, (1, 1, 1, 1))  # 2*4 - 16 = -8 != 0
    # the band quadruple passes
    seed_cluster_from_curvatures(p, (0, 0, 1, 1))


def test_realization_mismatch_names_pair():
    p = pl.polytope("apollonian2")
    bad = list(catalog.FIGURE_SEED_GEOMETRY)
    bad[3] = EuclideanSphere(kind="sphere", curvature=27, center=(5, 5))
    with pytest.raises(PackingError, match=r"pair \("):
        seed_cluster_from_curvatures(p, (-10, 18, 23, 27), realization=bad)


def test_cluster_invariants_sampled():
    for name in ("apollonian2", "apollonian3", "boyd"):
        seed = pl.packing_seed(name)
        w = seed.system.polytope.cluster_gram
        for c in iter_clusters(seed, max_count=300):
            assert c.soddy_residual() == 0
            assert c.gram() == w


def test_iter_clusters_max_depth():
    # the gasket group is four involutions with no further relations, so
    # depth d holds 4 * 3^(d-1) reduced words, all distinct clusters
    seed = pl.packing_seed("apollonian2")
    for d in range(6):
        clusters = list(iter_clusters(seed, max_depth=d))
        assert len(clusters) == 2 * 3**d - 1
        assert len({c.cols for c in clusters}) == len(clusters)
        assert clusters[0] is seed


def test_iter_clusters_refuses_negative_caps():
    seed = pl.packing_seed("apollonian2")
    for name in ("max_depth", "max_count"):
        with pytest.raises(PreconditionError, match=f"{name} must be >= 0, got -1"):
            iter_clusters(seed, **{name: -1})


def _reference_clusters(seed, depth):
    # plain breadth-first walk by apply_generator: every wall but the one
    # that made the node, each cluster kept once, in the order first made
    out, seen, level = [seed], {seed.cols}, [(seed, -1)]
    for _ in range(depth):
        children = [
            (apply_generator(c, i), i) for c, last in level for i in range(c.rank) if i != last
        ]
        level = [(c, i) for c, i in children if c.cols not in seen and not seen.add(c.cols)]
        out += [c for c, _ in level]
    return out


@pytest.mark.parametrize("name", ["apollonian2", "apollonian3", "boyd", "ideal-triangle", "band"])
def test_iter_clusters_matches_apply_generator_walk(name):
    seed = catalog.band_seed() if name == "band" else pl.packing_seed(name)
    want = _reference_clusters(seed, 5)
    got = list(iter_clusters(seed, max_depth=5))
    assert got == want
    # the same entries, int or Fraction alike, in the same order
    assert [[type(x) for col in c.cols for x in col] for c in got] == [
        [type(x) for col in c.cols for x in col] for c in want
    ]
    assert list(iter_clusters(seed, max_count=50)) == want[:50]


def test_mirror_orbit_invariant():
    seed = pl.packing_seed("ideal-triangle")
    for c in iter_clusters(seed, max_count=300):
        k1, k2, k3 = c.curvatures
        assert k1 * k2 + k1 * k3 + k2 * k3 == 0
        assert c.gram() == seed.system.polytope.gram


def test_bounded_counts(apollonian_seed):
    orb = enumerate_packing(apollonian_seed, bound=50)
    assert orb.count(30) == 3
    assert orb.count(35) == 4
    assert orb.count(50) == 5
    assert not orb.truncated
    # bounding circle is kept as a seed member
    assert min(orb.curvatures) == -10


def test_bounded_matches_exhaustive_small(apollonian_seed):
    bounded = enumerate_packing(apollonian_seed, bound=300)
    exhaustive = enumerate_packing(
        apollonian_seed, bound=300, mode="depth_limited", max_depth=8
    )
    assert set(bounded.spheres) == set(exhaustive.spheres)


@pytest.fixture(scope="module")
def depth8_oracle():
    seed = pl.packing_seed("apollonian2")
    return enumerate_packing(seed, bound=300, mode="depth_limited", max_depth=8)


@settings(max_examples=50, deadline=None)
@given(bound=st.integers(1, 300))
def test_bounded_equals_word_oracle(depth8_oracle, bound):
    # below 300 every gasket circle has a reduced word of length <= 8
    seed = depth8_oracle.seed
    want = {c for c in depth8_oracle.spheres if 0 < seed.curvature_of(c) <= bound}
    want |= {seed.cols[j] for j in seed.system.sphere_slots}
    assert set(enumerate_packing(seed, bound=bound).spheres) == want


def test_bounded_max_depth_is_word_length():
    # a sphere's walk level is the depth at which the reduced-word walk
    # creates it, so a depth cap cuts both walks at the same spheres
    for name, bound, size in (("apollonian2", 30000, 488), ("apollonian3", 60, 828)):
        seed = pl.packing_seed(name)
        bounded = enumerate_packing(seed, bound=bound, max_depth=5)
        words = enumerate_packing(seed, bound=bound, mode="depth_limited", max_depth=5)
        assert (len(bounded.spheres), bounded.truncated) == (size, True)
        assert bounded.spheres == words.spheres


@pytest.mark.parametrize(
    "name, depth, size",
    [("apollonian2", 6, 1460), ("apollonian3", 4, 300), ("boyd", 5, 200),
     ("ideal-triangle", 6, 570), ("band", 5, 488)],
)
def test_depth_limited_equals_cluster_columns(name, depth, size):
    # independent oracle: the sphere-slot columns of every cluster of a
    # reduced word of length <= depth, from the right-acting cluster walk
    seed = catalog.band_seed() if name == "band" else pl.packing_seed(name)
    slots = seed.system.sphere_slots
    want = {c.cols[j] for c in iter_clusters(seed, max_depth=depth) for j in slots}
    orb = enumerate_packing(seed, mode="depth_limited", max_depth=depth)
    assert len(want) == size
    assert set(orb.spheres) == want


def test_orbit_curvatures_are_computed_once(apollonian_seed):
    orb = enumerate_packing(apollonian_seed, bound=300)
    assert orb.curvatures is orb.curvatures
    assert (orb.count(), len(orb.positive_curvatures())) == (33, 33)


def test_packing_property_sampled(apollonian_seed):
    orb = enumerate_packing(apollonian_seed, bound=500)
    vs = orb.sphere_vectors()
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.choice(vs), rng.choice(vs)
        if a.coords == b.coords:
            continue
        assert a.pair(b) <= -1  # disjoint or tangent: it is a packing


def test_no_duplicate_coordinates(apollonian_seed):
    orb = enumerate_packing(apollonian_seed, bound=1000)
    assert len(set(orb.spheres)) == len(orb.spheres)
    vecs = orb.sphere_vectors()
    assert len({v.coords for v in vecs}) == len(vecs)


def test_thread_determinism(apollonian_seed):
    runs = [
        enumerate_packing(apollonian_seed, bound=800, threads=t).spheres
        for t in (1, 2, 8)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_boyd_enumeration_bounded():
    seed = pl.packing_seed("boyd")
    orb = enumerate_packing(seed, bound=60)
    assert not orb.truncated
    assert orb.count() > 4
    ks = orb.positive_curvatures()
    assert all(k.denominator == 1 for k in ks)  # integral packing


@pytest.mark.parametrize("bound", [60, 300])
def test_boyd_default_slack_is_complete(bound):
    # the wall check passes, so the slack-1 default misses nothing
    seed = pl.packing_seed("boyd")
    orb = enumerate_packing(seed, bound=bound)
    assert orb.stats["slack"] == "1" and not orb.truncated
    assert orb.spheres == enumerate_packing(seed, bound=bound, slack=4).spheres


def test_unbounded_needs_box():
    band = catalog.band_seed()
    with pytest.raises(PackingError, match="box"):
        enumerate_packing(band, bound=20)
    orb = enumerate_packing(band, bound=20, box=((-3, -1), (3, 3)))
    ks = orb.positive_curvatures()
    assert ks and min(ks) == 1
    assert "box" in orb.stats


def test_box_counts_are_exact():
    band = catalog.band_seed()
    for bound, stored, counted in ((60, 189, 187), (20, 45, 43)):
        orb = enumerate_packing(band, bound=bound, box=((-3, -1), (3, 3)))
        assert (len(orb.spheres), orb.count()) == (stored, counted)
    # two k = 49 circles sit exactly on the right edge x = 10/7; the seed
    # circle centred at (2, 1) lies beyond it and is not kept, the lines are
    orb = enumerate_packing(band, bound=60, box=((-3, -1), (F(10, 7), 3)))
    circles = [s for s in orb.euclidean_spheres() if s.kind == "sphere"]
    assert sorted(s.center for s in circles if s.center[0] == F(10, 7)) == [
        (F(10, 7), F(1, 49)),
        (F(10, 7), F(97, 49)),
    ]
    assert all(s.center[0] <= F(10, 7) for s in circles)
    assert sum(s.kind == "hyperplane" for s in orb.euclidean_spheres()) == 2
    assert orb.count() == 142


def test_far_box_counts_like_its_translate():
    # the band has period 2 along x, so a box twenty units out holds the
    # circles of its translate at the origin
    band = catalog.band_seed()
    near = enumerate_packing(band, bound=12, box=((0, 0), (2, 2)))
    far = enumerate_packing(band, bound=12, box=((20, 0), (22, 2)))
    assert near.count() == far.count() == 10
    assert near.positive_curvatures() == far.positive_curvatures()
    assert not far.truncated


def _vector_path_sphere(seed, col):
    # the Fraction path that the integer map replaced: inversive coordinates
    # rows . col / d as a SphereVector, then center a_i / a_0
    rows, d = seed.realization
    a = SphereVector(tuple(F(exact.dot(row, col), d) for row in rows)).coords
    if a[0] == 0:
        return EuclideanSphere(kind="hyperplane", normal=a[1:-1], offset=a[-1])
    return EuclideanSphere(kind="sphere", curvature=a[0], center=[x / a[0] for x in a[1:-1]])


@pytest.mark.parametrize(
    "name, kwargs",
    [("apollonian2", dict(bound=2000)), ("band", dict(bound=60, box=((-3, -1), (3, 3))))],
)
def test_euclidean_spheres_match_vector_path(name, kwargs):
    seed = catalog.band_seed() if name == "band" else pl.packing_seed(name)
    orb = enumerate_packing(seed, **kwargs)
    spheres = orb.euclidean_spheres()
    want = [_vector_path_sphere(seed, c) for c in orb.spheres]
    assert spheres == want
    assert spheres == [sphere_from_vector(v) for v in orb.sphere_vectors()]
    assert seed.euclidean_spheres() == [
        _vector_path_sphere(seed, seed.cols[j]) for j in seed.system.sphere_slots
    ]
    assert sum(s.kind == "hyperplane" for s in spheres) == (2 if "box" in kwargs else 0)


def test_box_filter_matches_vector_path():
    # a box inside a larger one keeps exactly the larger run's spheres whose
    # center, by the Fraction path, lies in it (seeds of curvature <= 0 always)
    band = catalog.band_seed()
    small = ((-3, -1), (F(10, 7), 3))
    big = enumerate_packing(band, bound=60, box=((-3, -1), (3, 3)))
    orb = enumerate_packing(band, bound=60, box=small)

    def kept(col):
        s = _vector_path_sphere(band, col)
        return s.kind == "hyperplane" or s.curvature <= 0 or all(
            a <= x <= b for x, a, b in zip(s.center, *small)
        )

    assert orb.spheres == tuple(filter(kept, big.spheres))
    assert (len(big.spheres), len(orb.spheres), orb.count()) == (189, 144, 142)


def test_altered_realization_fails_norm_check():
    seed = pl.packing_seed("apollonian2")
    orb = enumerate_packing(seed, bound=100)
    rows, d = seed.realization
    bad = replace(seed, realization=(rows, d + 1))
    with pytest.raises(NormalizationError):
        bad.euclidean_spheres()
    with pytest.raises(NormalizationError):
        replace(orb, seed=bad).euclidean_spheres()


def test_euclidean_spheres_built_once():
    seed = pl.packing_seed("apollonian2")
    orb = enumerate_packing(seed, bound=300)
    first, second = orb.euclidean_spheres(), orb.euclidean_spheres()
    assert first == second and first is not second
    assert first == [seed.euclidean_sphere(c) for c in orb.spheres]
    first.clear()
    assert orb.euclidean_spheres() == second
    # the kept spheres are the same objects on every call
    assert all(a is b for a, b in zip(second, orb.euclidean_spheres()))


def test_box_needs_n_coordinates_per_corner():
    band = catalog.band_seed()  # circles: centers have 2 coordinates
    for box in (((-3,), (3, 3)), ((-3, -1, 0), (3, 3, 0)), ((-3, -1), (3, 3, 0))):
        with pytest.raises(PreconditionError, match="2 coordinates per corner"):
            enumerate_packing(band, bound=20, box=box)


def test_depth_limited_needs_max_depth(apollonian_seed):
    with pytest.raises(PreconditionError, match="max_depth"):
        enumerate_packing(apollonian_seed, bound=100, mode="depth_limited")


def test_checkpoint_resume(tmp_path, apollonian_seed):
    with pytest.raises(CheckpointError) as exc:
        enumerate_packing(
            apollonian_seed,
            bound=2000,
            max_vectors=40,
            checkpoint_dir=str(tmp_path),
            convergence_check=False,
        )
    resumed = pl.resume_enumeration(
        apollonian_seed, exc.value.path, bound=2000, convergence_check=False
    )
    direct = enumerate_packing(apollonian_seed, bound=2000, convergence_check=False)
    assert resumed.spheres == direct.spheres
    # the resumed walk does not expand the checkpoint's spheres again
    assert resumed.stats["expanded"] < direct.stats["expanded"]


def test_v1_checkpoint_refused(tmp_path, apollonian_seed):
    # v1 files hold cluster frontiers, which the sphere walk cannot resume
    path = tmp_path / "old.txt"
    path.write_text('PACKLAB-CHECKPOINT v1\n{"mode": "weights", "rank": 4}\nS 0\nF 0\n')
    with pytest.raises(PreconditionError, match="v2"):
        pl.resume_enumeration(apollonian_seed, str(path), bound=2000)


def test_checkpoint_format(tmp_path, apollonian_seed):
    with pytest.raises(CheckpointError) as exc:
        enumerate_packing(
            apollonian_seed,
            bound=2000,
            max_vectors=40,
            checkpoint_dir=str(tmp_path),
            convergence_check=False,
        )
    meta, spheres, frontier = pl.load_checkpoint(exc.value.path)
    assert meta == {
        "mode": "weights",
        "rank": 4,
        "seed": ["-10", "18", "23", "27"],
        "bound": "2000",
        "slack": "1",
        "box": None,
    }
    assert len(spheres) > 40
    assert frontier
    with open(exc.value.path) as fh:
        assert fh.readline().startswith("PACKLAB-CHECKPOINT")
    # a file cut short is refused, not read as short columns
    with open(exc.value.path) as fh:
        cut = fh.read().splitlines()[:10]
    (tmp_path / "cut.txt").write_text("\n".join(cut) + "\n")
    with pytest.raises(PreconditionError, match="truncated"):
        pl.load_checkpoint(str(tmp_path / "cut.txt"))


def test_checkpoint_refuses_another_seed(tmp_path, apollonian_seed):
    with pytest.raises(CheckpointError) as exc:
        enumerate_packing(apollonian_seed, bound=2000, max_vectors=40, checkpoint_dir=str(tmp_path))
    # boyd has the same mode and rank, but not the frontier's seed
    with pytest.raises(PreconditionError, match="seed"):
        pl.resume_enumeration(pl.packing_seed("boyd"), exc.value.path, bound=2000)


def test_checkpoint_refuses_another_box_and_bound(tmp_path):
    band = catalog.band_seed()
    with pytest.raises(CheckpointError) as exc:
        enumerate_packing(
            band, bound=60, box=((-3, -1), (3, 3)), max_vectors=1000, checkpoint_dir=str(tmp_path)
        )
    with pytest.raises(PreconditionError, match="bound.*box"):
        pl.resume_enumeration(band, exc.value.path, bound=12, box=((20, 0), (22, 2)))
    # a file without the metadata, or without its S line, is refused too
    with open(exc.value.path) as fh:
        lines = fh.read().splitlines()
    bare = tmp_path / "bare.txt"
    bare.write_text("\n".join([lines[0], '{"mode": "weights", "rank": 4}'] + lines[2:]) + "\n")
    with pytest.raises(PreconditionError, match="seed"):
        pl.resume_enumeration(band, str(bare), bound=60, box=((-3, -1), (3, 3)))
    (tmp_path / "short.txt").write_text("\n".join(lines[:2]) + "\n")
    with pytest.raises(PreconditionError, match="truncated"):
        pl.load_checkpoint(str(tmp_path / "short.txt"))
    for meta in ("not json", "[4]"):
        (tmp_path / "meta.txt").write_text("\n".join([lines[0], meta] + lines[2:]) + "\n")
        with pytest.raises(PreconditionError, match="metadata"):
            pl.load_checkpoint(str(tmp_path / "meta.txt"))


@pytest.mark.parametrize(
    "name, curvatures",
    [
        ("apollonian2", (146, 18, 23, 27)),
        ("apollonian3", (11, 2, 2, 3, 3)),
        ("boyd", (11, 2, 4, 3)),
    ],
)
def test_non_root_seed_refused(name, curvatures):
    # one swap from the root: slot 0 has a lowering generator, so the
    # slack-1 walk would undercount (3 circles against 9 at T=100)
    seed = pl.packing_seed(name, curvatures=curvatures)
    with pytest.raises(PreconditionError, match="slot 0"):
        enumerate_packing(seed, bound=100)


def test_certify_integral(apollonian_seed):
    orb = enumerate_packing(apollonian_seed, bound=500)
    integral, exponent, witness = certify_integral(orb)
    assert integral and exponent == 1 and witness is None


def test_certify_non_integral():
    p = pl.polytope("apollonian2")
    # scaled band quadruple: curvature 1/2 circles
    seed = seed_cluster_from_curvatures(p, (0, 0, F(1, 2), F(1, 2)))
    orb = enumerate_packing(seed, bound=10, mode="depth_limited", max_depth=3)
    integral, exponent, witness = certify_integral(orb)
    assert not integral
    assert witness is not None and witness.denominator == 2


def test_mirror_certify_integral():
    # wall orbit of the ideal triangle: inner products are integers
    seed = pl.packing_seed("ideal-triangle")
    orb = enumerate_packing(seed, bound=40, mode="depth_limited", max_depth=7)
    integral, exponent, witness = certify_integral(orb)
    assert integral and exponent == 1


def _checked_pairs(orb, monkeypatch):
    # the (a, b) sphere index pairs certify_integral checks, in order: it
    # pairs cols[a] with cols[b] through one _pairing call per pair
    index = {col: i for i, col in enumerate(orb.spheres)}
    read = []

    def pairing(x, y, rows, d):
        read.append((index[x], index[y]))
        return _pairing(x, y, rows, d)

    monkeypatch.setattr("packlab.orbit._pairing", pairing)
    assert certify_integral(orb) == (True, 1, None)
    return read


def test_certify_integral_checks_at_most_certify_pairs(apollonian_seed, monkeypatch):
    # every step-th pair (a, b), b >= a, with step rounded up
    def want(n, cap):
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        return pairs[:: -(-len(pairs) // cap)]

    orb = enumerate_packing(apollonian_seed, bound=3000)  # 691 spheres, 239086 pairs
    checked = _checked_pairs(orb, monkeypatch)
    assert len(checked) <= CERTIFY_PAIRS
    assert checked == want(691, CERTIFY_PAIRS)
    small = enumerate_packing(apollonian_seed, bound=100)  # 10 spheres, 55 pairs
    for cap in (1, 2, 7, 10, 27, 54, 55, 1000):
        monkeypatch.setattr("packlab.orbit.CERTIFY_PAIRS", cap)
        checked = _checked_pairs(small, monkeypatch)
        assert 0 < len(checked) <= cap
        assert checked == want(10, cap)


def test_mirror_bounded_detects_cusps():
    # the 0-sphere packing contains curvature-zero members deep in the
    # orbit, so curvature-bounded counting is refused
    seed = pl.packing_seed("ideal-triangle")
    with pytest.raises(PackingError, match="curvature-zero"):
        enumerate_packing(seed, bound=40)


def test_non_packing_polytope_refused():
    g6 = [[1 if i == j else -2 for j in range(6)] for i in range(6)]
    p = pl.build_polytope(g6)
    c = with_curvatures(initial_cluster(p, mode="mirrors"), _null_vector(p))
    with pytest.raises(PackingError, match="level"):
        enumerate_packing(c, bound=10)


def _null_vector(p):
    # a curvature vector satisfying the wall Soddy identity k^T Ginv k = 0:
    # for the all -2 Gram this reads 9 sum k^2 = 2 (sum k)^2
    k = exact.vec((2, 1, 1, 1, 1, 0))
    w = exact.inverse(p.gram)
    assert exact.dot(k, exact.mat_vec(w, k)) == 0
    return k


def test_checkpoint_env_dir(tmp_path, monkeypatch, apollonian_seed):
    monkeypatch.setenv("PACKLAB_CHECKPOINT_DIR", str(tmp_path))
    with pytest.raises(CheckpointError) as exc:
        enumerate_packing(
            apollonian_seed, bound=2000, max_vectors=40, convergence_check=False
        )
    assert exc.value.path.startswith(str(tmp_path))


def test_apollonian3_bounded_contains_exhaustive():
    # the rank-5 cluster group has order-3 relations, so a stabilized full
    # word enumeration is too large to be a routine oracle; check instead
    # that bounded mode dominates a depth-8 exhaustive run and that wider
    # slack finds nothing new (on top of the built-in doubled-slack check)
    seed = pl.packing_seed("apollonian3")
    bounded = enumerate_packing(seed, bound=60)
    assert not bounded.truncated
    exhaustive = enumerate_packing(seed, bound=60, mode="depth_limited", max_depth=8)
    assert set(exhaustive.spheres) <= set(bounded.spheres)
    wide = enumerate_packing(seed, bound=60, slack=4, convergence_check=False)
    assert set(wide.spheres) == set(bounded.spheres)
    assert bounded.count() >= 4


def test_boyd_packing_property_sampled():
    # strict packing: any two distinct spheres are tangent or disjoint,
    # checked through the exact normalized basis Gram (no realization)
    seed = pl.packing_seed("boyd")
    orb = enumerate_packing(seed, bound=80)
    base = seed.system.normalized_gram
    cols = orb.spheres
    rng = random.Random(3)
    for _ in range(400):
        x, y = rng.choice(cols), rng.choice(cols)
        if x == y:
            continue
        prod = exact.dot(exact.vec(x), exact.mat_vec(base, exact.vec(y)))
        assert prod <= -1


def test_failed_checkpoint_write_leaves_no_file(tmp_path, monkeypatch, apollonian_seed):
    def fail(meta):
        raise OSError("disk full")

    monkeypatch.setattr(pl.orbit, "json", SimpleNamespace(dumps=fail))
    with pytest.raises(OSError, match="disk full"):
        enumerate_packing(
            apollonian_seed, bound=2000, max_vectors=40, checkpoint_dir=str(tmp_path)
        )
    assert list(tmp_path.iterdir()) == []


def _hand_reflection(g, i, mode):
    """Wall reflection i written out: I - 2 G[:, i] e_i^T on weight
    coordinates, I - 2 e_i G[i, :] on mirror coordinates."""
    n = len(g)
    if mode == "weights":
        return tuple(tuple(int(r == c) - 2 * g[r][i] * (c == i) for c in range(n)) for r in range(n))
    return tuple(tuple(int(r == c) - 2 * (r == i) * g[i][c] for c in range(n)) for r in range(n))


@pytest.mark.parametrize(
    "name, mode",
    [
        ("apollonian2", "weights"),
        ("apollonian3", "weights"),
        ("boyd", "weights"),
        ("ideal-triangle", "mirrors"),
        ("apollonian2", "mirrors"),
    ],
)
def test_generators_match_reflection_matrices(name, mode):
    p = pl.polytope(name)
    system, n = OrbitSystem(p, mode), p.rank
    generic = [tuple((3 * r + 5 * c) % 7 - 3 for r in range(n)) for c in range(n)]
    cluster = Cluster(system=system, cols=tuple(generic))
    for i in range(n):
        rmat = _hand_reflection(p.gram, i, mode)
        # the sphere walk's generator is the matrix itself, with int entries
        assert system.left_generators[i] == rmat
        assert all(type(x) is int for row in system.left_generators[i] for x in row)
        # the cluster step is the right action C -> C R_i: column j is C . R_i[:, j]
        want = tuple(
            tuple(sum(generic[k][r] * rmat[k][j] for k in range(n)) for r in range(n))
            for j in range(n)
        )
        assert apply_generator(cluster, i).cols == want
