"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``).

Every tolerance is fixed here; nothing is calibrated at run time.
"""

import time
from fractions import Fraction as F

import pytest

import packlab as pl
from packlab import exact

ROOT_QUADRUPLE = (-10, 18, 23, 27)


def report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_descartes_identity():
    k = ROOT_QUADRUPLE
    residual = 2 * sum(x * x for x in k) - sum(k) ** 2
    report(1, residual == 0, f"2*sum(k^2) - (sum k)^2 = {residual} for {k}")


def test_criterion_2_soddy_suite():
    t0 = time.time()
    checked = {}
    for name in ("apollonian2", "apollonian3", "boyd"):
        seed = pl.packing_seed(name)
        p = seed.system.polytope
        w = p.cluster_gram
        g = p.gram
        n = 0
        for c in pl.iter_clusters(seed, max_count=10**4):
            k = exact.vec(c.curvatures)
            assert exact.dot(k, exact.mat_vec(g, k)) == 0
            assert c.gram() == w
            n += 1
        checked[name] = n
    elapsed = time.time() - t0
    ok = all(v >= 10**4 for v in checked.values()) and elapsed < 30
    report(2, ok, f"{checked} clusters exact in {elapsed:.1f}s (< 30s)")


def _exhaustive_depth12():
    """Independent oracle: depth-12 reduced-word enumeration over integer
    sphere vectors (seed geometry scaled by 200), no pruning."""
    seed_vecs = (
        (-2000, 0, 0, -10),
        (3600, 160, 0, 2),
        (4600, -240, 100, -3),
        (5400, -160, -300, -7),
    )

    spheres = set(seed_vecs)
    stack = [(seed_vecs, -1, 0)]
    while stack:
        cols, last, depth = stack.pop()
        # the swap k_i -> 2 (sum of all) - 3 k_i; the sum is shared by the children
        total = tuple(a + b + c + d for a, b, c, d in zip(*cols))
        for i in range(4):
            if i == last:
                continue
            new = tuple(2 * t - 3 * v for t, v in zip(total, cols[i]))
            spheres.add(new)
            if depth < 11:  # a depth-12 child adds its new column and is not expanded
                stack.append((cols[:i] + (new,) + cols[i + 1 :], i, depth + 1))
    return spheres


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    oracle = _exhaustive_depth12()
    seed = pl.packing_seed("apollonian2")
    counts = {}
    for bound in (30, 35, 50, 200):
        orb = pl.enumerate_packing(seed, bound=bound)
        got = {
            tuple(200 * x for x in v.coords)
            for v in orb.sphere_vectors()
            if v.curvature > 0
        }
        want = {v for v in oracle if 0 < v[0] <= 200 * bound}
        assert got == want, f"set mismatch at T={bound}"
        counts[bound] = orb.count()
    elapsed = time.time() - t0
    ok = (
        counts[30] == 3 and counts[35] == 4 and counts[50] == 5 and elapsed < 10
    )
    report(3, ok, f"N(30,35,50,200) = {tuple(counts.values())} in {elapsed:.1f}s (< 10s)")


def test_criterion_4_apollonian_exponent(deep_apollonian_orbit):
    t0 = time.time()
    orb = deep_apollonian_orbit
    assert not orb.truncated
    curve = pl.curve_from_orbit(orb)
    est = pl.fit_exponent(curve)
    elapsed = time.time() - t0
    ok = 1.26 <= est.delta_hat <= 1.36
    report(
        4,
        ok,
        f"delta_hat = {est.delta_hat:.4f} in [1.26, 1.36] "
        f"(target 1.3057) from N(1e5) = {orb.count()}",
    )


def test_criterion_5_level_classification():
    cir4 = [[1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [-1, -1, -1, 1]]
    cir3 = [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    eye2 = [[1, 0], [0, 1]]
    g6 = [[1 if i == j else -2 for j in range(6)] for i in range(6)]
    ok = (
        pl.maxwell_level(cir4) == 2
        and pl.maxwell_level(cir3) == 1
        and pl.maxwell_level(eye2) == 0
        and pl.is_packing_polytope(pl.polytope("apollonian2").gram)
        and pl.is_packing_polytope(pl.polytope("apollonian3").gram)
        and pl.is_packing_polytope(pl.polytope("boyd").gram)
        and not pl.is_packing_polytope(g6)
    )
    report(5, ok, "levels 2/1/0 and packing accept/reject as stated")


def test_criterion_6_lattice_identities():
    # (a) discriminant groups of the tangent-cluster lattices
    ok_a = True
    for n in range(2, 6):
        factors = pl.discriminant_group(pl.from_catalog(f"Ap{n}")).invariant_factors
        expected = (2,) * n + (2 * n,)
        ok_a = ok_a and factors == expected
    # (b) the rank-6 basis change to <1> + U(2) + A3(2), entry for entry
    ap4 = pl.from_catalog("Ap4")
    cols = [
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [-1, 0, -1, 0, 0, 0],
        [1, 1, 1, -1, 0, 0],
        [0, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 1, -1],
    ]
    got = pl.gram_in_basis(ap4, exact.transpose(exact.mat(cols)))
    expected_b = exact.mat(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 0, 2, 0, 0, 0],
            [0, 2, 0, 0, 0, 0],
            [0, 0, 0, 4, -2, 0],
            [0, 0, 0, -2, 4, -2],
            [0, 0, 0, 0, -2, 4],
        ]
    )
    ok_b = got == expected_b
    # (c) dual root lattice in the (alpha_2..alpha_{n-1}, beta) basis
    ok_c = True
    for n in range(3, 7):
        lat = pl.from_catalog(f"A{n - 1}v({n})")
        cartan = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n - 1)]
            for i in range(n - 1)
        ]
        basis_cols = [list(cartan[i]) for i in range(1, n - 1)]
        beta = [0] * (n - 1)
        beta[n - 2] = 1
        basis_cols.append(beta)
        got_c = pl.gram_in_basis(lat, exact.transpose(exact.mat(basis_cols)))
        size = n - 1
        expected_c = [[0] * size for _ in range(size)]
        for i in range(size - 1):
            expected_c[i][i] = 2 * n
            if i + 1 < size - 1:
                expected_c[i][i + 1] = expected_c[i + 1][i] = -n
        expected_c[size - 1][size - 1] = n - 1
        expected_c[size - 2][size - 1] = expected_c[size - 1][size - 2] = n
        ok_c = ok_c and got_c == exact.mat(expected_c)
    report(6, ok_a and ok_b and ok_c, f"(a) {ok_a} (b) {ok_b} (c) {ok_c}, all exact")


def test_criterion_7_baragar_models_exact():
    reports = {}
    for name in ("baragar_p2p2", "baragar_222"):
        rep = pl.verify_model(pl.builtin_model(name))
        reports[name] = rep.all_passed
    m = pl.builtin_model("baragar_p2p2")
    gram = exact.mat(
        [[m.inner(x, y) for y in m.reflection_vectors] for x in m.reflection_vectors]
    )
    scaled = exact.mat_scale(
        exact.mat([[1, F(-13, 2), -10], [F(-13, 2), 1, -1], [-10, -1, 1]]), -22
    )
    ok = all(reports.values()) and gram == scaled
    report(7, ok, f"all generator/reflection/Gram identities exact: {reports}")


@pytest.fixture(scope="module")
def surface_estimates():
    p2p2 = pl.estimate_surface_exponent(pl.builtin_model("baragar_p2p2"), 10**7)
    b222 = pl.estimate_surface_exponent(pl.builtin_model("baragar_222"), 10**4)
    return p2p2, b222


def test_criterion_8_surface_exponents(surface_estimates):
    p2p2, b222 = surface_estimates
    ok = 0.60 <= p2p2.delta_hat <= 0.70 and 1.20 <= b222.delta_hat <= 1.40
    report(
        8,
        ok,
        f"delta(p2p2) = {p2p2.delta_hat:.4f} in [0.60, 0.70] (Baragar: .6515-.6538); "
        f"delta(222) = {b222.delta_hat:.4f} in [1.20, 1.40] (Baragar: 1.286-1.306); "
        "both windows non-truncated",
    )


def test_criterion_9_determinism():
    seed = pl.packing_seed("apollonian2")
    packs = [pl.enumerate_packing(seed, bound=200, threads=t).spheres for t in (1, 2, 8)]
    ok_pack = packs[0] == packs[1] == packs[2]
    m1 = pl.builtin_model("baragar_p2p2")
    m2 = pl.builtin_model("baragar_222")
    degs1 = [pl.orbit_count(m1, 10**7, threads=t).degrees for t in (1, 2, 8)]
    degs2 = [pl.orbit_count(m2, 10**4, threads=t).degrees for t in (1, 2, 8)]
    ok_surface = degs1[0] == degs1[1] == degs1[2] and degs2[0] == degs2[1] == degs2[2]
    report(9, ok_pack and ok_surface, "criterion 3 and 8 outputs identical for 1/2/8 threads")


def test_criterion_10_degenerate_invariant():
    seed = pl.packing_seed("ideal-triangle")
    n = 0
    for c in pl.iter_clusters(seed, max_count=1001):
        k1, k2, k3 = c.curvatures
        assert k1 * k2 + k1 * k3 + k2 * k3 == 0
        n += 1
    report(10, n >= 1001, f"k1 k2 + k1 k3 + k2 k3 = 0 exact over {n} words")
