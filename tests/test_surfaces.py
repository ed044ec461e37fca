import dataclasses
import json
from collections import deque
from fractions import Fraction as F

import pytest

import packlab as pl
from packlab import cli, exact
from packlab.errors import ConfigError, DimensionError, PreconditionError, TruncatedCurveError
from packlab.lattices import tangent_cluster_gram
from packlab.surfaces import (
    SurfaceModel,
    builtin_model,
    estimate_surface_exponent,
    model_from_config,
    orbit_count,
    verify_model,
)


def test_builtin_p2p2_data():
    m = builtin_model("baragar_p2p2")
    assert m.generators[0] == exact.mat([[-1, 0, 0], [3, 0, 1], [3, 1, 0]])
    assert m.space.gram == exact.mat([[0, 1, 2], [1, -2, 3], [2, 3, -2]])
    assert m.space.signature == (1, 2)
    assert [str(a) for a in m.reflection_vectors[0]] == ["-4", "13", "10"]


def test_builtin_triangle():
    m = builtin_model("triangle", a=1, b=1, c=1)
    assert m.space.gram == exact.mat([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    m2 = builtin_model("triangle(2,2,1)")
    assert m2.space.gram[0][1] == -2
    with pytest.raises(ConfigError):
        builtin_model("triangle", a=F(1, 2), b=1, c=1)
    with pytest.raises(ConfigError):
        builtin_model("nope")


def test_verify_models_pass():
    for name in ("baragar_p2p2", "baragar_222"):
        rep = verify_model(builtin_model(name))
        assert rep.all_passed, str(rep)
        assert rep.convention == "column"
    rep = verify_model(builtin_model("triangle", a=2, b=3, c=1))
    assert rep.all_passed


def test_alpha_gram_values():
    m = builtin_model("baragar_p2p2")
    gram = [[m.inner(x, y) for y in m.reflection_vectors] for x in m.reflection_vectors]
    assert exact.mat(gram) == exact.mat_scale(
        exact.mat([[1, F(-13, 2), -10], [F(-13, 2), 1, -1], [-10, -1, 1]]), -22
    )
    m2 = builtin_model("baragar_222")
    gram2 = [[m2.inner(x, y) for y in m2.reflection_vectors] for x in m2.reflection_vectors]
    assert exact.mat(gram2) == exact.mat_scale(
        exact.mat(
            [[1, -1, -1, -15], [-1, 1, -6, -13], [-1, -6, 1, -13], [-15, -13, -13, 1]]
        ),
        -14,
    )


def test_generators_are_involutions():
    for name in ("baragar_p2p2", "baragar_222"):
        m = builtin_model(name)
        for a in m.generators:
            assert exact.mat_mul(a, a) == exact.identity(m.rank)


def test_verify_reports_failure():
    m = builtin_model("baragar_p2p2")
    broken = SurfaceModel(
        name="broken",
        space=m.space,
        basis_labels=m.basis_labels,
        generators=(exact.mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),),
        generator_labels=("bad",),
        ample=m.ample,
        seed_class=m.seed_class,
    )
    rep = verify_model(broken)
    assert not rep.all_passed
    assert rep.convention == "none"
    with pytest.raises(PreconditionError):
        orbit_count(broken, 100)


def test_row_convention_detected():
    m = builtin_model("baragar_p2p2")
    transposed = SurfaceModel(
        name="transposed",
        space=m.space,
        basis_labels=m.basis_labels,
        generators=tuple(exact.transpose(a) for a in m.generators),
        generator_labels=m.generator_labels,
        ample=m.ample,
        seed_class=m.seed_class,
    )
    rep = verify_model(transposed)
    assert rep.convention == "row"
    assert all(c.passed for c in rep.checks if "preserves" in c.name)
    a = orbit_count(m, 10**4).count
    b = orbit_count(transposed, 10**4).count
    assert a == b


def test_trivial_and_empty_counts():
    m = builtin_model("baragar_p2p2")
    lonely = SurfaceModel(
        name="trivial",
        space=m.space,
        basis_labels=m.basis_labels,
        generators=(),
        generator_labels=(),
        ample=m.ample,
        seed_class=m.seed_class,
    )
    oc = orbit_count(lonely, 100)
    assert oc.count == 1 and oc.finite_orbit
    oc0 = orbit_count(lonely, 2)  # (H, C) = 3 > 2
    assert oc0.count == 0


def test_finite_orbit_refused_for_exponent():
    m = builtin_model("baragar_p2p2")
    single = SurfaceModel(
        name="one-reflection",
        space=m.space,
        basis_labels=m.basis_labels,
        generators=(m.generators[1],),
        generator_labels=("deck2",),
        ample=m.ample,
        seed_class=(0, 1, 0),  # the section class, moved by deck2
    )
    oc = orbit_count(single, 10**6)
    assert oc.finite_orbit and oc.count == 2
    with pytest.raises(PreconditionError, match="finite"):
        estimate_surface_exponent(single, 10**6)


def test_orbit_count_against_word_oracle():
    # cusp-free walls (all pairs divergent): degrees grow geometrically
    # along words, so a depth-stabilized exhaustive enumeration is a true
    # oracle for everything below the bound
    model = builtin_model("triangle", a=2, b=2, c=2)
    bound = 2000
    prev = None
    for depth in (12, 14, 16):
        oracle = sorted(d for d in _word_orbit_oracle(model, depth) if d <= bound)
        if oracle == prev:
            break
        prev = oracle
    else:
        raise AssertionError("oracle did not stabilize")
    oc = orbit_count(model, bound)
    assert not oc.truncated
    assert list(oc.degrees) == oracle


def test_orbit_count_contains_exhaustive_ideal_triangle():
    # with cusps an exhaustive enumeration cannot be completed, but every
    # vector it does reach below the bound must be in the counted set
    model = builtin_model("triangle", a=1, b=1, c=1)
    bound = 60
    oracle = sorted(d for d in _word_orbit_oracle(model, 12) if d <= bound)
    oc = orbit_count(model, bound)
    assert not oc.truncated
    counted = list(oc.degrees)
    for d in oracle:
        assert d in counted
    assert len(counted) >= len(oracle)


def _word_orbit_oracle(model, depth):
    gens = [tuple(tuple(int(x) for x in row) for row in a) for a in model.generators]
    hrow = tuple(int(x) for x in exact.mat_vec(model.space.gram, model.ample))
    seed = tuple(int(x) for x in model.seed_class)
    seen = {seed}
    frontier = deque([seed])
    for _ in range(depth):
        nxt = deque()
        for v in frontier:
            for a in gens:
                w = tuple(sum(r[k] * v[k] for k in range(len(v))) for r in a)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return [abs(sum(h * x for h, x in zip(hrow, v))) for v in seen]


def test_thread_determinism_surface():
    m = builtin_model("baragar_p2p2")
    degs = [orbit_count(m, 10**5, threads=t).degrees for t in (1, 2, 8)]
    assert degs[0] == degs[1] == degs[2]


def test_orbit_invariant_norm():
    # (C', C') is constant along the orbit, exactly
    import random

    m = builtin_model("baragar_222")
    rng = random.Random(13)
    v = m.seed_class
    norm0 = m.inner(v, v)
    for _ in range(400):
        a = m.generators[rng.randrange(len(m.generators))]
        v = exact.mat_vec(a, v)
        assert m.inner(v, v) == norm0


def test_exponent_p2p2():
    est = estimate_surface_exponent(builtin_model("baragar_p2p2"), 10**7)
    assert 0.60 <= est.delta_hat <= 0.70
    assert est.r_squared > 0.999


def test_exponent_stability_under_ample_choice():
    m = builtin_model("baragar_p2p2")
    e1 = estimate_surface_exponent(m, 10**6, ample=(1, 1, 1))
    e2 = estimate_surface_exponent(m, 10**6, ample=(2, 1, 1))
    assert abs(e1.delta_hat - e2.delta_hat) < 0.05


def test_triangle_exponent_decreases_with_separation():
    # wider wall separation shrinks the limit set: delta drops as a grows
    deltas = []
    for a in (F(3, 2), 2, 4):
        m = builtin_model("triangle", a=a, b=a, c=1)
        deltas.append(estimate_surface_exponent(m, 10**4).delta_hat)
    assert deltas[0] > deltas[1] > deltas[2]


def test_triangle_exponent_near_small_radius_asymptote():
    # with walls at cosh d = a the group approaches exponent (1/a + 1)/2
    # as a grows; at a = 8 that is 0.5625
    m = builtin_model("triangle", a=8, b=8, c=1)
    est = estimate_surface_exponent(m, 10**4)
    assert abs(est.delta_hat - 0.5625) < 0.08


def test_model_from_config_round_trip():
    m = builtin_model("baragar_p2p2")
    cfg = {
        "name": "p2p2-copy",
        "gram": [[str(x) for x in row] for row in m.space.gram],
        "generators": [[[str(x) for x in row] for row in a] for a in m.generators],
        "H": ["1", "1", "1"],
        "C": ["1", "0", "0"],
    }
    copy = model_from_config(cfg)
    assert verify_model(copy).all_passed
    assert orbit_count(copy, 1000).count == orbit_count(m, 1000).count
    with pytest.raises(ConfigError):
        model_from_config({"gram": [[0]]})


def test_model_file_alphas_are_checked_against_their_words(tmp_path):
    m = builtin_model("baragar_p2p2")
    cfg = {
        "gram": [[str(x) for x in row] for row in m.space.gram],
        "generators": [[[str(x) for x in row] for row in a] for a in m.generators],
        "H": ["1", "1", "1"],
        "C": ["1", "0", "0"],
        "alphas": [[str(x) for x in a] for a in m.reflection_vectors],
        "words": [list(w) for w in m.reflection_words],
    }
    rep = verify_model(model_from_config(cfg))
    assert rep.all_passed and len(rep.checks) == 6
    path = tmp_path / "model.json"

    def surface(config):
        path.write_text(json.dumps(config))
        return cli.main(["surface", "--model-file", str(path)])

    assert surface(cfg) == 0
    # the reflection in alpha 2 is the negation, not deck2: verification fails
    assert surface({**cfg, "words": [[0, 1, 0], [1], [1]]}) == 3
    # alphas without words were never checked: (1, 0, 0) has norm 0, yet
    # such a model verified as all passed
    bare = {k: v for k, v in cfg.items() if k != "words"}
    assert surface({**bare, "alphas": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}) == 2
    assert surface({**cfg, "words": [[0, 1, 0], [1]]}) == 2
    assert surface({**cfg, "words": [[0, 1, 0], [1], [3]]}) == 2


def test_non_involutive_generator_counts_alike():
    # deck1 * deck2 is not an involution; with deck2 and the negation it
    # generates the same group, so the count must not change, and a class
    # it made must try it again
    m = builtin_model("baragar_p2p2")
    a1, a2, a3 = m.generators
    prod = exact.mat_mul(a1, a2)
    assert exact.mat_mul(prod, prod) != exact.identity(3)
    mixed = dataclasses.replace(
        m,
        generators=(prod, a2, a3),
        generator_labels=("deck1*deck2", "deck2", "negation"),
        reflection_vectors=None,
        reflection_words=None,
        alpha_gram_expected=None,
    )
    got, want = orbit_count(mixed, 10**5), orbit_count(m, 10**5)
    assert not got.truncated and got.degrees == want.degrees


def test_truncated_count_refused_for_exponent():
    oc = orbit_count(builtin_model("baragar_p2p2"), 10**6)
    oc.estimate_exponent()
    with pytest.raises(TruncatedCurveError):
        dataclasses.replace(oc, truncated=True).estimate_exponent()


def test_wrong_length_classes_refused(tmp_path):
    m = builtin_model("baragar_222")
    for cls in ((1, 0), (1, 0, 0, 0, 5)):
        with pytest.raises(DimensionError, match="seed class"):
            orbit_count(m, 1000, seed_class=cls)
        with pytest.raises(DimensionError, match="class H"):
            orbit_count(m, 1000, ample=cls)
    p2 = builtin_model("baragar_p2p2")
    with pytest.raises(DimensionError, match="generators"):
        dataclasses.replace(p2, generators=(exact.identity(2),))
    with pytest.raises(DimensionError, match="seed class"):
        dataclasses.replace(p2, seed_class=(1, 0))
    with pytest.raises(ConfigError, match="object"):
        model_from_config([[0, 1], [1, 0]])
    # the CLI maps the refusals to exit codes instead of tracebacks
    count = ["surface", "--model", "baragar_p2p2", "--count", "--T", "1000"]
    assert cli.main(count + ["--C", "1,0"]) == 3
    assert cli.main(count + ["--H", "1,1"]) == 3
    bad = tmp_path / "model.json"
    bad.write_text('[["1", "0"], ["0", "1"]]')
    assert cli.main(["surface", "--model-file", str(bad)]) == 2


def test_ample_outside_light_cone_refused(capsys):
    m = builtin_model("baragar_p2p2")
    # (H, H) = -2 puts H outside the light cone
    with pytest.raises(PreconditionError, match="light cone"):
        orbit_count(m, 200, ample=(0, 1, 0))
    argv = ["surface", "--model", "baragar_p2p2", "--count", "--T", "200", "--H", "0,1,0"]
    assert cli.main(argv) == 3
    assert "light cone" in capsys.readouterr().err
    # -H lies in the negative cone and gives the same degrees |(H, C')|
    assert orbit_count(m, 200, ample=(-1, -1, -1)).degrees == (3, 12, 45, 135, 144)
    assert orbit_count(m, 200).degrees == (3, 12, 45, 135, 144)


def test_zero_ample_refused_isotropic_allowed(capsys):
    # H = 0 passes the light-cone test, but its degrees are all 0 and the
    # walk would prune nothing
    m = builtin_model("baragar_p2p2")
    with pytest.raises(PreconditionError, match="zero"):
        orbit_count(m, 100, ample=(0, 0, 0))
    argv = ["surface", "--model", "baragar_p2p2", "--count", "--T", "100", "--H", "0,0,0"]
    assert cli.main(argv) == 3
    assert "zero" in capsys.readouterr().err
    # a nonzero isotropic H is counted: the Apollonian gasket as a lattice
    # model, where H = G^-1 k pairs each circle's class with its curvature
    seed = pl.packing_seed("apollonian2")
    gram = tangent_cluster_gram(2)
    system = seed.system
    gens = [exact.reflection_matrix(system.basis_gram, w) for w in system.polytope.gram]
    cfg = {"gram": gram, "generators": gens, "H": (1, 1, 1, 1), "C": (1, 0, 0, 0)}
    gasket = model_from_config(cfg)
    h = exact.mat_vec(exact.inverse(gram), seed.curvature_seed)
    assert gasket.inner(h, h) == 0
    degrees = []
    for e in exact.identity(4):
        degrees += orbit_count(gasket, 300, seed_class=e, ample=h).degrees
    curvatures = pl.enumerate_packing(seed, bound=300).curvatures
    assert sorted(degrees) == sorted(map(abs, curvatures))


def test_parabolic_stabilizer_of_isotropic_h_refused(capsys):
    # deck2 and negation both fix the fibre class f; their product is a
    # nontrivial unipotent, so every class it moves has infinitely many
    # images of one degree
    m = builtin_model("baragar_p2p2")
    with pytest.raises(PreconditionError, match="infinitely many classes"):
        orbit_count(m, 100, ample=(1, 0, 0))
    argv = ["surface", "--model", "baragar_p2p2", "--count", "--T", "100", "--H", "1,0,0"]
    assert cli.main(argv) == 3
    assert "unipotent" in capsys.readouterr().err


def test_zero_norm_reflection_refused():
    # (f, f) = 0 for the fibre class f
    with pytest.raises(PreconditionError, match="zero norm"):
        builtin_model("baragar_p2p2").reflection_matrix((1, 0, 0))
