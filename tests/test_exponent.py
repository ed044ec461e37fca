import importlib
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import packlab as pl
from packlab.errors import PreconditionError, TruncatedCurveError
from packlab.exponent import (
    CountCurve,
    counting_function,
    dyadic_grid,
    fit_exponent,
    power_sum,
)


def test_counting_function_example():
    curve = counting_function([18, 23, 27, 35], [20, 30, 40])
    assert curve.ns == (1, 3, 4)


def test_counting_function_edges():
    assert counting_function([], [1, 2, 4]).ns == (0, 0, 0)
    assert counting_function([10, 12], [5, 11, 20]).ns == (0, 1, 2)
    with pytest.raises(PreconditionError):
        counting_function([1], [4, 2])  # grid not increasing


def test_csv_round_trip():
    curve = counting_function([18, 23], [20, 30], truncated=True)
    text = curve.to_csv()
    assert text.splitlines()[0] == "# truncated"
    back = CountCurve.from_csv(text)
    assert back.ts == curve.ts and back.ns == curve.ns and back.truncated


def test_csv_truncation_marker_only():
    text = "# truncated: false\nT,N\n20,1\n30,2\n"
    assert not CountCurve.from_csv(text).truncated
    for flag in (False, True):
        curve = counting_function([18, 23], [20, 30], truncated=flag)
        assert CountCurve.from_csv(curve.to_csv()).truncated is flag


def test_fit_power_law():
    ts = dyadic_grid(10, 10**4, factor=2**0.5)
    ns = [int(t**1.5) for t in ts]
    est = fit_exponent(CountCurve(ts=tuple(ts), ns=tuple(ns)), window_decades=2)
    assert abs(est.delta_hat - 1.5) < 0.01
    assert est.r_squared > 0.9999


def test_fit_constant_curve():
    ts = dyadic_grid(1, 10**4)
    est = fit_exponent(CountCurve(ts=tuple(ts), ns=(5,) * len(ts)), window_decades=3)
    assert est.delta_hat == 0


@pytest.mark.parametrize(
    "ts, ns, match",
    [
        ((10.0, float("nan"), 40.0), (1, 2, 3), "finite"),
        ((float("nan"), 20.0, 40.0), (1, 2, 3), "finite"),
        ((10.0, 20.0, float("inf")), (1, 2, 3), "finite"),
        ((float("-inf"), 20.0, 40.0), (1, 2, 3), "finite"),
        ((10.0, 20.0, 40.0), (-1, 2, 3), "nonnegative"),
    ],
)
def test_count_curve_refuses_non_finite_thresholds_and_negative_counts(ts, ns, match):
    # NaN compares False both ways, so the ordering check alone lets it through
    with pytest.raises(PreconditionError, match=match):
        CountCurve(ts=ts, ns=ns)


def test_fit_scale_equivariance():
    ks = [2**j for j in range(14) for _ in range(3 * j + 1)]
    grid = dyadic_grid(1, 2**13, factor=2**0.5)
    base = fit_exponent(counting_function(ks, grid), window_decades=2)
    scaled = fit_exponent(
        counting_function([7 * k for k in ks], [7 * t for t in grid]), window_decades=2
    )
    assert base.delta_hat == pytest.approx(scaled.delta_hat, abs=1e-12)


def test_fit_refusals():
    ts = dyadic_grid(10, 10**4)
    ns = tuple(int(t) for t in ts)
    with pytest.raises(TruncatedCurveError):
        fit_exponent(CountCurve(ts=tuple(ts), ns=ns, truncated=True))
    with pytest.raises(PreconditionError, match="points"):
        fit_exponent(CountCurve(ts=(10.0, 100.0, 1000.0), ns=(1, 2, 3)))


def test_power_sum_single():
    ps = power_sum([F(4)], 3, by="curvature")
    assert ps.value == pytest.approx((1 / 4) ** 3)


def test_power_sum_monotone_in_s():
    ks = [2, 3, 5, 8, 13, 21, 34]
    values = [power_sum(ks, s).value for s in (0.5, 1.0, 1.5, 2.0)]
    assert values == sorted(values, reverse=True)


def test_power_sum_brackets_synthetic():
    # curvatures 2^j with multiplicity 2^(1.3 j): a synthetic delta = 1.3
    # packing; decade contributions grow for s < delta, shrink for s > delta
    ks = [2**j for j in range(1, 11) for _ in range(int(2 ** (1.3 * j)))]
    low = power_sum(ks, 1.0, by="curvature")
    high = power_sum(ks, 1.6, by="curvature")
    assert low.tail == "growing" and low.brackets_below()
    assert high.tail == "shrinking" and not high.brackets_below()


def test_power_sum_validation():
    with pytest.raises(PreconditionError):
        power_sum([1, 2], 0)
    with pytest.raises(PreconditionError):
        power_sum([1, -2], 1)
    with pytest.raises(PreconditionError):
        power_sum([], 1)


def test_curve_from_orbit(apollonian_seed):
    orb = pl.enumerate_packing(apollonian_seed, bound=2000)
    curve = pl.curve_from_orbit(orb)
    assert curve.ns[-1] == orb.count()
    assert curve.ts[0] == 18.0
    assert not curve.truncated


def test_power_sum_brackets_apollonian(deep_apollonian_orbit):
    # the packing exponent is ~1.3057: the tail grows at s = 1.2 and
    # shrinks at s = 1.4; at s = 2 the sum is area-bounded and shrinking
    ks = deep_apollonian_orbit.positive_curvatures()
    assert power_sum(ks, 1.2).tail == "growing"
    assert power_sum(ks, 1.4).tail == "shrinking"
    ps2 = power_sum(ks, 2.0)
    assert ps2.tail == "shrinking"
    assert ps2.value < math.pi * (1 / 10) ** 2  # disks fit inside the bounding circle
    assert power_sum(ks, 1.0).tail == "growing"


def test_import_leaves_numpy_out():
    # packlab needs no numpy, irrational sphere coordinates included
    code = (
        "import sys, packlab, packlab.cli; "
        "orb = packlab.enumerate_packing(packlab.packing_seed('boyd'), bound=50); "
        "packlab.cli._spheres_csv(orb); packlab.render_svg(orb.euclidean_spheres()); "
        "print('numpy' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(pl.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def _fresh_modules(build: str) -> set:
    """packlab modules a fresh interpreter has loaded after ``import packlab; build``."""
    code = (
        f"import sys, packlab\n{build}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'packlab'))"
    )
    src = os.path.dirname(os.path.dirname(pl.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return set(out.stdout.split())


def test_import_loads_no_layer():
    assert _fresh_modules("") == {"packlab"}
    assert _fresh_modules("packlab.orbit.enumerate_packing") >= {"packlab.orbit", "packlab.walk"}
    surface = _fresh_modules("packlab.builtin_model('baragar_222')")
    assert "packlab.surfaces" in surface
    packing = _fresh_modules("packlab.packing_seed('apollonian2')")
    assert "packlab.catalog" in packing
    for layer in ("catalog", "coxeter", "orbit", "inversive", "lattices", "cli"):
        assert f"packlab.{layer}" not in surface
    for layer in ("surfaces", "lattices", "exponent", "cli"):
        assert f"packlab.{layer}" not in packing


def test_namespace_reads_each_submodule():
    # the 66 names the package exported when it imported every layer eagerly
    names = {
        "catalog": "band_seed packing_seed polytope",
        "coxeter": "CoxeterPolytope build_polytope dual_polytope is_packing_polytope "
        "maxwell_level reflection_in_normal_basis reflection_in_weight_basis",
        "errors": "CheckpointError ConfigError PackingError PacklabError PreconditionError "
        "TruncatedCurveError",
        "exponent": "CountCurve ExponentEstimate PowerSum counting_function curve_from_orbit "
        "dyadic_grid fit_exponent power_sum",
        "inversive": "EuclideanSphere SphereVector classify_pair render_svg sphere_from_vector "
        "vector_from_sphere",
        "lattices": "DiscriminantGroup QuadraticLattice discriminant_group dual_exponent "
        "dual_gram even_sublattice from_catalog gram_in_basis rescale verify_isometry",
        "lorentz": "QuadraticSpace hyperbolic_distance hyperplane_distance inner signature "
        "sphere_space",
        "orbit": "Cluster PackingOrbit apply_generator certify_integral enumerate_packing "
        "initial_cluster iter_clusters load_checkpoint resume_enumeration "
        "seed_cluster_from_curvatures with_curvatures with_realization",
        "surfaces": "ModelReport OrbitCount SurfaceModel builtin_model "
        "estimate_surface_exponent model_from_config orbit_count verify_model",
    }
    home = {name: module for module, text in names.items() for name in text.split()}
    assert len(home) == 66
    assert sorted(pl.__all__) == sorted(home)
    assert set(home) <= set(dir(pl))
    for name, module in home.items():
        assert getattr(pl, name) is getattr(importlib.import_module(f"packlab.{module}"), name)
    for module in (*names, "exact", "walk"):
        assert getattr(pl, module) is importlib.import_module(f"packlab.{module}")
        assert module in dir(pl)
    with pytest.raises(AttributeError, match="'packlab' has no attribute 'no_such_name'"):
        pl.no_such_name


def test_namespace_reads_a_patched_function(monkeypatch):
    original = pl.surfaces.verify_model
    monkeypatch.setattr(pl.surfaces, "verify_model", lambda model: None)
    assert pl.verify_model is pl.surfaces.verify_model is not original
    monkeypatch.undo()
    assert pl.verify_model is original


def test_fit_matches_least_squares_reference(apollonian_seed):
    import numpy as np

    curve = pl.curve_from_orbit(pl.enumerate_packing(apollonian_seed, bound=3 * 10**4))
    est = fit_exponent(curve, window_decades=3)
    hi = curve.ts[-1]
    pts = [(math.log(t), math.log(n)) for t, n in zip(curve.ts, curve.ns) if t >= hi / 1000]
    x, y = np.array(pts).T
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    stderr = math.sqrt(ss_res / (len(x) - 2) / float(((x - x.mean()) ** 2).sum()))
    r2 = 1 - ss_res / float(((y - y.mean()) ** 2).sum())
    assert est.points == len(x)
    assert est.delta_hat == pytest.approx(slope, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)
    assert est.r_squared == pytest.approx(r2, rel=1e-12)
    assert est.prefactor == pytest.approx(math.exp(intercept), rel=1e-12)
