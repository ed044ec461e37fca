"""Arguments that cannot give a correct answer are refused, not answered wrongly."""

import json
import os
import subprocess
import sys

import pytest

import packlab as pl
from packlab import cli
from packlab.errors import PreconditionError


def test_count_above_the_run_bound_is_refused(apollonian_seed):
    orb = pl.enumerate_packing(apollonian_seed, bound=50)
    assert (orb.count(), orb.count(50), orb.count(30)) == (5, 5, 3)
    # a run to 100 counts 9: this run kept nothing above 50 to count
    assert pl.enumerate_packing(apollonian_seed, bound=100).count() == 9
    with pytest.raises(PreconditionError, match="exceeds the run's curvature bound 50"):
        orb.count(100)
    # a depth-limited run without a bound stores its whole walk and counts at any bound
    free = pl.enumerate_packing(apollonian_seed, mode="depth_limited", max_depth=3)
    assert (free.count(100), free.count(10**6), free.count()) == (9, 55, 55)


@pytest.mark.parametrize("bound", [0, -5, "-1/2"])
@pytest.mark.parametrize("mode", ["bounded", "depth_limited"])
def test_nonpositive_bound_is_refused(apollonian_seed, mode, bound):
    with pytest.raises(PreconditionError, match="bound must be positive"):
        pl.enumerate_packing(apollonian_seed, bound=bound, mode=mode, max_depth=3)


def test_box_without_bound_is_refused():
    # the box filters what the bound keeps: with no bound, spheres centred
    # outside it would be kept under a note saying the counts are restricted
    band, box = pl.band_seed(), ((-1, -1), (1, 3))
    with pytest.raises(PreconditionError, match="a counting box needs a curvature bound"):
        pl.enumerate_packing(band, mode="depth_limited", max_depth=3, box=box)
    orb = pl.enumerate_packing(band, bound=1000, mode="depth_limited", max_depth=3, box=box)
    outside = [
        s for s in orb.euclidean_spheres()
        if s.kind == "sphere" and s.curvature > 0
        and not all(a <= x <= b for x, a, b in zip(s.center, *box))
    ]
    assert (len(orb.spheres), outside) == (25, [])


@pytest.mark.parametrize("mode", ["bounded", "depth_limited"])
def test_bound_without_curvature_data_is_refused(mode):
    # no curvatures, nothing to bound: the walk would keep every sphere
    # under a recorded curvature bound that count() could not apply
    bare = pl.initial_cluster(pl.polytope("apollonian2"))
    with pytest.raises(PreconditionError, match="a curvature bound needs cluster curvature data"):
        pl.enumerate_packing(bare, bound=5, mode=mode, max_depth=3)
    assert len(pl.enumerate_packing(bare, mode="depth_limited", max_depth=3).spheres) == 56


def test_pack_box_needs_bound(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["pack", "--catalog", "apollonian2", "--max-depth", "3", "--box=-1,-1,1,3"]
    assert cli.main([*argv, "--out", str(out)]) == 3
    assert "a counting box needs a curvature bound" in capsys.readouterr().err
    assert not out.exists()


def test_mode_action_beats_gram_file_action(tmp_path, capsys):
    gram = [[str(x) for x in row] for row in pl.polytope("apollonian2").gram]
    cfg = tmp_path / "ap.json"
    cfg.write_text(json.dumps({"gram": gram, "seed": ["-1", "2", "2", "3"], "action": "mirrors"}))
    out = tmp_path / "s.csv"
    argv = ["pack", "--gram-file", str(cfg), "--T", "20", "--out", str(out)]
    assert cli.main([*argv, "--mode-action", "weights"]) == 0
    assert "23 spheres" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 24


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_pack_refuses_nonpositive_bound(tmp_path, capsys, bound):
    out = tmp_path / "s.csv"
    assert cli.main(["pack", "--catalog", "apollonian2", "--T", bound, "--out", str(out)]) == 3
    assert "bound must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("factor", [1.0, 0.5])
def test_grid_factor_must_exceed_one(factor):
    # a factor <= 1 never reaches hi; the call runs in a child process so
    # that a grid which loops forever fails the test instead of hanging it
    code = (
        "from packlab.errors import PreconditionError\n"
        "from packlab.exponent import dyadic_grid\n"
        "try:\n"
        f"    dyadic_grid(1, 10, {factor!r})\n"
        "except PreconditionError as e:\n"
        "    print(e)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pl.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20
    )
    assert out.stdout.strip() == f"grid factor must be > 1, got {factor}"


def test_mode_action_is_for_custom_grams_only(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["pack", "--catalog", "apollonian2", "--T", "300", "--out", str(out)]
    assert cli.main([*argv, "--mode-action", "mirrors"]) == 2
    assert "--mode-action" in capsys.readouterr().err
    assert not out.exists()
    # a custom Gram defaults to weights mode, and the flag still picks it
    seed = pl.packing_seed("boyd")
    gram = ";".join(",".join(map(str, row)) for row in seed.system.polytope.gram)
    curvatures = ",".join(map(str, seed.curvature_seed))
    csvs = []
    for extra in ([], ["--mode-action", "weights"]):
        path = tmp_path / f"boyd{len(extra)}.csv"
        argv = ["pack", "--gram", gram, "--seed", curvatures, "--T", "60", "--out", str(path)]
        assert cli.main(argv + extra) == 0
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]


def _counts_csv(tmp_path):
    counts = tmp_path / "counts.csv"
    body = ["T,N"] + [f"{10 * 2 ** j},{int((10 * 2 ** j) ** 1.5)}" for j in range(14)]
    counts.write_text("\n".join(body) + "\n")
    return str(counts)


def _fit_payload(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wide_fit_window_fits_the_whole_curve(tmp_path, capsys):
    # 10**400 is no float: the window's lower end is hi * 10.0**-400 = 0,
    # the same whole-curve fit as an infinite window
    counts = _counts_csv(tmp_path)
    assert cli.main(["fit", "--counts", counts, "--window-decades", "inf"]) == 0
    whole = _fit_payload(capsys)
    assert cli.main(["fit", "--counts", counts, "--window-decades", "400"]) == 0
    assert _fit_payload(capsys) == whole
    assert (whole["window"][0], whole["points"]) == (0.0, 14)
    argv = ["surface", "--model", "baragar_p2p2", "--count", "--fit", "--T", "1e4"]
    assert cli.main(argv + ["--window-decades", "400"]) == 0
    assert "window [0, 1e+04]" in capsys.readouterr().out


@pytest.mark.parametrize("window", ["nan", "0", "-1"])
def test_nonpositive_fit_window_is_refused(tmp_path, capsys, window):
    # such a window leaves nothing to fit: its lower end is not below its upper end
    assert cli.main(["fit", "--counts", _counts_csv(tmp_path), "--window-decades", window]) == 3
    assert "window_decades must be positive" in capsys.readouterr().err
    argv = ["surface", "--model", "baragar_p2p2", "--count", "--fit", "--T", "1e4"]
    assert cli.main(argv + ["--window-decades", window]) == 3
    assert "window_decades must be positive" in capsys.readouterr().err


def test_zero_seed_class_is_refused(capsys):
    # every generator fixes C = 0: its orbit is one class, of degree 0
    model = pl.builtin_model("baragar_p2p2")
    with pytest.raises(PreconditionError, match="seed class C is zero"):
        pl.orbit_count(model, 1000, seed_class=(0, 0, 0))
    argv = ["surface", "--model", "baragar_p2p2", "--count", "--T", "1e3", "--C", "0,0,0"]
    assert cli.main(argv) == 3
    assert "seed class C is zero" in capsys.readouterr().err
