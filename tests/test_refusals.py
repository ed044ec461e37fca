"""Arguments that cannot give a correct answer are refused, not answered wrongly."""

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
