import hashlib
import json
import re
from fractions import Fraction as F

import pytest

import packlab as pl
from packlab import catalog, cli, surfaces
from packlab.inversive import render_svg
from packlab.surfaces import builtin_model, estimate_surface_exponent


def run(argv):
    return cli.main(argv)


def test_pack_catalog(tmp_path, capsys):
    out = tmp_path / "spheres.csv"
    svg = tmp_path / "packing.svg"
    counts = tmp_path / "counts.csv"
    code = run(
        [
            "pack",
            "--catalog",
            "apollonian2",
            "--seed",
            "-10,18,23,27",
            "--T",
            "1000",
            "--out",
            str(out),
            "--svg",
            str(svg),
            "--counts",
            str(counts),
            "--threads",
            "2",
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("curvature,center,radius")
    assert "-10," in text
    assert svg.read_text().count("<circle") >= 4
    assert counts.read_text().startswith("T,N")


def test_pack_deterministic_output(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert run(
            ["pack", "--catalog", "apollonian2", "--T", "500", "--out", str(path)]
        ) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_pack_csv_has_no_signed_zeros(tmp_path):
    # the outer circle is centred at the origin: its center numerators are 0
    out = tmp_path / "spheres.csv"
    assert run(["pack", "--catalog", "apollonian2", "--T", "30", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert "-10,0 0,0.1" in rows
    assert "-0" not in {field for row in rows for field in re.split("[ ,]", row)}


# SHA-256 of the spheres CSV, the labelled SVG and `packlab render --labels`
# on that CSV: a digit moved by either float writer fails here
OUTPUT_DIGESTS = {
    "apollonian2": (
        "9ab02b817c222e48e27fa62551539bb85a924f6e771aed1ec605c7fa56ab3a2d",
        "1ceb754d08f21b5fe97dac9f111f0c3100f0f8d5d23cb935fcf37796744b4d9c",
        "1ceb754d08f21b5fe97dac9f111f0c3100f0f8d5d23cb935fcf37796744b4d9c",
    ),
    "band": (
        "4ee66012d3e1e362d2e1faf89aea3245d2b0d1e298b8cf2f44441238610508e5",
        "d2e03f249a2ac0094b851232706c53e3ae028cd4ae635b6490f39787d35a46a0",
        "3c084f6400c0db4c5d8ddf49b4e1965814ce7c399a6ae6523f68bb804aa055bb",
    ),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_output_bytes_pinned(name, tmp_path):
    # the band box run keeps its two seed lines, so its CSV and SVG cover
    # the hyperplane rows as well as circles
    if name == "band":
        orb = pl.enumerate_packing(catalog.band_seed(), bound=60, box=((-3, -1), (3, 3)))
    else:
        orb = pl.enumerate_packing(pl.packing_seed(name), bound=3000)
    csv = cli._spheres_csv(orb)
    spheres, svg = tmp_path / "spheres.csv", tmp_path / "rendered.svg"
    spheres.write_text(csv)
    assert run(["render", "--spheres", str(spheres), "--out", str(svg), "--labels"]) == 0
    texts = (csv, render_svg(orb.euclidean_spheres(), labels=True), svg.read_text())
    digests = tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)
    assert digests == OUTPUT_DIGESTS[name]


def test_pack_custom_gram_requires_seed(tmp_path):
    code = run(["pack", "--gram", "1,-1,-1,-1;-1,1,-1,-1;-1,-1,1,-1;-1,-1,-1,1", "--T", "10"])
    assert code == 2
    # and a degenerate gram is a math error, not a config error
    assert run(["pack", "--gram", "1,-1;-1,1", "--seed", "0,0", "--T", "10"]) == 3


def test_pack_boyd_approximate_centers(tmp_path):
    out = tmp_path / "boyd.csv"
    assert run(["pack", "--catalog", "boyd", "--T", "50", "--out", str(out)]) == 0
    assert "curvature" in out.read_text()


def test_pack_svg_without_geometry_is_refused_before_the_walk(tmp_path, capsys):
    # apollonian3 packs spheres (n = 3): the refusal comes before any file is written
    out, counts, svg = (tmp_path / name for name in ("b.csv", "c.csv", "b.svg"))
    argv = ["pack", "--catalog", "apollonian3", "--T", "40", "--out", str(out)]
    assert run(argv + ["--counts", str(counts), "--svg", str(svg)]) == 3
    assert "n = 2" in capsys.readouterr().err
    assert not out.exists() and not counts.exists() and not svg.exists()


def test_pack_boyd_svg_renders(tmp_path):
    # boyd's realization carries sqrt(3) on one axis; its SVG draws every circle
    out, svg = tmp_path / "boyd.csv", tmp_path / "boyd.svg"
    assert run(["pack", "--catalog", "boyd", "--T", "50", "--out", str(out), "--svg", str(svg)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert svg.read_text().count("<circle ") == len(rows)


def _line_normals(csv_text):
    # (normal, offset) of each line row, a normal entry "q*sqrt(s)" read as (q, s)
    lines = []
    for row in csv_text.splitlines()[1:]:
        m = re.fullmatch(r"0,line normal \((.*)\) offset (\S+),inf", row)
        assert m or "line" not in row, row
        if m:
            entries = [x.split("*sqrt(") for x in m.group(1).split()]
            normal = [(F(x[0]), int(x[1][:-1]) if len(x) > 1 else 1) for x in entries]
            lines.append((normal, F(m.group(2))))
    return lines


def test_pack_lines_print_exact_normals(tmp_path):
    # every line row is exact, also where the normal has an irrational entry:
    # a hyperplane's normal has unit length, sum s_i q_i^2 = 1
    out = tmp_path / "lines.csv"
    assert run(["pack", "--catalog", "boyd", "--seed", "0,0,1,1", "--max-depth", "6",
                "--out", str(out)]) == 0
    assert _line_normals(out.read_text()) == [([(-1, 1), (0, 1)], -1), ([(1, 1), (0, 1)], -2)]
    assert run(["pack", "--catalog", "boyd", "--seed", "-1,-1,0,0", "--max-depth", "2",
                "--out", str(out)]) == 0
    text = out.read_text()
    lines = _line_normals(text)
    assert "*sqrt(3)" in text and len(lines) >= 2
    for normal, _ in lines:
        assert sum(s * q * q for q, s in normal) == 1


def test_pack_depth_limited_needs_max_depth(tmp_path, capsys):
    out = tmp_path / "spheres.csv"
    argv = ["pack", "--catalog", "apollonian2", "--mode", "depth_limited", "--T", "100"]
    assert run(argv + ["--out", str(out)]) == 3
    assert "max_depth" in capsys.readouterr().err
    assert not out.exists()


def test_pack_max_depth_zero(tmp_path, capsys):
    out = tmp_path / "spheres.csv"
    assert run(["pack", "--catalog", "apollonian2", "--max-depth", "0", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "4 spheres -> " in printed and "(truncated: True)" in printed
    rows = out.read_text().splitlines()[1:]
    assert sorted(int(r.split(",")[0]) for r in rows) == [-10, 18, 23, 27]


def test_pack_max_depth_negative(tmp_path, capsys):
    out = tmp_path / "spheres.csv"
    assert run(["pack", "--catalog", "apollonian2", "--max-depth", "-1", "--out", str(out)]) == 3
    assert "max_depth" in capsys.readouterr().err
    assert not out.exists()


def test_fit_roundtrip(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    body = ["T,N"] + [f"{10 * 2 ** j},{int((10 * 2 ** j) ** 1.5)}" for j in range(14)]
    counts.write_text("\n".join(body) + "\n")
    assert run(["fit", "--counts", str(counts), "--window-decades", "3"]) == 0
    captured = capsys.readouterr().out
    payload = json.loads(captured.strip().splitlines()[-1])
    assert abs(payload["delta_hat"] - 1.5) < 0.01


def test_fit_refuses_truncated(tmp_path):
    counts = tmp_path / "counts.csv"
    body = ["# truncated", "T,N"] + [f"{2 ** j},{2 ** j}" for j in range(1, 15)]
    counts.write_text("\n".join(body) + "\n")
    assert run(["fit", "--counts", str(counts)]) == 4


def test_fit_too_few_points(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("T,N\n10,1\n20,2\n40,3\n")
    assert run(["fit", "--counts", str(counts)]) == 3


def test_malformed_numbers_are_config_errors(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("T,N\n10,1,3\n")
    spheres = tmp_path / "spheres.csv"
    spheres.write_text("curvature,center,radius\n18,abc 0,0.05\n")
    pack = ["pack", "--catalog", "apollonian2", "--out", str(tmp_path / "s.csv")]
    for argv in (
        pack + ["--T", "abc"],
        pack + ["--T", "1/0"],
        pack + ["--seed", "-10,18,x,27", "--T", "100"],
        ["pack", "--catalog", "apollonian2", "--T", "20", "--box=-3,-1,3,zz"],
        ["surface", "--model", "baragar_p2p2", "--count", "--T", "100", "--C", "1,0,0,q"],
        ["fit", "--counts", str(counts)],
        ["render", "--spheres", str(spheres), "--out", str(tmp_path / "out.svg")],
    ):
        assert run(argv) == 2, argv
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, seed",
    [
        (["--catalog", "apollonian2"], "146,18,23,27"),
        # boyd's Gram as a custom weights-mode packing
        (["--gram-file", "boyd.json"], "11,2,4,3"),
    ],
    ids=["catalog", "gram-file"],
)
def test_pack_refuses_non_root_seed(tmp_path, capsys, monkeypatch, source, seed):
    # one swap from the root quadruple: the slack-1 default would undercount
    monkeypatch.chdir(tmp_path)
    gram = [[1, -1, 0, -1], [-1, 1, -1, 0], [0, -1, 1, -1], [-1, 0, -1, 1]]
    (tmp_path / "boyd.json").write_text(json.dumps({"gram": gram}))
    out = str(tmp_path / "s.csv")
    argv = ["pack", *source, "--seed", seed, "--T", "100", "--out", out]
    assert run(argv) == 3
    assert "slot 0" in capsys.readouterr().err


def test_lattice_discriminant(capsys):
    assert run(["lattice", "--name", "Ap2", "--discriminant"]) == 0
    out = capsys.readouterr().out
    assert "Z/2 + Z/2 + Z/4" in out and "order 16" in out
    assert run(["lattice", "--name", "U", "--discriminant"]) == 0
    assert "trivial" in capsys.readouterr().out


def test_lattice_basis(capsys):
    assert (
        run(
            [
                "lattice",
                "--name",
                "Ap2",
                "--basis",
                "1,1,-1,1;0,1,0,1;0,0,-1,1;0,0,0,-1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "[1, 0, 0, 0]" in out


def test_surface_count_needs_bound(capsys):
    for flag in ("--count", "--fit"):
        assert run(["surface", "--model", "baragar_p2p2", flag]) == 2
        assert "--T" in capsys.readouterr().err


def test_lattice_errors():
    assert run(["lattice", "--name", "Zork"]) == 2
    assert run(["lattice", "--gram", "1,1;1,1", "--discriminant"]) == 3


def test_surface_verify(capsys):
    assert run(["surface", "--model", "baragar_p2p2", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out


def test_surface_count_verifies_once(monkeypatch, capsys):
    calls = []
    verify = surfaces.verify_model
    monkeypatch.setattr(surfaces, "verify_model", lambda model: calls.append(model) or verify(model))
    assert run(["surface", "--model", "baragar_p2p2", "--count", "--T", "1000"]) == 0
    assert len(calls) == 1
    # the report prints before the count
    out = capsys.readouterr().out
    assert out.index("[pass]") < out.index("N_T =")


def test_surface_count_and_fit(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    code = run(
        [
            "surface",
            "--model",
            "baragar_p2p2",
            "--count",
            "--fit",
            "--T",
            "1000000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert "delta_hat" in printed
    assert out.read_text().startswith("T,N")
    # the written curve is the one the printed exponent was fitted to
    assert run(["fit", "--counts", str(out)]) == 0
    report, result = capsys.readouterr().out.strip().splitlines()
    assert report == printed
    est = estimate_surface_exponent(builtin_model("baragar_p2p2"), 10**6)
    assert json.loads(result)["points"] == est.points
    assert json.loads(result)["delta_hat"] == pytest.approx(est.delta_hat, rel=1e-9)


def test_surface_curve_needs_a_positive_degree(tmp_path, capsys):
    # the zero class is its whole orbit, and its degree is 0
    out = tmp_path / "counts.csv"
    argv = ["surface", "--model", "baragar_p2p2", "--count", "--C", "0,0,0", "--T", "10"]
    assert run(argv + ["--out", str(out)]) == 3
    assert "positive degree" in capsys.readouterr().err
    # --slack reaches the count, which refuses a slack below 1
    assert run(argv + ["--slack", "1/2"]) == 3
    assert "slack" in capsys.readouterr().err


def test_surface_fit_matches_library(capsys):
    assert run(["surface", "--model", "baragar_p2p2", "--count", "--fit", "--T", "1000000"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed == estimate_surface_exponent(builtin_model("baragar_p2p2"), 10**6).report()


def test_surface_triangle(capsys):
    code = run(
        ["surface", "--model", "triangle", "--a", "1", "--b", "1", "--c", "1", "--count", "--T", "100"]
    )
    assert code == 0
    assert "N_T" in capsys.readouterr().out


def test_surface_unknown_model():
    assert run(["surface", "--model", "nonsense"]) == 2


def test_render(tmp_path):
    spheres = tmp_path / "spheres.csv"
    run(["pack", "--catalog", "apollonian2", "--T", "200", "--out", str(spheres)])
    out = tmp_path / "out.svg"
    assert run(["render", "--spheres", str(spheres), "--out", str(out), "--labels"]) == 0
    assert "<circle" in out.read_text()


def test_render_refuses_non_planar_csv(tmp_path, capsys):
    spheres = tmp_path / "spheres.csv"
    assert run(["pack", "--catalog", "apollonian3", "--T", "10", "--out", str(spheres)]) == 0
    out = tmp_path / "out.svg"
    assert run(["render", "--spheres", str(spheres), "--out", str(out)]) == 2
    assert "needs 2 center coordinates" in capsys.readouterr().err
    assert not out.exists()


def test_dual(capsys):
    assert run(["dual", "--catalog", "boyd"]) == 0
    out = capsys.readouterr().out
    assert '"-2"' in out  # the divergent pair of the dual Gram
    assert run(["dual", "--gram", "1,0;0,1"]) == 3  # wrong signature


def test_pack_gram_file_with_seed(tmp_path):
    cfg = tmp_path / "boyd.json"
    cfg.write_text(
        json.dumps(
            {
                "gram": [
                    ["1", "-1", "0", "-1"],
                    ["-1", "1", "-1", "0"],
                    ["0", "-1", "1", "-1"],
                    ["-1", "0", "-1", "1"],
                ],
                "seed": ["-1", "2", "4", "3"],
            }
        )
    )
    out = tmp_path / "boyd.csv"
    assert run(["pack", "--gram-file", str(cfg), "--T", "100", "--out", str(out)]) == 0
    assert out.read_text().startswith("curvature")
