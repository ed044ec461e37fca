"""Command-line interface.

Commands: pack (enumerate a packing to CSV/SVG), fit (exponent from a
counts CSV), lattice (discriminant/dual/even/basis reports), surface
(model verification, orbit counts, exponent), render (spheres CSV to
SVG), dual (dual polytope Gram).

Exit codes: 0 success, 2 configuration error, 3 mathematical
precondition failure, 4 truncation refusal.

All rationals on the command line and in JSON configs are exact strings
("-13/2"); CSV output keeps curvatures exact and renders centers/radii as
decimal floats only, each the correctly rounded int/int quotient of its
exact value.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, exponent, lattices, orbit, surfaces
from .coxeter import build_polytope, dual_polytope
from .errors import ConfigError, PacklabError, PreconditionError, TruncatedCurveError
from .exact import mat, rat, vec
from .inversive import EuclideanSphere, center_radius, render_svg
from .realize import approximate_spheres


def _parse_rationals(text: str):
    return [rat(x) for x in text.replace(";", ",").split(",") if x.strip()]


def _load_config(args):
    if getattr(args, "gram_file", None):
        with open(args.gram_file) as fh:
            cfg = json.load(fh)
        return cfg if isinstance(cfg, dict) else {"gram": cfg}
    return None


def _parse_gram(args):
    cfg = _load_config(args)
    if cfg is not None:
        return mat(cfg["gram"])
    if getattr(args, "gram", None):
        rows = [r for r in args.gram.split(";") if r.strip()]
        return mat([[rat(x) for x in row.split(",")] for row in rows])
    return None


def _seed_from_args(args) -> orbit.Cluster:
    curvatures = _parse_rationals(args.seed) if args.seed else None
    if args.catalog:
        if args.mode_action is not None:
            raise ConfigError("--mode-action is for custom Gram matrices; a catalog seed fixes it")
        return catalog.packing_seed(args.catalog, curvatures=curvatures)
    cfg = _load_config(args) or {}
    gram = _parse_gram(args)
    if gram is None:
        raise ConfigError("pack needs --catalog or --gram/--gram-file")
    p = build_polytope(gram)
    if curvatures is None and "seed" in cfg:
        curvatures = [rat(x) for x in cfg["seed"]]
    if curvatures is None:
        raise ConfigError("a custom Gram matrix needs seed curvatures (--seed or the config's seed field)")
    mode = args.mode_action or cfg.get("action", "weights")
    return orbit.seed_cluster_from_curvatures(p, curvatures, mode=mode)


def _spheres_csv(result: orbit.PackingOrbit) -> str:
    lines = ["curvature,center,radius"]
    seed = result.seed
    if seed.realization is not None:
        for s in result.euclidean_spheres():
            if s.kind == "hyperplane":
                normal = " ".join(str(x) for x in s.normal)
                lines.append(f"0,line normal ({normal}) offset {s.offset},inf")
            else:
                center, r = center_radius(s)
                c = " ".join(f"{x:.12g}" for x in center)
                lines.append(f"{s.curvature},{c},{r:.12g}")
    else:
        for rec, k in zip(
            approximate_spheres(seed, result.spheres), result.curvatures
        ):
            if rec["radius"] == float("inf"):
                lines.append(f"{k},approx line,inf")
            else:
                c = " ".join(f"{x:.12g}" for x in rec["center"])
                lines.append(f"{k},{c},{rec['radius']:.12g}")
    return "\n".join(lines) + "\n"


def cmd_pack(args) -> int:
    seed = _seed_from_args(args)
    if args.svg and seed.realization is None:
        raise PreconditionError("SVG output needs a seed with exact geometry")
    box = None
    if args.box:
        vals = _parse_rationals(args.box)
        half = len(vals) // 2
        box = (tuple(vals[:half]), tuple(vals[half:]))
    result = orbit.enumerate_packing(
        seed,
        bound=rat(args.T) if args.T else None,
        mode="depth_limited" if args.max_depth is not None and not args.T else args.mode,
        max_depth=args.max_depth,
        slack=rat(args.slack) if args.slack else None,
        threads=args.threads,
        box=box,
    )
    csv_text = _spheres_csv(result)
    out = args.out or "spheres.csv"
    with open(out, "w") as fh:
        fh.write(csv_text)
    print(f"{len(result.spheres)} spheres -> {out} (truncated: {result.truncated})")
    if args.counts:
        curve = exponent.curve_from_orbit(result)
        with open(args.counts, "w") as fh:
            fh.write(curve.to_csv())
        print(f"counting curve -> {args.counts}")
    if args.svg:
        doc = render_svg(result.euclidean_spheres(), labels=args.labels)
        with open(args.svg, "w") as fh:
            fh.write(doc)
        print(f"SVG -> {args.svg}")
    return 0


def cmd_fit(args) -> int:
    with open(args.counts) as fh:
        curve = exponent.CountCurve.from_csv(fh.read())
    est = exponent.fit_exponent(curve, window_decades=args.window_decades)
    print(est.report())
    print(
        json.dumps(
            {
                "delta_hat": est.delta_hat,
                "stderr": est.stderr,
                "r_squared": est.r_squared,
                "window": list(est.window),
                "points": est.points,
                "prefactor": est.prefactor,
            }
        )
    )
    return 0


def cmd_lattice(args) -> int:
    if args.name:
        lat = lattices.from_catalog(args.name)
    else:
        gram = _parse_gram(args)
        if gram is None:
            raise ConfigError("lattice needs --name or --gram/--gram-file")
        lat = lattices.QuadraticLattice(gram, label="custom")
    printed = False
    if args.discriminant:
        group = lattices.discriminant_group(lat)
        print(f"discriminant group: {group} (order {group.order}, exponent {group.exponent})")
        printed = True
    if args.dual:
        print("dual Gram:")
        _print_matrix(lattices.dual_gram(lat))
        printed = True
    if args.even:
        ev = lattices.even_sublattice(lat)
        print("even sublattice Gram:")
        _print_matrix(ev.gram)
        printed = True
    if args.basis:
        rows = [r for r in args.basis.split(";") if r.strip()]
        basis = mat([[rat(x) for x in row.split(",")] for row in rows])
        print("Gram in the given basis:")
        _print_matrix(lattices.gram_in_basis(lat, basis, sublattice=args.sublattice))
        printed = True
    if not printed:
        print(f"{lat!r}: det {lat.det}, integral {lat.is_integral}, even {lat.is_even}")
    return 0


def _print_matrix(m):
    for row in m:
        print("  [" + ", ".join(str(x) for x in row) + "]")


def _surface_model(args) -> surfaces.SurfaceModel:
    if args.model_file:
        with open(args.model_file) as fh:
            return surfaces.model_from_config(json.load(fh))
    if not args.model:
        raise ConfigError("surface needs --model or --model-file")
    return surfaces.builtin_model(args.model, a=args.a, b=args.b, c=args.c)


def cmd_surface(args) -> int:
    model = _surface_model(args)
    report = model.report
    print(report)
    if not report.all_passed:
        raise PreconditionError("model verification failed; not counting")
    if args.count or args.fit:
        if args.T is None:
            raise ConfigError("surface --count and --fit need a degree bound --T")
        seed = vec(_parse_rationals(args.C)) if args.C else None
        ample = vec(_parse_rationals(args.H)) if args.H else None
        # orbit_count holds the default slack
        kwargs = {"slack": rat(args.slack)} if args.slack else {}
        oc = surfaces.orbit_count(
            model, rat(args.T), seed_class=seed, ample=ample, threads=args.threads, **kwargs
        )
        print(
            f"N_T = {oc.count} classes with degree <= {oc.bound} "
            f"(truncated: {oc.truncated}, finite orbit: {oc.finite_orbit})"
        )
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(oc.curve().to_csv())
            print(f"counting curve -> {args.out}")
        if args.fit:
            print(oc.estimate_exponent(window_decades=args.window_decades).report())
    return 0


def cmd_render(args) -> int:
    spheres = []
    with open(args.spheres) as fh:
        header = fh.readline()
        if not header.lower().startswith("curvature"):
            raise ConfigError("spheres CSV must start with a curvature,center,radius header")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) < 3 or "line" in parts[1]:
                continue
            k = rat(parts[0])
            if k == 0:
                continue
            center = [rat(x).limit_denominator(10**12) for x in parts[1].split()]
            if len(center) != 2:
                raise ConfigError(f"render needs 2 center coordinates, got {parts[1]!r}")
            spheres.append(EuclideanSphere(kind="sphere", curvature=k, center=center))
    doc = render_svg(spheres, labels=args.labels)
    with open(args.out, "w") as fh:
        fh.write(doc)
    print(f"SVG -> {args.out}")
    return 0


def cmd_dual(args) -> int:
    if args.catalog:
        p = catalog.polytope(args.catalog)
    else:
        gram = _parse_gram(args)
        if gram is None:
            raise ConfigError("dual needs --catalog or --gram/--gram-file")
        p = build_polytope(gram)
    d = dual_polytope(p)
    print("dual polytope Gram:")
    _print_matrix(d.gram)
    print(json.dumps({"gram": [[str(x) for x in row] for row in d.gram]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="packlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="enumerate a sphere packing")
    pack.add_argument("--catalog", help="apollonian2 | apollonian3 | boyd | ideal-triangle")
    pack.add_argument("--gram", help="rows 'a,b;c,d' of an exact Gram matrix")
    pack.add_argument("--gram-file", help="JSON file with a gram field")
    pack.add_argument("--seed", help="comma-separated exact curvatures")
    pack.add_argument("--T", help="curvature bound")
    pack.add_argument("--mode", default="bounded", choices=["bounded", "depth_limited"])
    pack.add_argument(
        "--mode-action", choices=["weights", "mirrors"], help="custom Grams only (default weights)"
    )
    pack.add_argument("--max-depth", type=int)
    pack.add_argument("--slack", help="pruning slack >= 1")
    pack.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; orbits run in one thread"
    )
    pack.add_argument("--box", help="counting box lo...,hi... for unbounded packings")
    pack.add_argument("--out", help="spheres CSV path (default spheres.csv)")
    pack.add_argument("--counts", help="also write the counting curve CSV here")
    pack.add_argument("--svg", help="also render an SVG here")
    pack.add_argument("--labels", action="store_true", help="label integer curvatures")
    pack.set_defaults(func=cmd_pack)

    fit = sub.add_parser("fit", help="fit an exponent to a counts CSV")
    fit.add_argument("--counts", required=True, help="CSV with T,N header")
    fit.add_argument("--window-decades", type=float, default=2.0)
    fit.set_defaults(func=cmd_fit)

    lat = sub.add_parser("lattice", help="integral lattice reports")
    lat.add_argument("--name", help="catalog name, e.g. Ap2, U(2), A3v, E8")
    lat.add_argument("--gram", help="rows 'a,b;c,d'")
    lat.add_argument("--gram-file")
    lat.add_argument("--discriminant", action="store_true")
    lat.add_argument("--dual", action="store_true")
    lat.add_argument("--even", action="store_true")
    lat.add_argument("--basis", help="basis columns as rows 'a,b;c,d' of the matrix B")
    lat.add_argument("--sublattice", action="store_true", help="allow |det B| > 1")
    lat.set_defaults(func=cmd_lattice)

    surf = sub.add_parser("surface", help="surface model verification and counts")
    surf.add_argument("--model", help="baragar_p2p2 | baragar_222 | triangle")
    surf.add_argument("--model-file", help="JSON model config")
    surf.add_argument("--a")
    surf.add_argument("--b")
    surf.add_argument("--c")
    surf.add_argument("--verify", action="store_true", help="verification only (default)")
    surf.add_argument("--count", action="store_true")
    surf.add_argument("--fit", action="store_true")
    surf.add_argument("--T", help="degree bound for counting")
    surf.add_argument("--C", help="seed class coordinates")
    surf.add_argument("--H", help="distinguished class coordinates")
    surf.add_argument("--slack")
    surf.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; orbits run in one thread"
    )
    surf.add_argument("--window-decades", type=float, default=2.0)
    surf.add_argument("--out", help="counting curve CSV path")
    surf.set_defaults(func=cmd_surface)

    ren = sub.add_parser("render", help="spheres CSV to SVG")
    ren.add_argument("--spheres", required=True)
    ren.add_argument("--out", required=True)
    ren.add_argument("--labels", action="store_true")
    ren.set_defaults(func=cmd_render)

    dual = sub.add_parser("dual", help="dual polytope Gram matrix")
    dual.add_argument("--catalog")
    dual.add_argument("--gram")
    dual.add_argument("--gram-file")
    dual.set_defaults(func=cmd_dual)
    return ap


def _merge_negative_values(argv):
    """Let value options accept leading-minus values like ``--seed -10,18``."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and nxt.startswith("-")
            and len(nxt) > 1
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.func(args)
    except TruncatedCurveError as e:
        print(f"truncation refusal: {e}", file=sys.stderr)
        return 4
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError, KeyError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return 3
    except PacklabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
