"""The unbounded band packing: two parallel lines and the circles between.

A packing containing curvature-zero members has infinitely many circles
below any curvature bound, so counting is restricted to a box; the
enumeration prunes on the curvature seen from a seed circle's center,
which is bounded for every circle centred in the box, and the
doubled-slack recheck guards the result.
"""

import packlab as pl

seed = pl.band_seed()
print("seed curvatures:", seed.curvatures)

box = ((-6, -1), (6, 3))
orbit = pl.enumerate_packing(seed, bound=50, box=box)
print(f"{orbit.count()} circles with curvature <= 50 centered in {box} "
      f"(truncated: {orbit.truncated})")
print("curvature multiset:", sorted(set(orbit.positive_curvatures())))

svg = pl.render_svg(orbit.euclidean_spheres(), viewport=(-6, -0.5, 12, 3), labels=True)
with open("band_packing.svg", "w") as fh:
    fh.write(svg)
print("wrote band_packing.svg")
