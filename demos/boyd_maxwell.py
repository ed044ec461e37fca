"""A packing with divergent walls: the four-wall polytope cir(1, -1, 0, -1).

Its dual weights are all real with Gram cir(1, -1, -2, -1) after
normalization: consecutive circles touch, opposite ones sit at inversive
distance 2.  The polytope is of level 2, so the weight orbit is a genuine
sphere packing; with the integer seed (-1, 2, 4, 3) it is an integral one.
No rational sphere-vector realization exists here (the Gram matrix is not
rationally congruent to the inversive form), yet the geometry is exact:
the second coordinate axis carries sqrt(3), so every center is a rational
x and a rational multiple of sqrt(3) for y.
"""

from packlab import (
    apply_generator,
    build_polytope,
    certify_integral,
    dual_polytope,
    enumerate_packing,
    maxwell_level,
    packing_seed,
)
from packlab.inversive import coordinate_text

gram = [[1, -1, 0, -1], [-1, 1, -1, 0], [0, -1, 1, -1], [-1, 0, -1, 1]]
p = build_polytope(gram)
print("weight norms g^jj:", [str(x) for x in p.weight_norms])
print("maxwell level:", maxwell_level(p.gram))
print("normalized weight Gram:")
for row in p.cluster_gram:
    print("  ", [str(x) for x in row])
print("dual polytope Gram:")
for row in dual_polytope(p).gram:
    print("  ", [str(x) for x in row])

seed = packing_seed("boyd")
print("\nseed curvatures:", seed.curvatures)
for i in range(4):
    print(f"  reflection {i} ->", apply_generator(seed, i).curvatures)

orbit = enumerate_packing(seed, bound=200)
print(f"\n{orbit.count()} circles with curvature <= 200 (truncated: {orbit.truncated})")
integral, exponent, _ = certify_integral(orbit)
print(f"integral: {integral}, exponent {exponent}")
print("smallest curvatures:", orbit.positive_curvatures()[:12])

print(f"\nexact seed geometry, axes scaled by the square roots of {seed.squares}:")
for s in seed.euclidean_spheres():
    center = ", ".join(coordinate_text(s.center, s.squares))
    print(f"   curvature {s.curvature}, center ({center}), radius {s.radius}")
