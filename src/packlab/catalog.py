"""Built-in polytopes and ready-to-run packing seeds.

The circulant Gram matrix cir(1, -1, ..., -1) of n+2 pairwise tangent
n-spheres defines the classical tangent-swap packings for n = 2, 3; the
four-wall matrix cir(1, -1, 0, -1) is Boyd's example of a packing with a
divergent wall pair; cir(1, -1, -1) is the ideal hyperbolic triangle whose
mirror orbit is the degenerate n = 1 packing.

Every catalog seed is ``seed_cluster_from_curvatures`` of one ``_CATALOG``
entry, so it is realized by the exact Gram-Schmidt of ``with_curvatures``,
as a custom Gram's seed is.  For the planar seed (-10, 18, 23, 27) that
realization is ``FIGURE_SEED_GEOMETRY`` exactly: the outer circle of
radius 1/10 about the origin and three inscribed circles with rational
centers.  Only ``band_seed`` keeps a given geometry.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import CoxeterPolytope, build_polytope
from .errors import ConfigError
from .exact import rat
from .inversive import EuclideanSphere
from .orbit import Cluster, seed_cluster_from_curvatures


def circulant(first_row) -> list[list[Fraction]]:
    row = [rat(x) for x in first_row]
    n = len(row)
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def apollonian_gram(n: int):
    """Gram matrix of the rank-(n+2) tangent-cluster polytope: unit diagonal,
    off-diagonal 1/(1-n).  A Coxeter polytope only for n = 2, 3."""
    if n < 2:
        raise ConfigError("tangent-cluster polytope needs n >= 2")
    return circulant([Fraction(1)] + [Fraction(1, 1 - n)] * (n + 1))


BOYD_GRAM = circulant([1, -1, 0, -1])
IDEAL_TRIANGLE_GRAM = circulant([1, -1, -1])

# Outer circle (0,0) radius 1/10 plus the three inscribed circles; each
# center is exact and every tangency is an exact inner product -1.  The
# Gram-Schmidt of ``with_curvatures`` gives exactly this figure.
FIGURE_SEED_CURVATURES = (-10, 18, 23, 27)
FIGURE_SEED_GEOMETRY = (
    EuclideanSphere(kind="sphere", curvature=Fraction(-10), center=(Fraction(0), Fraction(0))),
    EuclideanSphere(kind="sphere", curvature=Fraction(18), center=(Fraction(2, 45), Fraction(0))),
    EuclideanSphere(kind="sphere", curvature=Fraction(23), center=(Fraction(-6, 115), Fraction(1, 46))),
    EuclideanSphere(kind="sphere", curvature=Fraction(27), center=(Fraction(-4, 135), Fraction(-1, 18))),
)

# Two horizontal lines y = 0 (interior below) and y = 2 (interior above)
# with two unit circles between them: a band-shaped, unbounded packing.
BAND_SEED_CURVATURES = (0, 0, 1, 1)
BAND_SEED_GEOMETRY = (
    EuclideanSphere(kind="hyperplane", normal=(Fraction(0), Fraction(-1)), offset=Fraction(0)),
    EuclideanSphere(kind="hyperplane", normal=(Fraction(0), Fraction(1)), offset=Fraction(-2)),
    EuclideanSphere(kind="sphere", curvature=Fraction(1), center=(Fraction(0), Fraction(1))),
    EuclideanSphere(kind="sphere", curvature=Fraction(1), center=(Fraction(2), Fraction(1))),
)

# each name and alias -> (Gram, action mode, default seed curvatures)
_CATALOG = {
    name: entry
    for names, entry in (
        (("apollonian2", "apollonian:n=2"), (apollonian_gram(2), "weights", FIGURE_SEED_CURVATURES)),
        (("apollonian3", "apollonian:n=3"), (apollonian_gram(3), "weights", (-1, 2, 2, 3, 3))),
        (("boyd",), (BOYD_GRAM, "weights", (-1, 2, 4, 3))),
        (("ideal-triangle", "triangle"), (IDEAL_TRIANGLE_GRAM, "mirrors", (2, 2, -1))),
    )
    for name in names
}


def _entry(name: str):
    entry = _CATALOG.get(name.lower().replace("_", "-"))
    if entry is None:
        raise ConfigError(
            f"unknown catalog polytope {name!r}; available: apollonian2, apollonian3, "
            "boyd, ideal-triangle"
        )
    return entry


def polytope(name: str) -> CoxeterPolytope:
    return build_polytope(_entry(name)[0])


def packing_seed(name: str, curvatures=None) -> Cluster:
    """A ready cluster for a catalog name, optionally with custom curvatures.

    apollonian2 defaults to the (-10, 18, 23, 27) quadruple; apollonian3 to
    (-1, 2, 2, 3, 3); boyd to the bounded integer quadruple (-1, 2, 4, 3);
    ideal-triangle (mirror action) to (2, 2, -1).
    """
    gram, mode, default = _entry(name)
    curvatures = default if curvatures is None else curvatures
    return seed_cluster_from_curvatures(build_polytope(gram), curvatures, mode=mode)


def band_seed() -> Cluster:
    """The unbounded band packing: two parallel lines and two unit circles.
    Unlike the catalog seeds it keeps its given geometry,
    ``BAND_SEED_GEOMETRY``, the placement that box counts are written for."""
    return seed_cluster_from_curvatures(
        polytope("apollonian2"), BAND_SEED_CURVATURES, realization=BAND_SEED_GEOMETRY
    )
