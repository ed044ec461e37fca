"""Oriented spheres as norm-one vectors in inversive coordinates.

A normalized vector v = (a0, a1, ..., an, a_{n+1}) with
2 a0 a_{n+1} + a1^2 + ... + an^2 = 1 encodes the oriented n-sphere of
curvature a0, center (a1/a0, ..., an/a0) and radius 1/|a0|; a0 = 0 encodes
the oriented hyperplane a1 x1 + ... + an xn + a_{n+1} = 0.  Positive
curvature means the interior is the bounded open ball, negative the
exterior; for hyperplanes the interior is the side where the defining form
is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, NormalizationError, PreconditionError
from .exact import Vector, cleared, rat, sqrt_rational, vec
from .lorentz import QuadraticSpace, sphere_space

IDENTICAL = "identical"
TANGENT = "tangent"
DISJOINT = "disjoint_interiors"
INTERSECTING = "intersecting"
ORTHOGONAL = "orthogonal"
NESTED = "nested"


@dataclass(frozen=True)
class SphereVector:
    """An exact norm-one vector in the inversive-coordinate space."""

    coords: Vector

    def __post_init__(self):
        object.__setattr__(self, "coords", vec(self.coords))
        if len(self.coords) < 3:
            raise DimensionError("sphere vectors have length n + 2 >= 3")
        if self.norm() != 1:
            raise NormalizationError(
                f"(v, v) = {self.norm()} != 1: not a normalized sphere vector"
            )

    @property
    def n(self) -> int:
        return len(self.coords) - 2

    @property
    def curvature(self) -> Fraction:
        return self.coords[0]

    @property
    def space(self) -> QuadraticSpace:
        return sphere_space(self.n)

    def norm(self) -> Fraction:
        a = self.coords
        return 2 * a[0] * a[-1] + sum(x * x for x in a[1:-1])

    def pair(self, other: "SphereVector") -> Fraction:
        """Exact inner product of two sphere vectors."""
        if len(self.coords) != len(other.coords):
            raise DimensionError("sphere vectors of different dimension")
        a, b = self.coords, other.coords
        return a[0] * b[-1] + a[-1] * b[0] + sum(x * y for x, y in zip(a[1:-1], b[1:-1]))

    def negate(self) -> "SphereVector":
        return SphereVector(tuple(-x for x in self.coords))


@dataclass(frozen=True)
class EuclideanSphere:
    """Exact Euclidean data of an oriented sphere or hyperplane.

    Sphere case: nonzero curvature, center, radius = 1/|curvature|.
    Hyperplane case: curvature 0, nonzero normal and an offset; the pair
    (normal, offset) is stored unreduced, and ``same_locus`` compares the
    projectivized data.  Coordinate i of center or normal is the stored
    Fraction times sqrt(squares[i]); squares is () if every axis is rational.
    """

    kind: str  # "sphere" | "hyperplane"
    curvature: Fraction = Fraction(0)
    center: Vector = ()
    normal: Vector = ()
    offset: Fraction = Fraction(0)
    squares: tuple[int, ...] = ()

    def __post_init__(self):
        # fields that are already exact (Fractions, tuples of them) are kept as
        # they are: sphere_from_row builds every output sphere that way
        for name in ("curvature", "offset"):
            if type(getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, rat(getattr(self, name)))
        for name in ("center", "normal"):
            v = getattr(self, name)
            if type(v) is not tuple or any(type(x) is not Fraction for x in v):
                object.__setattr__(self, name, vec(v))
        if self.kind == "sphere":
            if self.curvature == 0:
                raise PreconditionError("a sphere needs nonzero curvature")
        elif self.kind == "hyperplane":
            if self.curvature != 0 or all(x == 0 for x in self.normal):
                raise PreconditionError("a hyperplane needs curvature 0 and a nonzero normal")
        else:
            raise PreconditionError(f"unknown kind {self.kind!r}")

    @property
    def n(self) -> int:
        return len(self.center) if self.kind == "sphere" else len(self.normal)

    @property
    def radius(self):
        if self.kind == "hyperplane":
            return math.inf
        return 1 / abs(self.curvature)

    @property
    def orientation(self) -> int:
        if self.kind == "sphere":
            return 1 if self.curvature > 0 else -1
        return 1

    def same_locus(self, other: "EuclideanSphere") -> bool:
        """Equality as unoriented loci (hyperplanes compared projectively)."""
        if self.kind != other.kind or self.squares != other.squares:
            return False
        if self.kind == "sphere":
            return self.center == other.center and abs(self.curvature) == abs(other.curvature)
        for i, x in enumerate(self.normal):
            if x != 0:
                t = other.normal[i] / x if i < len(other.normal) else None
                if not t:
                    return False
                return other.normal == tuple(t * y for y in self.normal) and other.offset == t * self.offset
        return False


def sphere_from_vector(v: SphereVector | Sequence) -> EuclideanSphere:
    """Euclidean sphere/hyperplane encoded by a normalized vector."""
    if not isinstance(v, SphereVector):
        v = SphereVector(vec(v))
    (r,), d = cleared([v.coords])
    return sphere_from_row(r, d)


def sphere_from_row(r: Sequence, d: int, squares: tuple = ()) -> EuclideanSphere:
    """Euclidean sphere/hyperplane of the norm-checked vector r / d, d > 0,
    whose coordinate i is scaled by sqrt(squares[i]): curvature r_0 / d and
    center r_i / r_0, or a hyperplane's normal r_i / d and offset
    r_{n+1} / d, all exact Fractions (the roots stay in ``squares``)."""
    if r[0] == 0:
        normal = tuple([Fraction(x, d) for x in r[1:-1]])
        offset = Fraction(r[-1], d)
        return EuclideanSphere("hyperplane", normal=normal, offset=offset, squares=squares)
    center = tuple([Fraction(x, r[0]) for x in r[1:-1]])
    return EuclideanSphere("sphere", curvature=Fraction(r[0], d), center=center, squares=squares)


def vector_from_sphere(s: EuclideanSphere) -> SphereVector:
    """Inverse of sphere_from_vector.

    For hyperplanes the stored normal is rescaled to unit norm, which is
    only possible exactly when its squared length is a rational square.
    A sphere with an irrational axis is refused.
    """
    if s.squares:
        raise NormalizationError(f"sphere has irrational axes {s.squares}: no rational vector")
    if s.kind == "sphere":
        k = s.curvature
        mid = tuple(k * c for c in s.center)
        last = (1 - sum(x * x for x in mid)) / (2 * k)
        return SphereVector((k,) + mid + (last,))
    norm2 = sum(x * x for x in s.normal)
    root = sqrt_rational(norm2)
    if root is None:
        raise NormalizationError(
            f"hyperplane normal has irrational length (|a|^2 = {norm2}); "
            "rescale it to a rational-length representative first"
        )
    return SphereVector((Fraction(0),) + tuple(x / root for x in s.normal) + (s.offset / root,))


def _floats(v: Vector, squares: tuple) -> list[float]:
    """Float coordinates: each Fraction as its correctly rounded int/int
    quotient, the same float as float(Fraction), times sqrt(squares[i])."""
    if not squares:
        return [x.numerator / x.denominator for x in v]
    return [x.numerator / x.denominator * math.sqrt(q) for x, q in zip(v, squares)]


def coordinate_text(v: Vector, squares: tuple) -> list[str]:
    """Exact text of each coordinate: the Fraction, or "q*sqrt(s)" where a
    nonzero q sits on an axis scaled by sqrt(s), s != 1."""
    roots = squares or (1,) * len(v)
    return [f"{x}*sqrt({q})" if x and q != 1 else str(x) for x, q in zip(v, roots)]


def center_radius(s: EuclideanSphere) -> tuple[list[float], float]:
    """Float center and radius of a sphere.  The radius is the correctly
    rounded k.denominator / |k.numerator|; so is each center coordinate on a
    rational axis, and an irrational one is that quotient times its root."""
    k = s.curvature
    return _floats(s.center, s.squares), k.denominator / abs(k.numerator)


def classify_pair(v: SphereVector, w: SphereVector) -> str:
    """Mutual position of two oriented spheres from their inner product.

    identical (v = w), tangent ((v,w) = -1, disjoint interiors touching at
    one point), disjoint_interiors ((v,w) < -1), orthogonal ((v,w) = 0),
    intersecting (0 < |(v,w)| < 1), nested ((v,w) >= 1 with v != w: one
    interior contains the other, internally tangent when equal to 1).
    """
    if not isinstance(v, SphereVector):
        v = SphereVector(vec(v))
    if not isinstance(w, SphereVector):
        w = SphereVector(vec(w))
    if v.coords == w.coords:
        return IDENTICAL
    t = v.pair(w)
    if t == -1:
        return TANGENT
    if t < -1:
        return DISJOINT
    if t == 0:
        return ORTHOGONAL
    if t >= 1:
        return NESTED
    return INTERSECTING


def _auto_viewport(spheres: list[EuclideanSphere]) -> tuple[float, float, float, float]:
    bounded = [s for s in spheres if s.kind == "sphere"]
    negative = [s for s in bounded if s.curvature.numerator < 0]
    if negative:
        (cx, cy), r = center_radius(min(negative, key=lambda s: s.curvature))
        pad = 0.02 * r
        return cx - r - pad, cy - r - pad, 2 * (r + pad), 2 * (r + pad)
    if bounded:
        boxes = [center_radius(s) for s in bounded]
        xs_lo = min(c[0] - r for c, r in boxes)
        xs_hi = max(c[0] + r for c, r in boxes)
        ys_lo = min(c[1] - r for c, r in boxes)
        ys_hi = max(c[1] + r for c, r in boxes)
        pad = 0.02 * max(xs_hi - xs_lo, ys_hi - ys_lo, 1e-9)
        return xs_lo - pad, ys_lo - pad, (xs_hi - xs_lo) + 2 * pad, (ys_hi - ys_lo) + 2 * pad
    return -1.0, -1.0, 2.0, 2.0


def render_svg(
    spheres: Sequence[EuclideanSphere],
    viewport: Optional[tuple] = None,
    labels: bool = False,
) -> str:
    """Render circles and lines (n = 2 only) as a stroke-only SVG document.

    viewport is (min_x, min_y, width, height) in model coordinates; by
    default it is the bounding box of the most negative-curvature circle if
    one is present, else of all centers +- radii.  Curvature labels are
    emitted only for integer curvatures, after every circle and line.
    Centers and radii are the floats of ``center_radius``.
    """
    spheres = list(spheres)
    for s in spheres:
        if s.n != 2:
            raise DimensionError("render_svg draws planar circle packings only (n = 2)")
    if viewport is None:
        vx, vy, vw, vh = _auto_viewport(spheres)
    else:
        vx, vy, vw, vh = (float(t) for t in viewport)
    stroke = max(vw, vh) / 1000.0
    # SVG y grows downward; flip about the horizontal axis.
    flip_y = -(vy + vh)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="{800 * vh / vw:.0f}" '
        f'viewBox="{vx:.6g} {flip_y:.6g} {vw:.6g} {vh:.6g}">',
        f'<g fill="none" stroke="black" stroke-width="{stroke:.6g}">',
    ]
    diag = math.hypot(vw, vh)
    texts = []
    for s in spheres:
        if s.kind == "sphere":
            (cx, cy), r = center_radius(s)
            parts.append(f'<circle cx="{cx:.9g}" cy="{-cy:.9g}" r="{r:.9g}"/>')
            if labels and s.curvature.denominator == 1:
                texts.append(
                    f'<text x="{cx:.9g}" y="{-cy:.9g}" font-size="{0.8 * r:.9g}" '
                    f'text-anchor="middle" dominant-baseline="middle" stroke="none" '
                    f'fill="black">{s.curvature.numerator}</text>'
                )
        else:
            a1, a2 = _floats(s.normal, s.squares)
            d = float(s.offset)
            norm2 = a1 * a1 + a2 * a2
            px, py = -d * a1 / norm2, -d * a2 / norm2  # foot of the perpendicular
            ux, uy = -a2 / math.sqrt(norm2), a1 / math.sqrt(norm2)
            x1, y1 = px - 2 * diag * ux, py - 2 * diag * uy
            x2, y2 = px + 2 * diag * ux, py + 2 * diag * uy
            parts.append(f'<line x1="{x1:.9g}" y1="{-y1:.9g}" x2="{x2:.9g}" y2="{-y2:.9g}"/>')
    parts += texts
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
