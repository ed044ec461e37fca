"""Quadratic spaces of Lorentzian signature and hyperbolic distance formulas.

All bilinear algebra is exact over the rationals.  The two distance
functions return floats; they are terminal outputs and are never fed back
into exact computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import DimensionError, NormalizationError, PreconditionError, SignatureError
from . import exact
from .exact import Matrix, mat, vec


@dataclass(frozen=True)
class QuadraticSpace:
    """A nondegenerate symmetric bilinear form given by its Gram matrix.

    Hyperbolic-geometry data uses signature (n+1, 1) (one negative
    eigenvalue); surface intersection lattices use (1, n).  The constructor
    only enforces symmetry and nondegeneracy.
    """

    gram: Matrix

    def __post_init__(self):
        g = mat(self.gram)
        object.__setattr__(self, "gram", g)
        if not exact.is_symmetric(g):
            raise PreconditionError("Gram matrix must be symmetric")
        if exact.det(g) == 0:
            raise SignatureError("Gram matrix is degenerate")

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def signature(self) -> tuple[int, int]:
        pos, neg, zero = exact.inertia(self.gram)
        return pos, neg

    def inner(self, v: Sequence, w: Sequence) -> Fraction:
        return inner(v, w, self)


def inner(v: Sequence, w: Sequence, space: QuadraticSpace) -> Fraction:
    """Exact value of the bilinear form: v^T . gram . w."""
    if len(v) != space.dim or len(w) != space.dim:
        raise DimensionError(
            f"vectors of length {len(v)}, {len(w)} in a space of dimension {space.dim}"
        )
    return exact.dot(vec(v), exact.mat_vec(space.gram, vec(w)))


def signature(space: QuadraticSpace) -> tuple[int, int]:
    """Exact inertia counts (positive, negative)."""
    return space.signature


def hyperbolic_distance(v: Sequence, w: Sequence, space: QuadraticSpace) -> float:
    """Distance between two points of the vector model: cosh d = -(v, w).

    Both vectors must satisfy (v, v) = -1 exactly and lie on the same
    sheet, i.e. -(v, w) >= 1.
    """
    v, w = vec(v), vec(w)
    for u in (v, w):
        if inner(u, u, space) != -1:
            raise NormalizationError("vector model points need (v, v) = -1 exactly")
    c = -inner(v, w, space)
    if c < 1:
        raise PreconditionError("-(v, w) < 1: points are not on one hyperboloid sheet")
    return math.acosh(float(c))


def hyperplane_distance(e: Sequence, e2: Sequence, space: QuadraticSpace) -> float:
    """Distance between divergent hyperplanes: cosh d = |(e, e')|.

    Normal vectors must have norm 1 exactly.  |(e, e')| < 1 means the
    hyperplanes intersect (dihedral angle case) and is rejected; the value
    1 means tangent hyperplanes at distance 0.
    """
    e, e2 = vec(e), vec(e2)
    for u in (e, e2):
        if inner(u, u, space) != 1:
            raise NormalizationError("hyperplane normals need (e, e) = 1 exactly")
    c = abs(inner(e, e2, space))
    if c < 1:
        raise PreconditionError(
            "|(e, e')| < 1: hyperplanes intersect, no distance is defined"
        )
    return math.acosh(float(c))


def sphere_space(n: int) -> QuadraticSpace:
    """The inversive-coordinate form for n-spheres: 2 t0 t_{n+1} + t1^2 + ... + tn^2."""
    return QuadraticSpace(sphere_form_gram(n))


def sphere_form_gram(n: int) -> Matrix:
    size = n + 2
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(1, n + 1):
        rows[i][i] = Fraction(1)
    rows[0][size - 1] = Fraction(1)
    rows[size - 1][0] = Fraction(1)
    return mat(rows)
