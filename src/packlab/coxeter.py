"""Coxeter polytopes from Gram matrices: dual weights, Maxwell level, reflections.

A rank-(n+2) polytope in hyperbolic (n+1)-space is described by the Gram
matrix G of its unit normal vectors: unit diagonal, signature (n+1, 1).
Off-diagonal entries are -cos(pi/m) for a dihedral angle pi/m, -1 for
parallel walls, and < -1 for divergent walls; the rational such values are
exactly 0, -1/2 and the ray below -1, and anything else is rejected so
that orbit enumeration stays exact.

The dual basis (weights) w_j is defined by (w_j, e_i) = delta_ij; its
coordinates in the normal basis are the columns of G^{-1}.  A weight is
real when its self-inner-product g^jj is positive; real normalized weights
are the sphere vectors of the polytope's packing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PackingError, PreconditionError, SignatureError
from . import exact
from .exact import Matrix, Vector, mat, sqrt_rational


def _validate_angles(g: Matrix) -> None:
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n):
            x = g[i][j]
            if x <= -1 or x == 0 or x == Fraction(-1, 2):
                continue
            raise PreconditionError(
                f"Gram entry {x} at ({i}, {j}) is not a dihedral-angle cosine: "
                "rational off-diagonal entries must be 0, -1/2, or <= -1"
            )


@dataclass(frozen=True)
class CoxeterPolytope:
    gram: Matrix

    def __post_init__(self):
        g = mat(self.gram)
        object.__setattr__(self, "gram", g)
        if not exact.is_symmetric(g):
            raise PreconditionError("Gram matrix must be symmetric")
        if any(g[i][i] != 1 for i in range(len(g))):
            raise PreconditionError("polytope normal vectors must have unit norm (diagonal 1)")
        _validate_angles(g)
        try:
            ginv = exact.inverse(g)
        except exact.SingularMatrixError:
            raise SignatureError("Gram matrix is singular") from None
        pos, neg, _ = exact.inertia(g)
        if neg != 1:
            raise SignatureError(
                f"polytope Gram matrix must have signature ({len(g) - 1}, 1), got ({pos}, {neg})"
            )
        object.__setattr__(self, "gram_inv", ginv)

    gram_inv: Matrix = None  # filled in __post_init__

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def n(self) -> int:
        """Sphere dimension of the associated packing (rank - 2)."""
        return self.rank - 2

    @property
    def weight_norms(self) -> Vector:
        """Self-inner-products g^jj of the dual weights."""
        return tuple(self.gram_inv[j][j] for j in range(self.rank))

    @property
    def real_flags(self) -> tuple[bool, ...]:
        return tuple(x > 0 for x in self.weight_norms)

    @property
    def real_indices(self) -> tuple[int, ...]:
        return tuple(j for j, f in enumerate(self.real_flags) if f)

    def weight(self, j: int) -> Vector:
        """Coordinates of the weight w_j in the normal basis."""
        return tuple(self.gram_inv[i][j] for i in range(self.rank))

    @cached_property
    def level(self):
        return maxwell_level(self.gram)

    @cached_property
    def cluster_gram(self) -> Matrix:
        """Gram matrix of the normalized real weights: g^ij / sqrt(g^ii g^jj).

        Kept exact: each sqrt(g^ii g^jj) must be rational, which holds for
        every polytope whose packing this library enumerates.
        """
        idx = self.real_indices
        if not idx:
            raise PackingError("polytope has no real weights")
        rows = []
        for i in idx:
            row = []
            for j in idx:
                root = sqrt_rational(self.gram_inv[i][i] * self.gram_inv[j][j])
                if root is None:
                    raise PackingError(
                        "normalized weight Gram is irrational "
                        f"(g^{i}{i} g^{j}{j} = {self.gram_inv[i][i] * self.gram_inv[j][j]} is not a square)"
                    )
                row.append(self.gram_inv[i][j] / root)
            rows.append(row)
        return mat(rows)


def build_polytope(gram) -> CoxeterPolytope:
    """Validate a Gram matrix and compute weights and reality flags."""
    return CoxeterPolytope(mat(gram))


def maxwell_level(gram):
    """Minimal l in {0, 1, 2} such that deleting any l vertices leaves a
    positive semidefinite Gram matrix; None when no l <= 2 works.

    PSD is decided exactly, by the inertia of each principal submatrix.
    """
    g = mat(gram)
    if not exact.is_symmetric(g):
        raise PreconditionError("Gram matrix must be symmetric")
    n = len(g)
    for level in range(3):
        ok = True
        for keep in itertools.combinations(range(n), n - level):
            sub = tuple(tuple(g[i][j] for j in keep) for i in keep)
            if not exact.is_positive_semidefinite(sub):
                ok = False
                break
        if ok:
            return level
    return None


def is_packing_polytope(gram) -> bool:
    """Whether the orbit of the real weights is a sphere packing (level <= 2)."""
    return maxwell_level(gram) is not None


def reflection_in_weight_basis(p: CoxeterPolytope, i: int) -> Matrix:
    """Matrix of the reflection in wall i acting on weight-basis coordinate
    columns.  Wall i is column i of G, so only the image of w_i changes, to
    w_i - 2 sum_k g_ki w_k.
    """
    if not 0 <= i < p.rank:
        raise IndexError(f"generator index {i} out of range")
    return exact.reflection_matrix(p.gram_inv, p.gram[i])


def reflection_in_normal_basis(p: CoxeterPolytope, i: int) -> Matrix:
    """Matrix of the reflection in the normalized weight w_i acting on the
    normal basis, images written in rows: row i holds the coordinates of
    the image e_i - (2 / g^ii) sum_k g^ki e_k, all other basis vectors are
    fixed.  This row-acting matrix R satisfies R . G . R^T = G.
    """
    if not 0 <= i < p.rank:
        raise IndexError(f"generator index {i} out of range")
    gii = p.gram_inv[i][i]
    if gii <= 0:
        raise PackingError(f"weight {i} is not real (g^{i}{i} = {gii} <= 0)")
    return exact.transpose(exact.reflection_matrix(p.gram, p.weight(i)))


def dual_polytope(p: CoxeterPolytope) -> CoxeterPolytope:
    """Polytope bounded by the normalized-weight hyperplanes.

    Defined when all weights are real and pairwise normalized inner
    products are <= -1 (walls parallel or divergent), i.e. when the dual
    packing exists.
    """
    if not all(p.real_flags):
        bad = [j for j, f in enumerate(p.real_flags) if not f]
        raise PackingError(f"weights {bad} are not real; no dual polytope")
    w = p.cluster_gram
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i][j] > -1:
                raise PackingError(
                    f"normalized weights {i}, {j} have inner product {w[i][j]} > -1: "
                    "not a packing dual"
                )
    return CoxeterPolytope(w)
