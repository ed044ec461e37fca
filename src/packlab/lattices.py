"""Integral quadratic lattices: duals, even sublattices, discriminant groups.

A lattice is stored as the exact Gram matrix of a basis.  Isomorphism
claims are only ever certified by an explicit basis change (gram_in_basis
/ verify_isometry) together with determinant, parity and discriminant
comparisons; no genus computation is attempted.

Catalog grammar (case sensitive): ``<k>`` rank-1, ``U`` hyperbolic plane,
``An`` root lattice, ``Anv`` its dual, ``E8``, ``Apn`` the rank-(n+2)
tangent-cluster lattice (unit diagonal, off-diagonal -1), ``Apn.ev`` its
even sublattice, ``Apn.perp`` the integralized dual ``rescale(dual,
dual_exponent)``, which is cir(n-1, -1, ..., -1);
any name may carry a rational scale suffix like ``U(2)`` or ``A3v(4)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exact
from .errors import ConfigError, PreconditionError
from .exact import Matrix, mat, rat


@dataclass(frozen=True)
class QuadraticLattice:
    gram: Matrix
    label: str = ""

    def __post_init__(self):
        g = mat(self.gram)
        object.__setattr__(self, "gram", g)
        if not exact.is_symmetric(g):
            raise PreconditionError("lattice Gram matrix must be symmetric")
        if exact.det(g) == 0:
            raise PreconditionError("lattice Gram matrix must be nondegenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def det(self) -> Fraction:
        return exact.det(self.gram)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.gram for x in row)

    @property
    def is_even(self) -> bool:
        return self.is_integral and all(
            self.gram[i][i].numerator % 2 == 0 for i in range(self.rank)
        )

    def __repr__(self):
        name = self.label or "lattice"
        return f"QuadraticLattice({name}, rank {self.rank}, det {self.det})"


def _require_integral(lat: QuadraticLattice, what: str) -> None:
    if not lat.is_integral:
        raise PreconditionError(f"{what} needs an integral lattice, got {lat!r}")


@dataclass(frozen=True)
class DiscriminantGroup:
    """Invariant factors d1 | d2 | ... (> 1) of L^dual / L."""

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        """Largest invariant factor = exponent of the abelian group."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " + ".join(f"Z/{d}" for d in self.invariant_factors)


def dual_gram(lat: QuadraticLattice) -> Matrix:
    """Gram matrix of the dual basis: the exact inverse Gram."""
    return exact.inverse(lat.gram)


def rescale(lat: QuadraticLattice, t) -> QuadraticLattice:
    """The same module with the form multiplied by t; inspect .is_integral."""
    t = rat(t)
    if t == 0:
        raise PreconditionError("rescale factor must be nonzero")
    label = f"{lat.label}({t})" if lat.label else ""
    return QuadraticLattice(exact.mat_scale(lat.gram, t), label=label)


def dual_exponent(lat: QuadraticLattice) -> int:
    """Least positive integer t with t * (dual Gram) integral.

    Equals the exponent of the discriminant group; multiplying the dual
    by it is the integralization L^perp = int(L^dual) = L^dual(t).
    """
    _require_integral(lat, "dual_exponent")
    return math.lcm(*(x.denominator for row in dual_gram(lat) for x in row))


def discriminant_group(lat: QuadraticLattice) -> DiscriminantGroup:
    """Invariant factors of the Gram matrix's Smith normal form."""
    _require_integral(lat, "discriminant_group")
    factors = exact.smith_invariant_factors(lat.gram)
    kept = tuple(d for d in factors if d > 1)
    order = 1
    for d in kept:
        order *= d
    if order != abs(lat.det):
        raise PreconditionError(
            f"invariant factor product {order} does not match |det| = {abs(lat.det)}"
        )
    return DiscriminantGroup(invariant_factors=kept)


def even_sublattice(lat: QuadraticLattice) -> QuadraticLattice:
    """The largest even sublattice (index 1 or 2).

    v -> (v, v) mod 2 is additive on an integral lattice, so the even
    vectors form the kernel of a map to Z/2: if some basis vector e_i has
    odd norm, a basis of the kernel is {2 e_i} + {e_j - e_i : norm odd}
    + {e_j : norm even}.
    """
    _require_integral(lat, "even_sublattice")
    n = lat.rank
    odd = [i for i in range(n) if lat.gram[i][i].numerator % 2 == 1]
    if not odd:
        return QuadraticLattice(lat.gram, label=f"{lat.label}^ev" if lat.label else "")
    i0 = odd[0]
    cols = []
    for j in range(n):
        col = [Fraction(0)] * n
        if j == i0:
            col[i0] = Fraction(2)
        elif j in odd:
            col[j] = Fraction(1)
            col[i0] = Fraction(-1)
        else:
            col[j] = Fraction(1)
        cols.append(col)
    basis = mat([[cols[j][i] for j in range(n)] for i in range(n)])  # columns = new basis
    g = gram_in_basis(lat, basis, sublattice=True)
    return QuadraticLattice(g, label=f"{lat.label}^ev" if lat.label else "")


def gram_in_basis(lat: QuadraticLattice, basis: Matrix, sublattice: bool = False) -> Matrix:
    """Gram matrix B^T . G . B of the column vectors of B.

    B must be integral; unless ``sublattice`` is set it must also be
    unimodular so that it is a basis of the same lattice.
    """
    b = mat(basis)
    if len(b) != lat.rank or any(len(r) != lat.rank for r in b):
        raise PreconditionError("basis matrix has the wrong shape")
    if any(x.denominator != 1 for row in b for x in row):
        raise PreconditionError("basis vectors must have integer coordinates")
    d = exact.det(b)
    if d == 0:
        raise PreconditionError("basis matrix is singular")
    if not sublattice and abs(d) != 1:
        raise PreconditionError(
            f"basis determinant {d} is not +-1; pass sublattice=True for finite-index sublattices"
        )
    return exact.congruent(b, lat.gram)


def verify_isometry(a: Matrix, g1: Matrix, g2: Matrix):
    """Check A^T . G1 . A == G2 exactly.

    Returns (True, None) or (False, (i, j, got, expected)) naming the
    first mismatched entry.
    """
    a, g1, g2 = mat(a), mat(g1), mat(g2)
    if len(a) != len(g1) or len(g1) != len(g2):
        raise PreconditionError("dimension mismatch in verify_isometry")
    miss = exact.first_mismatch(exact.congruent(a, g1), g2)
    return miss is None, miss


# ---------------------------------------------------------------- catalog

def _cartan_a(m: int) -> list[list[Fraction]]:
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        g[i][i] = Fraction(2)
        if i + 1 < m:
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    return g


_E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, -1],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 0, 0, 2],
]


def tangent_cluster_gram(n: int) -> list[list[Fraction]]:
    """Unit diagonal, off-diagonal -1: the Gram of n+2 pairwise tangent
    oriented n-spheres (rank n + 2)."""
    size = n + 2
    return [
        [Fraction(1) if i == j else Fraction(-1) for j in range(size)] for i in range(size)
    ]


def from_catalog(name: str) -> QuadraticLattice:
    """Look up a lattice by name; see the module docstring for the grammar."""
    m = re.fullmatch(r"(.+?)\(([-0-9/]+)\)", name.strip())
    scale = None
    base = name.strip()
    if m:
        base, scale = m.group(1), rat(m.group(2))
    lat = _catalog_base(base)
    if scale is not None:
        lat = rescale(lat, scale)
    return lat


def _catalog_base(base: str) -> QuadraticLattice:
    m = re.fullmatch(r"<(-?[0-9/]+)>", base)
    if m:
        return QuadraticLattice([[rat(m.group(1))]], label=base)
    if base == "U":
        return QuadraticLattice([[0, 1], [1, 0]], label="U")
    if base == "E8":
        return QuadraticLattice(_E8, label="E8")
    m = re.fullmatch(r"A(\d+)(v?)", base)
    if m:
        rank = int(m.group(1))
        if rank < 1:
            raise ConfigError("root lattice rank must be >= 1")
        g = _cartan_a(rank)
        if m.group(2):
            return QuadraticLattice(exact.inverse(mat(g)), label=base)
        return QuadraticLattice(g, label=base)
    m = re.fullmatch(r"Ap(\d+)(\.ev|\.perp)?", base)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= 6:
            raise ConfigError("tangent-cluster lattices are cataloged for n = 1..6")
        core = QuadraticLattice(tangent_cluster_gram(n), label=f"Ap{n}")
        if m.group(2) == ".ev":
            return even_sublattice(core)
        if m.group(2) == ".perp":
            perp = rescale(QuadraticLattice(dual_gram(core)), dual_exponent(core))
            return QuadraticLattice(perp.gram, label=f"Ap{n}.perp")
        return core
    raise ConfigError(f"unknown catalog lattice {base!r}")
