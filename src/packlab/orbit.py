"""Exact breadth-first enumeration of reflection-group orbits of sphere clusters.

Every generator is one wall reflection, written by ``exact.reflection`` as
the rank-one update s = I + a q^T over the working basis.  It acts from
the left on single sphere columns as its exact matrix
(``OrbitSystem.left_generators``; every packing run: a packing's spheres
are the orbits of the seed spheres), and from the right on clusters,
C -> C + (C a) q^T: on a cluster's concatenated columns that is the matrix
s^T (x) I, which ``iter_clusters`` walks to list group elements.  The
mode picks basis and walls:

* ``weights`` mode: clusters are tuples of (normalized) dual weights of a
  Coxeter polytope and wall i is column i of G, so q = e_i: reflection i
  changes one cluster member, to w_i - 2 sum_k g_ki w_k.  This is the
  Boyd-Maxwell packing action and, for the circulant tangent-cluster Gram
  matrix, reproduces the classical curvature swap k -> 2*(sum of the others) - k.
* ``mirrors`` mode: clusters are the polytope's own walls viewed as
  spheres (wall i is e_i), and generators reflect the whole cluster in one
  of them.  The degenerate one-dimensional tangent-triple packing lives here.

State is plain integers (``exact.tight``) wherever the data are integral:
a cluster is a square matrix of exact coordinates over the working basis,
and applying generator i is a right multiplication that leaves inner
products invariant, so Gram and Soddy identities hold exactly at every
node.  Curvatures are values of a linear functional fixed by the seed, so
deduplication is exact coordinate equality.

Exact geometry is one integer map, ``Cluster.sphere_row``: a seed's
realization is integer rows over one common denominator d and one
square-free s_i per Euclidean axis (``with_curvatures`` builds it by an
exact Gram-Schmidt unless the seed's rational geometry is given), and a
column's inversive coordinate i is r_i sqrt(s_i) / d, r = rows . col,
norm-checked in integers.  Nothing multiplies the roots of two axes: a
curvature is r_0 / d and center i is (r_i / r_0) sqrt(s_i).  Output
spheres read it; sphere vectors and box membership need every s_i = 1.

Both packing modes are the vector-orbit walk ``walk.bounded_walk``, which
surface counts also use: the seed spheres are its roots and are always
expanded, and its ``run`` keeps each walked sphere that is counted.  A
depth-limited run walks with a zero height row and bound 0, so it prunes
nothing and only max_depth stops it.  The walk finds s s = I for every
wall matrix itself, so a sphere is never reflected back in the wall that
made it, and the doubled-slack recheck continues the walk instead of
replaying it.  A weights-mode seed that some generator lowers is refused
(``_refuse_non_root``); one that passes is complete at slack 1 without a
box, the weights-mode default (mirrors mode: 4).  A budgeted run writes
a checkpoint holding its spheres, its frontier and what the frontier
depends on (mode, rank, seed curvatures, bound, slack and box); a resume
must match all of them, and the checkpoint's spheres start out seen
(``known``).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, islice
from operator import itemgetter, mul
from typing import Iterator, Optional, Sequence

from . import exact
from .coxeter import CoxeterPolytope
from .errors import (
    CheckpointError, DimensionError, NormalizationError, PackingError, PreconditionError
)
from .exact import Matrix, Vector, cleared, dot, mat, rat, tight, vec
from .inversive import EuclideanSphere, SphereVector, sphere_from_row, vector_from_sphere
from .walk import bounded_walk, compile_level, walk

Column = tuple  # exact coordinates, ints or Fractions (hash-compatible)


@dataclass(frozen=True)
class OrbitSystem:
    """Fixed data for one packing: polytope, action mode, generator tables."""

    polytope: CoxeterPolytope
    mode: str  # "weights" | "mirrors"

    @property
    def rank(self) -> int:
        return self.polytope.rank

    @property
    def basis_gram(self) -> Matrix:
        """Gram matrix of the working basis the columns are written in."""
        return self.polytope.gram_inv if self.mode == "weights" else self.polytope.gram

    @property
    def sphere_slots(self) -> tuple[int, ...]:
        return self.polytope.real_indices if self.mode == "weights" else tuple(range(self.rank))

    @cached_property
    def weight_norm(self) -> Fraction:
        """Common self-inner-product of the working basis vectors on sphere slots."""
        norms = {self.basis_gram[j][j] for j in self.sphere_slots}
        if len(norms) != 1:
            raise PackingError(
                "real weights have unequal norms; exact curvature bookkeeping "
                f"needs a common normalization (got {sorted(norms)})"
            )
        return norms.pop()

    @cached_property
    def normalized_gram(self) -> Matrix:
        """Gram of the normalized working basis (sphere vectors): basis_gram / norm."""
        return exact.mat_scale(self.basis_gram, 1 / self.weight_norm)

    @cached_property
    def soddy_gram(self) -> tuple:
        """Integer matrix W with k^T W k = 0 for every cluster curvature vector.

        Inverse of the normalized basis Gram, cleared to a primitive
        integer matrix.  In weights mode it is a positive multiple of the
        polytope Gram itself.
        """
        return cleared(exact.inverse(self.normalized_gram))[0]

    @cached_property
    def scaled_gram(self) -> tuple:
        """The normalized basis Gram as (int rows, denominator), so cluster
        Gram checks run on plain integers."""
        return cleared(self.normalized_gram)

    @cached_property
    def reflections(self) -> tuple[tuple[tuple, tuple], ...]:
        """Wall reflection i as the rank-one update I + a q^T, by ``exact.reflection``
        over the basis: wall i is column i of G in weights mode, so q = e_i,
        and e_i in mirrors mode."""
        walls = self.polytope.gram if self.mode == "weights" else exact.identity(self.rank)
        return tuple(exact.reflection(self.basis_gram, w) for w in walls)

    @cached_property
    def left_generators(self) -> tuple:
        """Wall reflection i as its ``tight`` matrix I + a q^T, acting on a
        single column from the left."""
        return tight(
            [[int(r == c) + x * y for c, y in enumerate(q)] for r, x in enumerate(a)]
            for a, q in self.reflections
        )


@dataclass(frozen=True)
class Cluster:
    """One orbit representative: exact column coordinates plus provenance."""

    system: OrbitSystem
    cols: tuple[Column, ...]
    curvature_seed: Optional[Column] = None
    # exact geometry: integer rows, one per inversive coordinate over the
    # basis, and their common denominator
    realization: Optional[tuple[tuple[Column, ...], int]] = None
    squares: tuple[int, ...] = ()  # axis i scaled by sqrt(s_i); () if all are rational

    @property
    def rank(self) -> int:
        return len(self.cols)

    def curvature_of(self, col: Column) -> Fraction:
        if self.curvature_seed is None:
            raise PreconditionError("cluster has no curvature data attached")
        return dot(self.curvature_seed, col)

    @property
    def curvatures(self) -> Vector:
        return tuple(self.curvature_of(c) for c in self.cols)

    def gram(self) -> Matrix:
        """Exact pairwise inner products of the normalized cluster columns.

        Computed over the integer-cleared basis Gram (one division per
        entry at the end), so integer orbits stay in integer arithmetic.
        """
        rows, d = self.system.scaled_gram
        prods = [tuple(dot(r, c) for r in rows) for c in self.cols]
        return mat([[Fraction(dot(ci, p), d) for p in prods] for ci in self.cols])

    def soddy_residual(self) -> Fraction:
        """k^T W k for the cluster curvature vector; zero on every orbit."""
        k = self.curvatures
        return dot(k, [dot(row, k) for row in self.system.soddy_gram])

    def sphere_row(self, col: Column) -> tuple:
        """The column's inversive coordinates as numerators r = rows . col,
        coordinate i being r_i sqrt(s_i) / d, norm-checked in integers:
        2 r_0 r_{n+1} + s_1 r_1^2 + ... + s_n r_n^2 = d^2."""
        if self.realization is None:
            raise PreconditionError("cluster has no exact realization attached")
        rows, d = self.realization
        r = tuple([sum(map(mul, row, col)) for row in rows])
        squared = [x * x for x in r[1:-1]]
        norm = 2 * r[0] * r[-1] + sum(map(mul, self.squares, squared) if self.squares else squared)
        if norm != d * d:
            raise NormalizationError(
                f"(v, v) = {Fraction(norm, d * d)} != 1: not a normalized sphere vector"
            )
        return r

    def sphere_vector(self, col: Column) -> SphereVector:
        """The column's exact inversive coordinates, sphere_row / d; refused
        when an axis is irrational."""
        if self.squares:
            raise PreconditionError(f"sphere vectors need rational geometry (axes {self.squares})")
        return SphereVector(tuple(Fraction(x, self.realization[1]) for x in self.sphere_row(col)))

    def euclidean_sphere(self, col: Column) -> EuclideanSphere:
        """The column's exact sphere or hyperplane, built from sphere_row."""
        return sphere_from_row(self.sphere_row(col), self.realization[1], self.squares)

    def euclidean_spheres(self) -> list[EuclideanSphere]:
        return [self.euclidean_sphere(self.cols[j]) for j in self.system.sphere_slots]


def initial_cluster(polytope: CoxeterPolytope, mode: str = "weights") -> Cluster:
    """Identity cluster: the polytope's real normalized weights (weights
    mode) or its own walls (mirrors mode)."""
    if mode not in ("weights", "mirrors"):
        raise PreconditionError(f"unknown orbit mode {mode!r}")
    system = OrbitSystem(polytope, mode)
    if mode == "weights" and not system.sphere_slots:
        raise PackingError("polytope has no real weights: empty initial cluster")
    if mode == "mirrors":
        g = polytope.gram
        bad = next(
            ((i, j) for i in range(len(g)) for j in range(i + 1, len(g)) if g[i][j] > -1),
            None,
        )
        if bad is not None:
            raise PackingError(
                f"walls {bad[0]}, {bad[1]} intersect (Gram entry {g[bad[0]][bad[1]]} > -1): "
                "the mirror cluster is not a packing"
            )
    system.weight_norm  # validates the common-normalization requirement
    cols = tuple(
        tuple(int(r == c) for r in range(system.rank)) for c in range(system.rank)
    )
    return Cluster(system=system, cols=cols)


def with_curvatures(cluster: Cluster, curvatures: Sequence) -> Cluster:
    """Attach the curvature functional given by a seed curvature vector,
    and the exact realization ``_gram_schmidt`` builds for it.

    The vector must satisfy the packing's Soddy identity k^T W k = 0
    exactly (for the circulant tangent-cluster data this is Descartes's
    equation); otherwise no Euclidean realization with these curvatures
    exists and a PackingError reports the residual.
    """
    k = tight(curvatures)
    if len(k) != cluster.rank:
        raise DimensionError(f"need {cluster.rank} curvatures, got {len(k)}")
    w = cluster.system.soddy_gram
    residual = exact.dot(vec(k), exact.mat_vec(w, vec(k)))
    if residual != 0:
        raise PackingError(
            f"curvature vector violates the Soddy identity: residual {residual}"
        )
    realization, squares = _gram_schmidt(cluster.system.normalized_gram, k)
    return replace(cluster, curvature_seed=k, realization=realization, squares=squares)


def _gram_schmidt(gram: Matrix, k: Column):
    """The exact realization ((integer rows, d), squares) of the normalized
    basis Gram W with seed curvatures k.  With ( , ) the pairing W defines:

    * u = W^-1 k is isotropic by the Soddy identity, and (u, c) = k . c is
      the curvature of a column c;
    * for the first slot j with k_j != 0, w = e_j / k_j - (W_jj / 2 k_j^2) u
      is isotropic with (u, w) = 1;
    * the f_i are an exact Gram-Schmidt basis of the basis vectors projected
      by x -> x - (x, w) u - (x, u) w, those of norm d_i <= 0 dropped.  The
      complement of span(u, w) is positive definite, so rank - 2 remain.

    Then W^-1 = u w^T + w u^T + sum f_i f_i^T / d_i, so the rows k,
    W f_i / sqrt(d_i), W w realize W (X^T J X = W) with the seed's
    curvatures, and seed sphere j sits at the origin.  Each f_i is scaled
    as found to norm 1 / s_i, s_i the square-free part of d_i, so row i
    is W f_i times sqrt(s_i).
    """
    j = next((i for i, x in enumerate(k) if x), None)
    if j is None:
        raise PreconditionError("a realization needs a nonzero seed curvature")

    def pair(x, y):
        return exact.dot(x, exact.mat_vec(gram, y))

    u = exact.mat_vec(exact.inverse(gram), k)
    h = gram[j][j] / (2 * k[j] ** 2)
    w = tuple(Fraction(int(i == j), k[j]) - h * x for i, x in enumerate(u))
    fs, squares = [], []
    for e in exact.identity(len(gram)):
        s, t = pair(e, w), pair(e, u)
        x = tuple(a - s * b - t * c for a, b, c in zip(e, u, w))
        for f, q in zip(fs, squares):
            r = pair(x, f) * q
            x = tuple(a - r * b for a, b in zip(x, f))
        d = pair(x, x)
        if d > 0:  # d = (m / d.denominator)^2 s
            m, s = _square_free(d.numerator * d.denominator)
            fs.append(tuple(a * Fraction(d.denominator, m * s) for a in x))
            squares.append(s)
    if len(fs) != len(gram) - 2:
        raise PreconditionError("cluster Gram is not of hyperbolic signature")
    rows = cleared([k, *(exact.mat_vec(gram, f) for f in fs), exact.mat_vec(gram, w)])
    return rows, tuple(squares) if any(s != 1 for s in squares) else ()


def _square_free(n: int) -> tuple[int, int]:
    """(m, s) with n = m^2 s > 0 and s square-free: trial division by p while
    p^3 <= what is left, whose rest then has at most two prime factors."""
    m, s, p = 1, 1, 2
    while p**3 <= n:
        while n % (p * p) == 0:
            n, m = n // (p * p), m * p
        if n % p == 0:
            n, s = n // p, s * p
        p += 1
    r = math.isqrt(n)
    return (m * r, s) if r * r == n else (m, s * n)


def with_realization(cluster: Cluster, spheres: Sequence[EuclideanSphere]) -> Cluster:
    """Attach exact rational Euclidean geometry for the seed cluster.

    ``spheres`` lists one oriented sphere per slot; their pairwise inner
    products must reproduce the normalized weight Gram exactly, otherwise
    the offending pair is reported.  Their curvatures become the seed's and
    satisfy the Soddy identity, since the Gram does.
    """
    slots = cluster.system.sphere_slots
    if len(spheres) != len(slots):
        raise DimensionError(f"need {len(slots)} seed spheres, got {len(spheres)}")
    if len(slots) != cluster.rank:
        raise PackingError("exact realizations need every weight real")
    vectors = [vector_from_sphere(s) for s in spheres]
    target = cluster.system.normalized_gram
    for a in range(len(vectors)):
        for b in range(a, len(vectors)):
            got = vectors[a].pair(vectors[b])
            want = target[slots[a]][slots[b]]
            if got != want:
                raise PackingError(
                    f"realization Gram mismatch at pair ({a}, {b}): "
                    f"inner product {got}, expected {want}"
                )
    k = tight(v.coords[0] for v in vectors)
    rows = cleared(exact.transpose([v.coords for v in vectors]))
    return replace(cluster, curvature_seed=k, realization=rows, squares=())


def seed_cluster_from_curvatures(
    polytope: CoxeterPolytope,
    curvatures: Sequence,
    realization: Optional[Sequence[EuclideanSphere]] = None,
    mode: str = "weights",
) -> Cluster:
    """Seed cluster from a curvature vector and optional exact rational
    geometry, which must have these curvatures; without it,
    ``with_curvatures`` realizes the seed."""
    c = initial_cluster(polytope, mode=mode)
    if realization is None:
        return with_curvatures(c, curvatures)
    r, k = with_realization(c, realization), tight(curvatures)
    if r.curvature_seed != k:
        raise PackingError(
            f"realization curvatures {tuple(map(str, r.curvature_seed))} do not "
            f"match the requested vector {tuple(map(str, k))}"
        )
    return r


def apply_generator(cluster: Cluster, i: int) -> Cluster:
    """Image of the cluster under wall reflection i."""
    system = cluster.system
    if not 0 <= i < system.rank:
        raise IndexError(f"generator index {i} out of range")
    return replace(cluster, cols=_apply(cluster.cols, *system.reflections[i]))


def _apply(cols, a, q):
    """C -> C (I + a q^T) = C + (C a) q^T: column j gains q_j times C a."""
    ca = [sum(map(mul, a, row)) for row in zip(*cols)]
    return tuple(
        tuple([x + c * y for x, y in zip(col, ca)]) if c else col for col, c in zip(cols, q)
    )


def iter_clusters(
    seed: Cluster,
    max_count: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> Iterator[Cluster]:
    """Breadth-first reduced-word walk over distinct clusters, seed first:
    ``compile_level`` walks the concatenated columns with a zero height row."""
    for name, cap in (("max_count", max_count), ("max_depth", max_depth)):
        if cap is not None and cap < 0:
            raise PreconditionError(f"{name} must be >= 0, got {cap}")
    n, size = seed.rank, seed.rank**2
    gens = [
        tight([[int(r == c) + q[r // n] * a[c // n] if r % n == c % n else 0 for c in range(size)]
               for r in range(size)])
        for a, q in seed.system.reflections
    ]
    expand = partial(compile_level(gens, (0,) * size), cut=0, far=0, near=[])
    levels = walk([(sum(seed.cols, ()), 0, -1)], expand, set(), max_depth=max_depth)
    clusters = (replace(seed, cols=tuple(zip(*[iter(v)] * n))) for lv in levels for v, _, _ in lv)
    return islice(chain([seed], clusters), max_count)


@dataclass(frozen=True)
class PackingOrbit:
    """Deduplicated sphere set of one enumeration run."""

    seed: Cluster
    spheres: tuple[Column, ...]  # sorted exact basis coordinates, one per sphere
    curvature_bound: Optional[Fraction]
    truncated: bool
    stats: dict = field(compare=False, default_factory=dict)

    @cached_property
    def curvatures(self) -> tuple:
        """Exact curvature of each stored sphere: an int where integral,
        computed on first access and kept while the orbit lives."""
        kseed = self.seed.curvature_seed
        if kseed is None:
            raise PreconditionError("cluster has no curvature data attached")
        return tuple([sum(map(mul, kseed, c)) for c in self.spheres])

    def positive_curvatures(self) -> list:
        """Curvature multiset of the bounded spheres (the counting data)."""
        out = [k for k in self.curvatures if k > 0]
        if self.curvature_bound is not None:
            top = tight(self.curvature_bound)
            out = [k for k in out if k <= top]
        return sorted(out)

    def count(self, bound=None) -> int:
        """Number of stored spheres with 0 < curvature <= bound.

        A bound above the run's own is refused: the run kept no sphere
        beyond it, so the count would fall short.
        """
        bound = self.curvature_bound if bound is None else rat(bound)
        if self.curvature_bound is not None and bound > self.curvature_bound:
            raise PreconditionError(
                f"bound {bound} exceeds the run's curvature bound {self.curvature_bound}"
            )
        if bound is None:
            return sum(1 for k in self.curvatures if k > 0)
        top = tight(bound)
        return sum(1 for k in self.curvatures if 0 < k <= top)

    def sphere_vectors(self) -> list[SphereVector]:
        return [self.seed.sphere_vector(c) for c in self.spheres]

    @cached_property
    def _euclidean(self) -> tuple[EuclideanSphere, ...]:
        return tuple(map(self.seed.euclidean_sphere, self.spheres))

    def euclidean_spheres(self) -> list[EuclideanSphere]:
        """The exact sphere or hyperplane of each stored column, in order.

        They are built once, on the first call, each through the integer
        norm check of ``Cluster.sphere_row``, and kept while the orbit
        lives; every call returns a new list over them.
        """
        return list(self._euclidean)


CERTIFY_PAIRS = 4000  # most pairs certify_integral samples


def enumerate_packing(
    seed: Cluster,
    bound=None,
    mode: str = "bounded",
    max_depth: Optional[int] = None,
    slack=None,
    threads: int = 1,
    convergence_check: bool = True,
    box=None,
    max_vectors: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    _resume=None,
) -> PackingOrbit:
    """Collect the distinct spheres of the packing generated by the seed.

    Both modes walk the orbits of the seed spheres, one sphere per node,
    and keep every seed member plus each walked sphere with
    0 < curvature <= bound (every walked sphere when there is no bound).
    In bounded mode the walk prunes a sphere whose height exceeds slack
    times the height bound; a recheck at doubled slack, continuing the
    walk from the spheres it pruned, marks the result truncated if it
    finds a sphere below the bound that the walk missed.  The height is
    |curvature|; with a box it is the curvature seen from p, the center of
    the first seed sphere of positive curvature, at most bound * D^2 for a
    sphere centred in the box (D: the farthest box corner from p).  A
    weights-mode seed must pass ``_refuse_non_root``, which makes the
    default slack 1 complete without a box; mirrors mode defaults to 4.
    In depth_limited mode every height is 0, so the walk prunes nothing
    and only max_depth, which the mode requires, stops it; a sphere's walk
    level is its shortest word length in the generators, so max_depth
    means the same in both modes.  A bound needs a seed with curvature
    data, and a box needs a bound; with one, a sphere
    (seed members of curvature > 0 included) is kept only when its exact
    center lies in the box.  Checkpoints (max_vectors) are for bounded
    runs.  threads is accepted for compatibility and changes nothing: the
    walk runs in one thread.
    """
    system = seed.system
    if mode not in ("bounded", "depth_limited"):
        raise PreconditionError(f"unknown enumeration mode {mode!r}")
    if mode == "depth_limited" and max_depth is None:
        raise PreconditionError("depth_limited enumeration needs max_depth")
    if max_depth is not None and max_depth < 0:
        raise PreconditionError(f"max_depth must be >= 0, got {max_depth}")
    if mode == "depth_limited" and (max_vectors is not None or _resume is not None):
        raise PreconditionError("checkpoints hold bounded sphere walks, not depth_limited runs")
    bound = None if bound is None else rat(bound)
    if bound is not None and bound <= 0:
        raise PreconditionError("bound must be positive")
    if bound is not None and seed.curvature_seed is None:
        raise PreconditionError("a curvature bound needs cluster curvature data")
    if mode == "bounded":
        if bound is None:
            raise PreconditionError("bounded enumeration needs a curvature bound")
        if system.polytope.level is None:
            raise PackingError("polytope is not of level <= 2: orbit is not a packing")
        if any(k == 0 for k in seed.curvatures) and box is None:
            raise PackingError(
                "seed contains curvature-zero spheres: the packing is unbounded and "
                "curvature counts are infinite without a counting box"
            )
        if system.mode == "weights":
            _refuse_non_root(seed)
    if slack is None:
        slack = 1 if system.mode == "weights" else 4
    if box is not None:
        if bound is None:
            raise PreconditionError("a counting box needs a curvature bound")
        if seed.squares:
            raise PackingError("box counting needs rational geometry")
        box = (tuple(map(rat, box[0])), tuple(map(rat, box[1])))
        if not len(box[0]) == len(box[1]) == system.polytope.n:
            raise PreconditionError(
                f"a counting box needs {system.polytope.n} coordinates per corner, "
                f"got {len(box[0])} and {len(box[1])}"
            )
    box_text = None if box is None else [[str(x) for x in corner] for corner in box]
    kseed = seed.curvature_seed
    seed_spheres = [seed.cols[j] for j in system.sphere_slots]
    top = None if bound is None else tight(bound)  # None: keep every sphere

    def in_box(col):
        return all(a <= x <= b for x, a, b in zip(seed.euclidean_sphere(col).center, *box))

    def counted(col):
        low = top is None or 0 < sum(map(mul, kseed, col)) <= top
        return low and (box is None or in_box(col))

    if mode == "depth_limited":
        row, limit = (0,) * system.rank, 0  # every height is 0: only max_depth stops the walk
    elif box is None:
        row, limit = kseed, bound
    else:
        seeds = seed.euclidean_spheres()
        p = next(c.center for c in seeds if c.kind == "sphere" and c.curvature > 0)
        # k|c - p|^2 - 1/k = a0|p|^2 - 2 a.p - 2 a_{n+1} is linear in the
        # inversive coordinates a: one integer row over the basis
        form = (sum(x * x for x in p),) + tuple(-2 * x for x in p) + (-2,)
        rows, d = seed.realization
        (row,), e = cleared([[dot(form, col) for col in zip(*rows)]])
        limit = bound * e * d * sum(max((a - x) ** 2, (b - x) ** 2) for x, a, b in zip(p, *box))
    meta = dict(mode=system.mode, rank=system.rank, seed=[str(k) for k in kseed or ()],
                bound=str(bound), slack=str(rat(slack)), box=box_text)
    # a resume starts at the checkpoint's frontier level, its spheres already seen
    stored, known, frontier, start = _resume or (meta, (), seed_spheres, 0)
    wrong = [k for k in meta if stored.get(k) != meta[k]]
    if wrong:
        raise PreconditionError(
            "checkpoint does not match this run: "
            + "; ".join(f"{k} {stored.get(k)} there, {meta[k]} here" for k in wrong)
        )

    def run(levels, seen) -> set:
        kept = set()
        for depth, level in enumerate(levels, start + 1):
            if mode == "bounded" and box is None and not all(map(itemgetter(1), level)):
                raise PackingError(
                    "orbit reached a curvature-zero sphere: the packing is "
                    "unbounded and curvature counts are infinite without a "
                    "counting box; use depth_limited mode or supply a box"
                )
            kept.update(filter(counted, map(itemgetter(0), level)))
            if max_vectors is not None and len(seen) > max_vectors:
                path = _write_checkpoint(checkpoint_dir, meta, seen, level, depth)
                raise CheckpointError(
                    f"sphere budget {max_vectors} exceeded; checkpoint at {path}", path
                )
        return kept

    spheres, stats, truncated = bounded_walk(
        frontier, system.left_generators, row, limit, slack, run,
        max_depth, convergence_check, depth=start, known=known,
    )
    spheres.update(filter(counted, known))  # a checkpoint's frontier is among them
    spheres.update(c for c in seed_spheres if box is None or dot(kseed, c) <= 0 or in_box(c))
    ordered = tuple(sorted(spheres))
    stats.update(mode=mode, threads=threads)
    if box is not None:
        stats["box"] = box_text
        stats["box_note"] = "counts restricted to sphere centers inside the box"
    return PackingOrbit(
        seed=seed, spheres=ordered, curvature_bound=bound, truncated=truncated, stats=stats
    )


def _refuse_non_root(seed: Cluster) -> None:
    """Refuse a weights-mode seed that some generator lowers (the wall check).

    Wall i moves only slot i, to curvature k_i + k.a_i (a_i: the wall's
    update vector).  If no k.a_i is negative, curvature never falls from a
    sphere's canonical parent s_i u to u (the numbers game: Humphreys,
    *Reflection Groups and Coxeter Groups*, 5.13), so every sphere under
    the bound has a chain of ancestors under it and slack 1 is complete
    without a box.  From any other seed the walk can undercount, even at a
    larger slack, without the recheck noticing.
    """
    k = seed.curvatures
    for i, (a, _) in enumerate(seed.system.reflections):
        lower = k[i] + dot(k, a)
        if lower < k[i]:
            raise PreconditionError(
                f"seed slot {i} (curvature {k[i]}) is not at a root: generator {i} lowers "
                f"it to {lower}; seed the root cluster"
            )


def certify_integral(orbit: PackingOrbit):
    """Check packing integrality: integer curvatures plus a common integer
    scale for pairwise inner products.

    Returns (integral, exponent, witness): exponent is the least positive
    integer lambda with lambda * (v_i, v_j) integral over at most
    CERTIFY_PAIRS evenly spaced pairs; when a curvature is non-integral,
    integral is False and the witness is that curvature.
    """
    for c in orbit.curvatures:
        if rat(c).denominator != 1:
            return False, None, c
    rows, d = orbit.seed.system.scaled_gram
    cols, lam, first = orbit.spheres, 1, 0
    n = len(cols)
    # every step-th pair (a, b), b >= a, in order, none listed: step is rounded
    # up, so at most CERTIFY_PAIRS pairs, and first counts the pairs before row a
    step = -(-(n * (n + 1) // 2) // CERTIFY_PAIRS) or 1
    for a in range(n):
        for b in range(a + -first % step, n, step):
            lam = math.lcm(lam, _pairing(cols[a], cols[b], rows, d).denominator)
        first += n - a
    return True, lam, None


def _pairing(x: Column, y: Column, rows, d) -> Fraction:
    """(x, y) over the normalized basis Gram, ``scaled_gram``'s rows / d."""
    return Fraction(sum(map(mul, x, [sum(map(mul, row, y)) for row in rows])), d)


CHECKPOINT_MAGIC = "PACKLAB-CHECKPOINT v2"  # v1 files held cluster frontiers


def _write_checkpoint(directory, meta: dict, spheres, frontier, depth) -> str:
    directory = directory or os.environ.get("PACKLAB_CHECKPOINT_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"packlab-checkpoint-{os.getpid()}-{time.time_ns()}.txt")
    tmp = path + ".part"  # renamed into place once complete, removed if the write fails
    try:
        with open(tmp, "w") as fh:
            fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(meta)}\nS {len(spheres)}\n")
            fh.writelines(" ".join(map(str, col)) + "\n" for col in sorted(spheres))
            fh.write(f"F {len(frontier)} {depth}\n")
            fh.writelines(" ".join(map(str, col)) + "\n" for col, _, _ in frontier)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_checkpoint(path: str):
    """Read a checkpoint back: (metadata, sphere columns, frontier (column, depth) pairs).

    The metadata records what the frontier depends on: mode, rank, seed
    curvatures, bound, slack and box.
    """
    with open(path) as fh:
        if fh.readline().strip() != CHECKPOINT_MAGIC:
            raise PreconditionError(f"not a {CHECKPOINT_MAGIC} file: {path}")
        try:
            meta = json.loads(fh.readline())
        except json.JSONDecodeError:
            meta = None
        if not isinstance(meta, dict):
            raise PreconditionError(f"corrupt checkpoint metadata: {path}")

        def line(tag, fields):
            parts = fh.readline().split()
            if len(parts) != fields + 1 or parts[0] != tag or not all(map(str.isdigit, parts[1:])):
                raise PreconditionError(f"truncated or corrupt checkpoint: {path}")
            return [int(x) for x in parts[1:]]

        def column():
            col = tight(fh.readline().split())
            if len(col) != meta.get("rank"):
                raise PreconditionError(f"truncated or corrupt checkpoint: {path}")
            return col

        spheres = [column() for _ in range(*line("S", 1))]
        size, depth = line("F", 2)
        return meta, spheres, [(column(), depth) for _ in range(size)]


def resume_enumeration(seed: Cluster, path: str, **kwargs) -> PackingOrbit:
    """Continue a bounded enumeration from the checkpoint of a budgeted run.

    The run must match the checkpoint's metadata (mode, rank, seed
    curvatures, bound, slack and box); a mismatch, or a file without
    them, is refused.  The checkpoint's spheres start out seen, so the
    walk does not revisit them.  The doubled-slack convergence recheck
    continues from the spheres pruned since the resume, so it validates
    the resumed portion only; branches pruned before the checkpoint was
    written are not revisited.
    """
    meta, spheres, frontier = load_checkpoint(path)
    depth = frontier[0][1] if frontier else 0  # the writer stores a single level
    resume = (meta, spheres, [col for col, _ in frontier], depth)
    return enumerate_packing(seed, _resume=resume, **kwargs)
