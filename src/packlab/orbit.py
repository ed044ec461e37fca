"""Exact breadth-first enumeration of reflection-group orbits of sphere clusters.

Two actions are supported.

* ``weights`` mode: clusters are tuples of (normalized) dual weights of a
  Coxeter polytope; wall reflection i changes exactly one cluster member,
  to w_i - 2 sum_k g_ki w_k.  This is the Boyd-Maxwell packing action and,
  for the circulant tangent-cluster Gram matrix, reproduces the classical
  curvature swap k -> 2*(sum of the others) - k.
* ``mirrors`` mode: clusters are the polytope's own walls viewed as
  spheres, and generators reflect the whole cluster in one of them.  The
  degenerate one-dimensional tangent-triple packing lives here.

State is a square matrix of exact coordinates over the working basis;
applying generator i is a right multiplication that leaves inner products
invariant, so Gram and Soddy identities hold exactly at every node.
Curvatures are values of a linear functional fixed by the seed; they stay
rational (usually integral) no matter how deep the orbit goes, so
deduplication is exact coordinate equality.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from . import exact
from .coxeter import CoxeterPolytope
from .errors import CheckpointError, DimensionError, PackingError, PreconditionError
from .exact import Matrix, Vector, cleared, dot, mat, rat, tight, vec
from .inversive import EuclideanSphere, SphereVector, sphere_from_vector, vector_from_sphere
from .walk import bounded_walk, walk

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
    def group_gram(self) -> Matrix:
        """Gram matrix of the generating reflections' normal vectors."""
        return self.polytope.gram

    @property
    def basis_gram(self) -> Matrix:
        """Gram matrix of the working basis the columns are written in."""
        return self.polytope.gram_inv if self.mode == "weights" else self.polytope.gram

    @property
    def sphere_slots(self) -> tuple[int, ...]:
        if self.mode == "weights":
            return self.polytope.real_indices
        return tuple(range(self.rank))

    @cached_property
    def weight_norm(self) -> Fraction:
        """Common self-inner-product of the working basis vectors on sphere slots."""
        if self.mode == "mirrors":
            return Fraction(1)
        norms = {self.polytope.gram_inv[j][j] for j in self.sphere_slots}
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
    def scaled_bases(self) -> dict:
        """Integer-cleared basis Grams {normalized: (int rows, denominator)}
        so cluster Gram checks run on plain integers."""
        return {True: cleared(self.normalized_gram), False: cleared(self.basis_gram)}

    @cached_property
    def tree_safe(self) -> bool:
        """True when reduced words biject with clusters (no finite dihedral
        relations): every off-diagonal entry of the group Gram is <= -1."""
        g = self.group_gram
        n = len(g)
        return all(g[i][j] <= -1 for i in range(n) for j in range(n) if i != j)

    @cached_property
    def generator_columns(self) -> tuple[tuple, ...]:
        """Per-generator update coefficients.

        weights mode: entry i is the vector a with
        new_col_i = sum_k a[k] * col_k, other columns unchanged.
        mirrors mode: entry i is the row (-2 g_ij)_j; generator i maps
        col_j -> col_j + row[j] * col_i for j != i and col_i -> -col_i.
        """
        g = self.polytope.gram
        idx = range(self.rank)
        if self.mode == "weights":
            return tight([[int(k == i) - 2 * g[k][i] for k in idx] for i in idx])
        return tight([[-2 * g[i][j] for j in idx] for i in idx])


@dataclass(frozen=True)
class Cluster:
    """One orbit representative: exact column coordinates plus provenance."""

    system: OrbitSystem
    cols: tuple[Column, ...]
    curvature_seed: Optional[Column] = None
    # exact geometry: integer rows, one per inversive coordinate over the
    # basis, and their common denominator
    realization: Optional[tuple[tuple[Column, ...], int]] = None

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

    def gram(self, normalized: bool = True) -> Matrix:
        """Exact pairwise inner products of the cluster columns.

        Computed over the integer-cleared basis Gram (one division per
        entry at the end), so integer orbits stay in integer arithmetic.
        """
        rows, d = self.system.scaled_bases[normalized]
        prods = [tuple(dot(r, c) for r in rows) for c in self.cols]
        return mat([[Fraction(dot(ci, p), d) for p in prods] for ci in self.cols])

    def soddy_residual(self) -> Fraction:
        """k^T W k for the cluster curvature vector; zero on every orbit."""
        k = self.curvatures
        return dot(k, [dot(row, k) for row in self.system.soddy_gram])

    def sphere_vector(self, col: Column) -> SphereVector:
        """The column's exact inversive coordinates (norm-checked)."""
        if self.realization is None:
            raise PreconditionError("cluster has no exact realization attached")
        rows, d = self.realization
        return SphereVector(tuple(Fraction(dot(row, col), d) for row in rows))

    def euclidean_spheres(self) -> list[EuclideanSphere]:
        return [
            sphere_from_vector(self.sphere_vector(self.cols[j]))
            for j in self.system.sphere_slots
        ]


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
    """Attach the curvature functional given by a seed curvature vector.

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
    return replace(cluster, curvature_seed=k)


def with_realization(cluster: Cluster, spheres: Sequence[EuclideanSphere]) -> Cluster:
    """Attach exact Euclidean geometry for the seed cluster.

    ``spheres`` lists one oriented sphere per slot; their pairwise inner
    products must reproduce the normalized weight Gram exactly, otherwise
    the offending pair is reported.
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
    out = with_curvatures(cluster, tuple(v.coords[0] for v in vectors))
    return replace(out, realization=cleared(exact.transpose([v.coords for v in vectors])))


def seed_cluster_from_curvatures(
    polytope: CoxeterPolytope,
    curvatures: Sequence,
    realization: Optional[Sequence[EuclideanSphere]] = None,
    mode: str = "weights",
) -> Cluster:
    """Seed cluster from a curvature vector and optional exact geometry."""
    c = initial_cluster(polytope, mode=mode)
    c = with_curvatures(c, curvatures)
    if realization is not None:
        r = with_realization(c, realization)
        if r.curvature_seed != c.curvature_seed:
            raise PackingError(
                f"realization curvatures {tuple(map(str, r.curvature_seed))} do not "
                f"match the requested vector {tuple(map(str, c.curvature_seed))}"
            )
        c = r
    return c


def apply_generator(cluster: Cluster, i: int) -> Cluster:
    """Image of the cluster under wall reflection i."""
    system = cluster.system
    if not 0 <= i < system.rank:
        raise IndexError(f"generator index {i} out of range")
    coeffs = system.generator_columns[i]
    new_cols = _apply(cluster.cols, i, coeffs, system.mode)
    return replace(cluster, cols=new_cols)


def _apply(cols, i, coeffs, mode):
    if mode == "weights":
        rank = len(cols)
        new_col = tuple(
            sum(coeffs[k] * cols[k][r] for k in range(rank)) for r in range(len(cols[0]))
        )
        return cols[:i] + (new_col,) + cols[i + 1 :]
    ci = cols[i]
    return tuple(
        tuple(-x for x in ci)
        if j == i
        else tuple(x + coeffs[j] * y for x, y in zip(cols[j], ci))
        for j in range(len(cols))
    )


def iter_clusters(
    seed: Cluster,
    max_count: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> Iterator[Cluster]:
    """Breadth-first reduced-word walk over distinct clusters, seed first."""
    rank = seed.system.rank

    def expand(level):
        children = [(apply_generator(c, i), i) for c, last in level for i in range(rank) if i != last]
        return children, 0

    key = None if seed.system.tree_safe else (lambda node: node[0].cols)
    roots = [(seed, -1)]
    levels = chain([roots], walk(roots, expand, key, max_depth=max_depth))
    yield from islice((cluster for level in levels for cluster, _ in level), max_count)


@dataclass(frozen=True)
class PackingOrbit:
    """Deduplicated sphere set of one enumeration run."""

    seed: Cluster
    spheres: tuple[Column, ...]  # sorted exact basis coordinates, one per sphere
    curvature_bound: Optional[Fraction]
    truncated: bool
    stats: dict = field(compare=False, default_factory=dict)

    @property
    def curvatures(self) -> tuple[Fraction, ...]:
        return tuple(self.seed.curvature_of(c) for c in self.spheres)

    def positive_curvatures(self) -> list[Fraction]:
        """Curvature multiset of the bounded spheres (the counting data)."""
        out = [k for k in self.curvatures if k > 0]
        if self.curvature_bound is not None:
            out = [k for k in out if k <= self.curvature_bound]
        return sorted(out)

    def count(self, bound=None) -> int:
        """Number of stored spheres with 0 < curvature <= bound."""
        bound = self.curvature_bound if bound is None else rat(bound)
        if bound is None:
            return sum(1 for k in self.curvatures if k > 0)
        return sum(1 for k in self.curvatures if 0 < k <= bound)

    def sphere_vectors(self) -> list[SphereVector]:
        return [self.seed.sphere_vector(c) for c in self.spheres]

    def euclidean_spheres(self) -> list[EuclideanSphere]:
        return [sphere_from_vector(v) for v in self.sphere_vectors()]


BOX_MARGIN = 4  # the pruning box is the counting box grown 4x (8x on the recheck)
CERTIFY_PAIRS = 4000  # most pairs certify_integral samples


def _grow_box(box, factor):
    lo, hi = box
    pads = [(b - a) * (factor - 1) / 2 for a, b in zip(lo, hi)]
    return (
        tuple(a - p for a, p in zip(lo, pads)),
        tuple(b + p for b, p in zip(hi, pads)),
    )


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

    bounded mode keeps spheres with 0 < curvature <= bound (plus every
    seed member regardless of sign) and prunes a branch as soon as the
    sphere it produced has curvature beyond slack * bound; a convergence
    rerun at doubled slack marks the result truncated if the two runs
    disagree below the bound.  depth_limited mode expands every reduced
    word up to max_depth, which it requires, and applies no pruning (bound
    optional there).  With a box, a sphere (seed members of curvature > 0
    included) is kept only when its exact center lies in the box.
    threads is accepted for compatibility: the walk runs in one thread,
    and the value changes neither the work done nor the output.
    """
    system = seed.system
    if mode not in ("bounded", "depth_limited"):
        raise PreconditionError(f"unknown enumeration mode {mode!r}")
    if mode == "depth_limited" and max_depth is None:
        raise PreconditionError("depth_limited enumeration needs max_depth")
    if mode == "bounded":
        if bound is None:
            raise PreconditionError("bounded enumeration needs a curvature bound")
        if seed.curvature_seed is None:
            raise PreconditionError("bounded enumeration needs cluster curvature data")
        if system.polytope.level is None:
            raise PackingError("polytope is not of level <= 2: orbit is not a packing")
        if any(k == 0 for k in seed.curvatures) and box is None:
            raise PackingError(
                "seed contains curvature-zero spheres: the packing is unbounded and "
                "curvature counts are infinite without a counting box"
            )
        if box is not None and seed.realization is None:
            raise PackingError("box counting needs a seed with exact geometry")
        if slack is None:
            slack = default_slack(system)
    bound = None if bound is None else rat(bound)
    if box is not None:
        box = (tuple(map(rat, box[0])), tuple(map(rat, box[1])))
        if not len(box[0]) == len(box[1]) == system.polytope.n:
            raise PreconditionError(
                f"a counting box needs {system.polytope.n} coordinates per corner, "
                f"got {len(box[0])} and {len(box[1])}"
            )
    gens = system.generator_columns
    slots = frozenset(system.sphere_slots)
    weights = system.mode == "weights"
    kseed = seed.curvature_seed
    seed_spheres = {seed.cols[j] for j in system.sphere_slots}
    # a resumed run starts from the checkpoint's spheres and frontier level
    resumed, roots, start = _resume or ((), [(seed.cols, -1)], 0)

    def in_box(col, region):
        """Whether the exact center of a positive-curvature sphere is in the region."""
        lo, hi = region
        center = sphere_from_vector(seed.sphere_vector(col)).center
        return all(a <= x <= b for x, a, b in zip(center, lo, hi))

    def fresh(cols, i):
        """Sphere columns that generator i just produced."""
        if weights:
            return (cols[i],) if i in slots else ()
        return cols

    def within(cols, i, limit, pruning_box):
        new = fresh(cols, i)
        if not new:
            return True
        curvs = [dot(kseed, col) for col in new]
        if pruning_box is None and 0 in curvs:
            raise PackingError(
                "orbit reached a curvature-zero sphere: the packing is "
                "unbounded and curvature counts are infinite without a "
                "counting box; use depth_limited mode or supply a box"
            )
        keep = (curvs[0] if weights else min(map(abs, curvs))) <= limit
        if keep and pruning_box is not None:
            keep = any(k <= 0 or in_box(col, pruning_box) for k, col in zip(curvs, new))
        return keep

    def expand(level, limit, factor):
        """Children of one level; the box margin grows with the slack factor."""
        pruning_box = None if box is None else _grow_box(box, BOX_MARGIN * factor)
        children, pruned = [], 0
        for cols, last in level:
            for i in range(system.rank):
                if i == last:
                    continue
                new_cols = _apply(cols, i, gens[i], system.mode)
                if limit is None or within(new_cols, i, limit, pruning_box):
                    children.append((new_cols, i))
                else:
                    pruned += 1
        return children, pruned

    def run(walk_pass, _limit) -> set:
        spheres = seed_spheres.union(resumed)
        key = None if system.tree_safe else itemgetter(0)
        for depth, level in enumerate(walk_pass(roots, expand, key, start), start + 1):
            for cols, last in level:
                spheres.update(fresh(cols, last))
            if max_vectors is not None and len(spheres) > max_vectors:
                path = _write_checkpoint(checkpoint_dir, system, spheres, level, depth)
                raise CheckpointError(
                    f"sphere budget {max_vectors} exceeded; checkpoint at {path}", path
                )
        return spheres

    def below_bound(sphere_set):
        kept = {c for c in sphere_set if 0 < dot(kseed, c) <= bound}
        if box is not None:
            kept = {c for c in kept if in_box(c, box)}
        return kept

    pruning_bound = bound if mode == "bounded" else None
    spheres, stats, truncated = bounded_walk(
        run, pruning_bound, slack, below_bound, max_depth, convergence_check
    )
    if bound is not None and kseed is not None:
        seeds_kept = {
            c for c in seed_spheres if box is None or dot(kseed, c) <= 0 or in_box(c, box)
        }
        spheres = below_bound(spheres) | seeds_kept
    ordered = tuple(sorted(spheres))
    stats["mode"] = mode
    stats["threads"] = threads
    if box is not None:
        stats["box"] = [[str(x) for x in box[0]], [str(x) for x in box[1]]]
        stats["box_note"] = "counts restricted to sphere centers inside the box"
    return PackingOrbit(
        seed=seed, spheres=ordered, curvature_bound=bound, truncated=truncated, stats=stats
    )


def default_slack(system: OrbitSystem) -> Fraction:
    """Pruning slack: 1 for circulant tangent-cluster Gram matrices, whose
    curvatures grow monotonically along reduced words from a bounded root
    (checked against exhaustive enumeration in the test suite), else 4."""
    g = system.group_gram
    n = len(g)
    values = {g[i][j] for i in range(n) for j in range(n) if i != j}
    if system.mode == "weights" and n >= 4 and values in ({Fraction(-1)}, {Fraction(-1, n - 3)}):
        return Fraction(1)
    return Fraction(4)


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
    base = orbit.seed.system.normalized_gram
    cols = orbit.spheres
    lam = 1
    if len(cols) == 1:
        pairs = [(0, 0)]
    else:
        pairs = [(a, b) for a in range(len(cols)) for b in range(a, len(cols))]
        if len(pairs) > CERTIFY_PAIRS:
            step = len(pairs) // CERTIFY_PAIRS
            pairs = pairs[::step]
    for a, b in pairs:
        p = exact.dot(vec(cols[a]), exact.mat_vec(base, vec(cols[b])))
        lam = lam * p.denominator // math.gcd(lam, p.denominator)
    return True, lam, None


CHECKPOINT_MAGIC = "PACKLAB-CHECKPOINT v1"


def _fmt_column(col) -> str:
    return f"{len(col)} " + " ".join(str(Fraction(x)) for x in col)


def _write_checkpoint(directory, system: OrbitSystem, spheres, frontier, depth) -> str:
    directory = directory or os.environ.get("PACKLAB_CHECKPOINT_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"packlab-checkpoint-{os.getpid()}-{time.time_ns()}.txt")
    meta = {"mode": system.mode, "rank": system.rank}
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        fh.write(json.dumps(meta) + "\n")
        fh.write(f"S {len(spheres)}\n")
        for col in sorted(spheres):
            fh.write(_fmt_column(col) + "\n")
        fh.write(f"F {len(frontier)}\n")
        for cols, last in frontier:
            flat = [x for col in cols for x in col]
            fh.write(f"{last} {depth} " + _fmt_column(flat) + "\n")
    return path


def load_checkpoint(path: str):
    """Read a checkpoint back: (metadata, sphere columns, frontier nodes)."""
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise PreconditionError(f"not a packlab checkpoint: {path}")
        meta = json.loads(fh.readline())
        rank = meta["rank"]
        nsph = int(fh.readline().split()[1])
        spheres = []
        for _ in range(nsph):
            parts = fh.readline().split()
            spheres.append(tight(parts[1 : 1 + int(parts[0])]))
        nfr = int(fh.readline().split()[1])
        frontier = []
        for _ in range(nfr):
            parts = fh.readline().split()
            last, depth, ln = int(parts[0]), int(parts[1]), int(parts[2])
            flat = tight(parts[3 : 3 + ln])
            cols = tuple(flat[i * rank : (i + 1) * rank] for i in range(ln // rank))
            frontier.append((cols, last, depth))
        return meta, spheres, frontier


def resume_enumeration(seed: Cluster, path: str, **kwargs) -> PackingOrbit:
    """Continue an enumeration from the checkpoint of a budgeted run.

    The doubled-slack convergence recheck replays from the checkpoint
    frontier, so it validates the resumed portion only; branches pruned
    before the checkpoint was written are not revisited.
    """
    meta, spheres, frontier = load_checkpoint(path)
    if meta["rank"] != seed.system.rank or meta["mode"] != seed.system.mode:
        raise PreconditionError("checkpoint does not match this cluster system")
    roots = [(cols, last) for cols, last, _ in frontier]
    depth = frontier[0][2] if frontier else 0  # the writer stores a single level
    return enumerate_packing(seed, _resume=(spheres, roots, depth), **kwargs)
