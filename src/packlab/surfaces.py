"""Orbit counting on surface intersection lattices.

A model is a hyperbolic lattice (one eigenvalue of minority sign), a
distinguished class H inside its positive cone, and integer matrices
generating a group of isometries.  N_T(H, C) counts orbit classes C' of C
with |(H, C')| <= T; for a geometrically finite non-elementary group this
grows like c T^delta with delta the Hausdorff dimension of the limit
set, so a log-log fit of the counting curve estimates delta.

Built-in models:

* ``baragar_p2p2``: the degree-(2,2) K3 surface in P^2 x P^2 with Picard
  basis (f, s, r); the two deck involutions and the elliptic negation
  generate the full automorphism group, whose exponent Baragar bounded to
  (0.6515, 0.6538).
* ``baragar_222``: the (2,2,2) hypersurface in (P^1)^3 with basis
  (f1, f2, f3, r); three deck involutions and a fibrewise negation;
  Baragar's experiments bound the exponent to (1.286, 1.306).
* ``triangle``: the reflection group of a hyperbolic triangle with Gram
  ((1,-a,-b),(-a,1,-c),(-b,-c,1)), rational a, b, c >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

from . import exact
from .errors import ConfigError, DimensionError, PreconditionError
from .exact import Matrix, Vector, identity, mat, mat_mul, rat, tight, vec
from .exponent import CountCurve, ExponentEstimate, counting_function, dyadic_grid, fit_exponent
from .lorentz import QuadraticSpace
from .walk import bounded_walk


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    space: QuadraticSpace
    basis_labels: tuple[str, ...]
    generators: tuple[Matrix, ...]
    generator_labels: tuple[str, ...]
    ample: Vector
    seed_class: Vector
    reflection_vectors: Optional[tuple[Vector, ...]] = None
    reflection_words: Optional[tuple[tuple[int, ...], ...]] = None
    alpha_gram_expected: Optional[Matrix] = None

    def __post_init__(self):
        n = self.rank
        if any(len(a) != n or any(len(r) != n for r in a) for a in self.generators):
            raise DimensionError(f"generators must be {n} x {n} matrices on a rank-{n} lattice")
        _class_of_rank(self.ample, n, "distinguished class H")
        _class_of_rank(self.seed_class, n, "seed class C")
        pos, neg = self.space.signature
        if min(pos, neg) != 1:
            raise PreconditionError(
                f"surface lattice must be hyperbolic (one minority eigenvalue), got {(pos, neg)}"
            )
        h2 = self.space.inner(self.ample, self.ample)
        if self.sign * h2 <= 0:
            raise PreconditionError(
                f"distinguished class H must lie in the positive cone: (H, H) = {h2}"
            )

    @property
    def rank(self) -> int:
        return self.space.dim

    @property
    def sign(self) -> int:
        """1 for signature (1, n), else -1: the positive cone is sign * (v, v) > 0."""
        return 1 if self.space.signature[0] == 1 else -1

    @cached_property
    def report(self) -> ModelReport:
        """verify_model(self), computed once per model."""
        return verify_model(self)

    def inner(self, v, w) -> Fraction:
        return self.space.inner(v, w)

    def degree(self, v) -> Fraction:
        """|(H, v)|: the counting functional."""
        return abs(self.space.inner(self.ample, v))

    def reflection_matrix(self, alpha) -> Matrix:
        """Column-acting matrix of v -> v - 2 (v, alpha)/(alpha, alpha) alpha."""
        return exact.reflection_matrix(self.space.gram, alpha)


def _class_of_rank(v, rank: int, label: str) -> Vector:
    v = vec(v)
    if len(v) != rank:
        raise DimensionError(f"{label} has {len(v)} coordinates; the lattice has rank {rank}")
    return v


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ModelReport:
    model: str
    convention: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"model {self.model}: generators act on {self.convention} vectors"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def _p2p2() -> SurfaceModel:
    gram = [[0, 1, 2], [1, -2, 3], [2, 3, -2]]
    a1 = [[-1, 0, 0], [3, 0, 1], [3, 1, 0]]
    a2 = [[1, 4, 0], [0, -1, 0], [0, 1, 1]]
    a3 = [[1, 0, 14], [0, 1, 4], [0, 0, -1]]
    alphas = ((-4, 13, 10), (4, -2, 1), (7, 2, -1))
    expected = exact.mat_scale(
        mat(
            [
                [1, Fraction(-13, 2), -10],
                [Fraction(-13, 2), 1, -1],
                [-10, -1, 1],
            ]
        ),
        -22,
    )
    return SurfaceModel(
        name="baragar_p2p2",
        space=QuadraticSpace(mat(gram)),
        basis_labels=("f", "s", "r"),
        generators=(mat(a1), mat(a2), mat(a3)),
        generator_labels=("deck1", "deck2", "negation"),
        ample=vec((1, 1, 1)),
        seed_class=vec((1, 0, 0)),
        reflection_vectors=tuple(vec(a) for a in alphas),
        reflection_words=((0, 1, 0), (1,), (2,)),
        alpha_gram_expected=expected,
    )


def _b222() -> SurfaceModel:
    gram = [[0, 2, 2, 0], [2, 0, 2, 0], [2, 2, 0, 1], [0, 0, 1, -2]]
    a12 = [[1, 0, 2, 0], [0, 1, 2, 0], [0, 0, -1, 0], [0, 0, -1, 1]]
    a13 = [[1, 2, 0, 1], [0, -1, 0, 0], [0, 2, 1, 0], [0, 0, 0, -1]]
    a23 = [[-1, 0, 0, 0], [2, 1, 0, 1], [2, 0, 1, 0], [0, 0, 0, -1]]
    a4 = [[-1, 0, 0, 0], [0, -1, 0, 0], [8, 8, 1, 0], [4, 4, 0, 1]]
    alphas = ((-2, -2, 2, 1), (-5, 2, -2, -1), (2, -5, -2, -1), (2, 2, -30, -15))
    expected = exact.mat_scale(
        mat(
            [
                [1, -1, -1, -15],
                [-1, 1, -6, -13],
                [-1, -6, 1, -13],
                [-15, -13, -13, 1],
            ]
        ),
        -14,
    )
    return SurfaceModel(
        name="baragar_222",
        space=QuadraticSpace(mat(gram)),
        basis_labels=("f1", "f2", "f3", "r"),
        generators=(mat(a12), mat(a13), mat(a23), mat(a4)),
        generator_labels=("deck12", "deck13", "deck23", "negation"),
        ample=vec((1, 1, 1, 1)),
        seed_class=vec((1, 0, 0, 0)),
        reflection_vectors=tuple(vec(a) for a in alphas),
        reflection_words=((0,), (1, 0, 1), (2, 0, 2), (3, 0, 3)),
        alpha_gram_expected=expected,
    )


def _triangle(a, b, c) -> SurfaceModel:
    a, b, c = rat(a), rat(b), rat(c)
    if min(a, b, c) < 1:
        raise ConfigError("triangle parameters must be >= 1")
    gram = mat([[1, -a, -b], [-a, 1, -c], [-b, -c, 1]])
    return SurfaceModel(
        name=f"triangle({a},{b},{c})",
        space=QuadraticSpace(gram),
        basis_labels=("e1", "e2", "e3"),
        generators=tuple(exact.reflection_matrix(gram, e) for e in exact.identity(3)),
        generator_labels=("s1", "s2", "s3"),
        ample=vec((1, 1, 1)),
        seed_class=vec((1, 0, 0)),
    )


def builtin_model(name: str, a=None, b=None, c=None) -> SurfaceModel:
    key = name.lower().replace("-", "_")
    if key == "baragar_p2p2":
        return _p2p2()
    if key == "baragar_222":
        return _b222()
    if key.startswith("triangle"):
        import re

        m = re.fullmatch(r"triangle\(([^,]+),([^,]+),([^)]+)\)", key.replace(" ", ""))
        if m:
            return _triangle(m.group(1), m.group(2), m.group(3))
        if key == "triangle":
            if a is None or b is None or c is None:
                raise ConfigError("triangle model needs parameters a, b, c")
            return _triangle(a, b, c)
    raise ConfigError(
        f"unknown surface model {name!r}; available: baragar_p2p2, baragar_222, "
        "triangle(a,b,c)"
    )


def model_from_config(cfg: dict) -> SurfaceModel:
    """Model from a JSON-style dict: gram, generators, H, C, and optionally
    alphas with their words, word i listing the generator indices whose
    product is the reflection in alpha i."""
    if not isinstance(cfg, dict):
        raise ConfigError("model config must be a JSON object")
    try:
        gram = mat(cfg["gram"])
        gens = tuple(mat(g) for g in cfg["generators"])
        ample = vec(cfg["H"])
        seed = vec(cfg["C"])
    except KeyError as e:
        raise ConfigError(f"model config is missing field {e}") from None
    alphas, words = cfg.get("alphas"), cfg.get("words")
    if len(alphas or ()) != len(words or ()):
        raise ConfigError("a model's alphas need one generator word each (the words field)")
    bad = [i for w in words or () for i in w if not (isinstance(i, int) and 0 <= i < len(gens))]
    if bad:
        raise ConfigError(f"word index {bad[0]!r} is not a generator index 0..{len(gens) - 1}")
    return SurfaceModel(
        name=cfg.get("name", "custom"),
        space=QuadraticSpace(gram),
        basis_labels=tuple(cfg.get("labels", [f"v{i}" for i in range(len(gram))])),
        generators=gens,
        generator_labels=tuple(cfg.get("generator_labels", [f"g{i}" for i in range(len(gens))])),
        ample=ample,
        seed_class=seed,
        reflection_vectors=tuple(vec(a) for a in alphas) if alphas else None,
        reflection_words=tuple(map(tuple, words)) if words else None,
    )


def verify_model(model: SurfaceModel) -> ModelReport:
    """Exactness report: Gram preservation per generator (trying both
    action conventions), reflection vectors against their matrices, and
    the Gram matrix of the reflection vectors against its expected value.
    """
    g = model.space.gram
    column = [exact.congruent(a, g) == g for a in model.generators]
    row_ok = not all(column) and all(
        exact.mat_mul(a, exact.mat_mul(g, exact.transpose(a))) == g for a in model.generators
    )
    convention = "column" if all(column) else ("row" if row_ok else "none")
    checks = [
        CheckResult(
            name=f"generator {label} preserves the intersection form",
            passed=ok or row_ok,
            detail="" if ok or row_ok else "A^T G A != G and A G A^T != G",
        )
        for label, ok in zip(model.generator_labels, column)
    ]
    if model.reflection_vectors and model.reflection_words:
        for alpha, word in zip(model.reflection_vectors, model.reflection_words):
            refl = model.reflection_matrix(alpha)
            prod = exact.identity(model.rank)
            for idx in word:
                prod = exact.mat_mul(prod, model.generators[idx])
            ok = refl == prod
            word_label = "*".join(model.generator_labels[i] for i in word)
            checks.append(
                CheckResult(
                    name=f"reflection in {tuple(map(str, alpha))} equals {word_label}",
                    passed=ok,
                    detail="" if ok else f"first mismatch {_first_mismatch(refl, prod)}",
                )
            )
    if model.reflection_vectors and model.alpha_gram_expected is not None:
        got = mat(
            [
                [model.inner(x, y) for y in model.reflection_vectors]
                for x in model.reflection_vectors
            ]
        )
        ok = got == model.alpha_gram_expected
        checks.append(
            CheckResult(
                name="reflection-vector Gram matrix matches its stated value",
                passed=ok,
                detail="" if ok else f"first mismatch {_first_mismatch(got, model.alpha_gram_expected)}",
            )
        )
    return ModelReport(model=model.name, convention=convention, checks=tuple(checks))


def _first_mismatch(a: Matrix, b: Matrix):
    for i in range(len(a)):
        for j in range(len(a[0])):
            if a[i][j] != b[i][j]:
                return (i, j, str(a[i][j]), str(b[i][j]))
    return None


@dataclass(frozen=True)
class OrbitCount:
    model: SurfaceModel
    seed_class: Vector
    bound: Fraction
    degrees: tuple  # sorted |(H, C')| over distinct orbit vectors with degree <= bound
    truncated: bool
    finite_orbit: bool
    stats: dict = field(compare=False, default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.degrees)

    def curve(self) -> CountCurve:
        """N(t) on the sqrt(2) grid from the least positive degree to the bound."""
        positive = [d for d in self.degrees if d > 0]
        if not positive:
            raise PreconditionError("no counted class has positive degree: no curve")
        return counting_function(
            self.degrees,
            dyadic_grid(float(min(positive)), float(self.bound), 2.0 ** 0.5),
            truncated=self.truncated,
        )

    def estimate_exponent(self, window_decades: float = 2.0) -> ExponentEstimate:
        """Log-log exponent fit of this counting curve.

        Refuses finite orbits (the group is elementary, where no power law
        exists); fit_exponent refuses truncated counts, whose curve carries
        the flag.
        """
        if self.finite_orbit:
            raise PreconditionError("finite orbit (elementary group): no counting exponent exists")
        return fit_exponent(self.curve(), window_decades=window_decades)


MAX_NODES = 10_000_000  # most orbit vectors one counting pass may reach


def orbit_count(
    model: SurfaceModel,
    bound,
    seed_class=None,
    ample=None,
    slack=4,
    threads: int = 1,
    convergence_check: bool = True,
) -> OrbitCount:
    """Count orbit classes C' of the seed class with |(H, C')| <= bound.

    Breadth-first over group words with exact dedup of image vectors; a
    branch is pruned once its degree exceeds slack * bound, and a recheck
    at doubled slack, continuing from the pruned classes, flags the count
    truncated if it finds a class within the bound that the walk missed.
    The generators go to the walk as ``tight`` matrices acting on columns
    (transposed for the row convention); a class made by one with A A = I,
    which the walk tests once per count, never tries it again.  A finite
    orbit (frontier exhausted with nothing pruned) is reported so callers
    can refuse exponent estimates for elementary groups.  threads is
    accepted for compatibility: the walk runs in one thread, and the value
    changes neither the work done nor the output.  Overrides of the seed
    class and of H must have the model's rank; an H outside the light cone
    (sign * (H, H) < 0, with the model's sign) is refused, and so is H = 0,
    whose degrees are all 0 and prune nothing.  A nonzero isotropic H is
    counted unless a parabolic element fixes it: when a generator or a
    product of two keeps every degree and is a nontrivial unipotent (see
    ``_degree_parabolics``), a counted class that it moves has infinitely
    many images of the same degree, and the infinite count is refused.
    """
    report = model.report
    if report.convention == "none":
        raise PreconditionError(
            "model generators do not preserve the intersection form; refusing to count"
        )
    bound = rat(bound)
    if bound <= 0:
        raise PreconditionError("bound must be positive")
    seed = _class_of_rank(
        model.seed_class if seed_class is None else seed_class, model.rank, "seed class C"
    )
    h = _class_of_rank(
        model.ample if ample is None else ample, model.rank, "distinguished class H"
    )
    h2 = model.inner(h, h)
    if model.sign * h2 < 0:
        raise PreconditionError(f"distinguished class H lies outside the light cone: (H, H) = {h2}")
    if not any(h):
        raise PreconditionError("distinguished class H is zero: every degree is 0")
    generators = model.generators
    if report.convention == "row":
        generators = [exact.transpose(a) for a in generators]
    generators = tight(generators)
    hrow = tight(exact.mat_vec(model.space.gram, h))
    seed_t = tight(seed)
    d0 = abs(sum(map(mul, hrow, seed_t)))
    top = tight(bound)
    parabolic = _degree_parabolics(generators, hrow, model.generator_labels)
    if parabolic and d0 <= top:
        _refuse_moved(parabolic, seed_t, d0)

    def run(levels, seen) -> dict:
        collected = {seed_t: d0} if d0 <= top else {}
        for level in levels:
            for w, deg, _ in level:
                if deg <= top:
                    collected[w] = deg
                    if parabolic:
                        _refuse_moved(parabolic, w, deg)
            if len(seen) > MAX_NODES:
                raise PreconditionError(
                    f"orbit search exceeded {MAX_NODES} nodes; lower the bound"
                )
        return collected

    collected, stats, truncated = bounded_walk(
        [seed_t], generators, hrow, bound, slack, run, check=convergence_check
    )
    stats["threads"] = threads
    return OrbitCount(
        model=model,
        seed_class=seed,
        bound=bound,
        degrees=tuple(sorted(collected.values())),
        truncated=truncated,
        finite_orbit=stats["pruned"] == 0,
        stats=stats,
    )


def _degree_parabolics(generators, hrow, labels) -> list:
    """(name, U) for each generator and each product of two generators U
    with hrow . U = hrow, U != I and (U - I)^rank = 0.  Such a U keeps every
    degree and has infinite order: U^n v = v + n (U - I) v + ... are
    distinct for every class v that U moves.  The test is exact and
    sufficient, not necessary, for an infinite count."""
    n = len(hrow)
    one = identity(n)
    names = [labels[i] if i < len(labels) else f"g{i}" for i in range(len(generators))]
    candidates = list(zip(names, generators)) + [
        (f"{names[i]}*{names[j]}", mat_mul(a, b))
        for i, a in enumerate(generators)
        for j, b in enumerate(generators)
    ]
    found = []
    for name, u in candidates:
        if u == one or tight(sum(map(mul, hrow, col)) for col in zip(*u)) != hrow:
            continue
        nil = tuple(tuple(x - int(i == j) for j, x in enumerate(r)) for i, r in enumerate(u))
        power = nil
        for _ in range(n - 1):
            power = mat_mul(power, nil)
        if not any(map(any, power)):
            found.append((name, u))
    return found


def _refuse_moved(parabolic, w, deg) -> None:
    """Refuse the count when some parabolic U of ``_degree_parabolics``
    moves the counted class w: its images U^n w all have degree deg."""
    for name, u in parabolic:
        if any(sum(map(mul, r, w)) != x for r, x in zip(u, w)):
            raise PreconditionError(
                f"class {w} of degree {deg} is moved by {name}, a unipotent element of "
                "infinite order that fixes H: infinitely many classes share this degree"
            )


def estimate_surface_exponent(
    model: SurfaceModel,
    bound,
    seed_class=None,
    ample=None,
    window_decades: float = 2.0,
    **orbit_kwargs,
) -> ExponentEstimate:
    """Log-log exponent fit of the orbit counting curve N_T(H, C); see
    OrbitCount.estimate_exponent for the refusals."""
    oc = orbit_count(model, bound, seed_class=seed_class, ample=ample, **orbit_kwargs)
    return oc.estimate_exponent(window_decades=window_decades)
