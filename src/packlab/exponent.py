"""Counting functions N(T) and critical-exponent estimation.

For a packing enumerated to curvature bound T, N(t) counts the spheres of
curvature at most t.  The packing critical exponent delta (equivalently
the Hausdorff dimension of the limit set) governs N(t) ~ c t^delta, so a
least-squares slope of log N against log t over the top decades of a
converged counting curve estimates delta.  The fit runs on the standard
library (``statistics.linear_regression`` and ``math.fsum``) over the 8-14
grid points of a window.  The power-sum diagnostic brackets delta from the
defining series sum r(S)^s: decade contributions grow when s < delta and
shrink when s > delta.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, PreconditionError, TruncatedCurveError
from .exact import rat


@dataclass(frozen=True)
class CountCurve:
    """Sampled counting function: N(t) at strictly increasing thresholds."""

    ts: tuple[float, ...]
    ns: tuple[int, ...]
    truncated: bool = False

    def __post_init__(self):
        if len(self.ts) != len(self.ns):
            raise PreconditionError("grid and counts have different lengths")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise PreconditionError("grid must be strictly increasing")
        if any(b < a for a, b in zip(self.ns, self.ns[1:])):
            raise PreconditionError("counts must be nondecreasing")

    def to_csv(self) -> str:
        # truncation metadata travels with the curve so a later fit can refuse
        lines = ["# truncated"] if self.truncated else []
        lines += ["T,N"]
        lines += [f"{t:.10g},{n}" for t, n in zip(self.ts, self.ns)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "CountCurve":
        rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
        truncated = False
        while rows and rows[0].startswith("#"):
            if rows[0] == "# truncated":  # the marker to_csv writes
                truncated = True
            rows = rows[1:]
        if not rows or rows[0].replace(" ", "").upper() != "T,N":
            raise ConfigError("counts CSV must start with a 'T,N' header")
        ts, ns = [], []
        for ln in rows[1:]:
            try:
                a, b = ln.split(",")
                ts.append(float(a))
                ns.append(int(b))
            except ValueError:
                raise ConfigError(f"counts CSV row {ln!r} is not a T,N pair of numbers") from None
        return CountCurve(ts=tuple(ts), ns=tuple(ns), truncated=truncated)


@dataclass(frozen=True)
class ExponentEstimate:
    delta_hat: float
    stderr: float
    r_squared: float
    window: tuple[float, float]
    method: str = "loglog_fit"
    prefactor: float = float("nan")  # exp(intercept); no theoretical value claimed
    points: int = 0

    def report(self) -> str:
        lo, hi = self.window
        return (
            f"delta_hat = {self.delta_hat:.4f} +- {self.stderr:.4f} "
            f"(R^2 = {self.r_squared:.5f}, window [{lo:.4g}, {hi:.4g}], "
            f"{self.points} points, method {self.method})"
        )


def dyadic_grid(lo, hi, factor: float = 2.0) -> list[float]:
    """Geometric grid from lo to hi inclusive (uniform in log space)."""
    lo, hi = float(lo), float(hi)
    if lo <= 0 or hi < lo:
        raise PreconditionError("grid needs 0 < lo <= hi")
    if not factor > 1:
        raise PreconditionError(f"grid factor must be > 1, got {factor}")
    out = []
    t = lo
    while t < hi * (1 - 1e-12):
        out.append(t)
        t *= factor
    out.append(hi)
    return out


def counting_function(
    curvatures: Sequence, grid: Sequence[float], truncated: bool = False
) -> CountCurve:
    """N(t) = #{k in the multiset : k <= t} sampled on the given grid.

    Curvatures are numbers (ints, Fractions, floats) or exact strings."""
    ks = sorted(float(rat(k)) if isinstance(k, str) else float(k) for k in curvatures)
    ts = tuple(float(t) for t in grid)
    return CountCurve(ts=ts, ns=tuple(bisect.bisect_right(ks, t) for t in ts), truncated=truncated)


def curve_from_orbit(orbit) -> CountCurve:
    """Counting curve of an enumeration run (positive curvatures only), on
    the factor-2 grid from the least curvature to the bound."""
    ks = orbit.positive_curvatures()
    if not ks:
        raise PreconditionError("orbit has no bounded spheres to count")
    bound = orbit.curvature_bound
    return counting_function(
        ks,
        dyadic_grid(float(min(ks)), float(bound if bound is not None else max(ks))),
        truncated=orbit.truncated,
    )


MIN_FIT_POINTS = 8


def fit_exponent(curve: CountCurve, window_decades: float = 2.0) -> ExponentEstimate:
    """Least-squares slope of log N(t) versus log t.

    The window is the top ``window_decades`` decades of the grid and must
    hold at least MIN_FIT_POINTS points.  Truncated curves are refused,
    since missing spheres bias the slope; see TruncatedCurveError.
    """
    hi = float(curve.ts[-1])
    lo = hi / 10**window_decades
    if curve.truncated:
        raise TruncatedCurveError(
            f"counting curve is truncated; refusing to fit over [{lo:.4g}, {hi:.4g}]"
        )
    xs, ys = [], []
    for t, n in zip(curve.ts, curve.ns):
        if lo <= t <= hi and n >= 1:
            xs.append(math.log(t))
            ys.append(math.log(n))
    if len(xs) < MIN_FIT_POINTS:
        raise PreconditionError(
            f"only {len(xs)} usable points in window [{lo:.4g}, {hi:.4g}]; need {MIN_FIT_POINTS}"
        )
    m = len(xs)
    slope, intercept = statistics.linear_regression(xs, ys)
    xbar, ybar = math.fsum(xs) / m, math.fsum(ys) / m
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - ybar) ** 2 for y in ys)
    stderr = math.sqrt(ss_res / (m - 2) / sxx)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExponentEstimate(
        delta_hat=slope,
        stderr=stderr,
        r_squared=r2,
        window=(lo, hi),
        prefactor=math.exp(intercept),
        points=m,
    )


@dataclass(frozen=True)
class PowerSum:
    value: float
    s: float
    tail: str  # "growing" | "shrinking" | "flat"
    decade_sums: tuple[float, ...]

    def brackets_below(self) -> bool:
        """True when the tail grows, i.e. s sits below the critical exponent."""
        return self.tail == "growing"


def power_sum(values: Sequence, s: float, by: str = "curvature") -> PowerSum:
    """Partial sum of r^s over the enumerated spheres (r = 1/k for
    curvature input) with a tail trend over radius decades.

    Decades are anchored at the smallest radius, which a curvature-bounded
    enumeration fills completely (the largest-radius decade may be clipped
    by the seed and is never compared).  decade_sums[0] is the
    smallest-radius decade; the tail grows when it beats the next decade,
    flagging s below the critical exponent, and shrinks for s above it.
    """
    if s <= 0:
        raise PreconditionError("power_sum needs s > 0")
    if by not in ("curvature", "radius"):
        raise PreconditionError("by must be 'curvature' or 'radius'")
    radii = []
    for v in values:
        x = float(rat(v) if not isinstance(v, float) else v)
        if x <= 0:
            raise PreconditionError("power_sum needs positive curvatures/radii")
        radii.append(1.0 / x if by == "curvature" else x)
    if not radii:
        raise PreconditionError("power_sum needs at least one sphere")
    total = float(sum(r**s for r in radii))
    rmin = min(radii)
    sums: dict[int, float] = {}
    for r in radii:
        decade = int(math.floor(math.log10(r / rmin) + 1e-12))
        sums[decade] = sums.get(decade, 0.0) + r**s
    decs = tuple(sums.get(d, 0.0) for d in range(max(sums) + 1))
    if len(decs) < 2 or decs[1] == 0:
        tail = "flat"
    elif decs[0] > decs[1]:
        tail = "growing"
    elif decs[0] < decs[1]:
        tail = "shrinking"
    else:
        tail = "flat"
    return PowerSum(value=total, s=float(s), tail=tail, decade_sums=decs)
