"""Float sphere coordinates for packings without an exact realization.

Some packings (``boyd``, ``apollonian3``, many custom Grams) have integer
curvatures but no rational sphere-vector realization: their geometry lives
in a real quadratic field.  It is still exact linear algebra on the
normalized basis Gram W and the seed curvatures k, with ( , ) the pairing
W defines:

* u = W^-1 k is isotropic by the Soddy identity, and (u, c) = k . c is the
  curvature of a column c;
* for the first slot j with k_j != 0, w = e_j / k_j - (W_jj / 2 k_j^2) u is
  isotropic with (u, w) = 1;
* the f_i are an exact Gram-Schmidt basis of the basis vectors projected by
  x -> x - (x, w) u - (x, u) w, zero vectors dropped.  The complement of
  span(u, w) is positive definite, so there are rank - 2 of them and every
  d_i = (f_i, f_i) > 0.

Then W^-1 = u w^T + w u^T + sum f_i f_i^T / d_i, so the rows k, W f_i /
sqrt(d_i), W w realize W in inversive coordinates (X^T J X = W) with the
seed's curvatures, and seed sphere j sits at the origin.  Only the square
roots and the final quotients are floats: output for rendering, never to
be fed back into exact code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import exact
from .errors import PreconditionError
from .orbit import Cluster


def gram_schmidt_rows(cluster: Cluster) -> tuple[tuple, tuple]:
    """The exact rows k, W f_1 .. W f_n, W w over the basis, and the norms
    d_1 .. d_n: dividing row i by sqrt(d_i) realizes the normalized Gram."""
    k = cluster.curvature_seed
    if k is None:
        raise PreconditionError("float realization needs cluster curvature data")
    j = next((i for i, x in enumerate(k) if x), None)
    if j is None:
        raise PreconditionError("float realization needs a nonzero seed curvature")
    gram = cluster.system.normalized_gram
    rank = len(gram)

    def pair(x, y):
        return exact.dot(x, exact.mat_vec(gram, y))

    u = exact.mat_vec(exact.inverse(gram), k)
    h = gram[j][j] / (2 * k[j] ** 2)
    w = tuple(Fraction(int(i == j), k[j]) - h * x for i, x in enumerate(u))
    fs, norms = [], []
    for e in exact.identity(rank):
        s, t = pair(e, w), pair(e, u)
        x = tuple(a - s * b - t * c for a, b, c in zip(e, u, w))
        for f, d in zip(fs, norms):
            r = pair(x, f) / d
            x = tuple(a - r * b for a, b in zip(x, f))
        d = pair(x, x)
        if d:
            fs.append(x)
            norms.append(d)
    if len(fs) != rank - 2 or any(d < 0 for d in norms):
        raise PreconditionError("cluster Gram is not of hyperbolic signature")
    rows = (k, *(exact.mat_vec(gram, f) for f in fs), exact.mat_vec(gram, w))
    return rows, tuple(norms)


def approximate_spheres(cluster: Cluster, columns) -> list[dict]:
    """Float curvature/center/radius records for abstract orbit columns.

    Curvature zero is tested exactly; such a column is a hyperplane, with
    radius inf and no center.
    """
    rows, norms = gram_schmidt_rows(cluster)
    (k, *middle), den = exact.cleared(rows[:-1])
    scales = [1 / math.sqrt(d) for d in norms]
    out = []
    for col in columns:
        r0 = sum(map(mul, k, col))
        if r0 == 0:
            out.append({"curvature": 0.0, "radius": math.inf})
        else:
            center = tuple(
                sum(map(mul, row, col)) / r0 * s + 0.0 for row, s in zip(middle, scales)
            )
            out.append(
                {"curvature": float(r0 / den), "center": center, "radius": float(den / abs(r0))}
            )
    return out
