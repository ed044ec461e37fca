"""Exact rational linear algebra on immutable matrices.

Matrices are tuples of tuples of ``fractions.Fraction``; vectors are tuples.
Everything here is exact: no float ever enters, so results can be compared
with ``==`` and used as dict/set keys.  Entries whose denominator is 1 are
still stored as Fractions (hash-compatible with int, so integer fast paths
elsewhere interoperate).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigError, PreconditionError

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(ValueError):
    pass


def rat(x) -> Fraction:
    """Coerce an int, string like '-13/2', float-free Fraction, or pair to Fraction.

    An unparsable string or a zero denominator raises ConfigError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    try:
        if isinstance(x, str):
            return Fraction(x.replace("−", "-").strip())
        if isinstance(x, tuple) and len(x) == 2:
            return Fraction(x[0], x[1])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{x!r} is not an exact rational") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def tight(x):
    """Exact value with integral entries as plain ints, for fast orbit arithmetic.

    A scalar (anything ``rat`` reads) becomes an int or a Fraction; a
    vector or matrix, as any nesting of iterables, becomes tuples of them.
    """
    if isinstance(x, (int, str, Fraction)):
        x = rat(x)
        return x.numerator if x.denominator == 1 else x
    return tuple(map(tight, x))


def vec(entries: Iterable) -> Vector:
    return tuple(rat(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else a


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(len(r) == n for r in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dot(v: Sequence, w: Sequence) -> Fraction:
    if len(v) != len(w):
        raise ValueError("length mismatch in dot")
    return sum(x * y for x, y in zip(v, w))


def reflection(gram: Matrix, alpha) -> tuple[tuple, tuple]:
    """The reflection v -> v - 2 (v, alpha)/(alpha, alpha) alpha over ``gram``.

    Returned as the rank-one update s = I + a q^T, so s(v) = v + a (q . v):
    q is gram . alpha scaled by some t > 0 to a primitive integer vector and
    a = -2 alpha / (t (alpha, alpha)), both ``tight``, so an integral
    reflection has integral a and q.  A zero-norm alpha is refused.
    """
    alpha = vec(alpha)
    q = mat_vec(gram, alpha)
    norm = dot(alpha, q)
    if norm == 0:
        raise PreconditionError("reflection vector has zero norm")
    d = denominator_lcm(q)
    t = Fraction(d, math.gcd(*(int(x * d) for x in q)))
    return tight(-2 * x / (t * norm) for x in alpha), tight(t * x for x in q)


def reflection_matrix(gram: Matrix, alpha) -> Matrix:
    """The matrix I + a q^T of ``reflection``; its columns are the images of the basis."""
    a, q = reflection(gram, alpha)
    return mat([[int(r == c) + x * y for c, y in enumerate(q)] for r, x in enumerate(a)])


def mat_scale(a: Matrix, t) -> Matrix:
    t = rat(t)
    return tuple(tuple(t * x for x in row) for row in a)


def congruent(b: Matrix, g: Matrix) -> Matrix:
    """Return transpose(b) . g . b."""
    return mat_mul(transpose(b), mat_mul(g, b))


def _gauss_jordan(a: Matrix) -> tuple[Fraction, Matrix | None]:
    """Gauss-Jordan on [a | I] with the first nonzero pivot of each column:
    (det a as the signed pivot product, the inverse), or (0, None) if singular."""
    n = len(a)
    m = [[rat(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        p = m[k][k]
        d *= p
        m[k] = [x / p for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return d, tuple(tuple(row[n:]) for row in m)


def det(a: Matrix) -> Fraction:
    """Determinant, exact, by the Gauss-Jordan pass of ``inverse``."""
    return _gauss_jordan(a)[0]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises SingularMatrixError."""
    inv = _gauss_jordan(a)[1]
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return inv


def inertia(a: Matrix) -> tuple[int, int, int]:
    """Exact inertia (pos, neg, zero) of a symmetric matrix.

    Symmetric Gaussian reduction: at each step take the first nonzero
    diagonal pivot in row order; if the remaining diagonal is all zero but
    some off-diagonal entry g_ij is not, add row/column j to row/column i,
    which creates the diagonal entry 2*g_ij.  Only signs of exact pivots
    are inspected, never floats.
    """
    n = len(a)
    if not is_symmetric(a):
        raise ValueError("inertia requires a symmetric matrix")
    m = [[rat(x) for x in row] for row in a]
    pos = neg = zero = 0
    active = list(range(n))
    while active:
        k = next((i for i in active if m[i][i] != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in active for j in active if i != j and m[i][j] != 0),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            k = i
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for r in active:
            if m[r][k] != 0:
                f = m[r][k] / p
                for c in active:
                    m[r][c] -= f * m[k][c]
                m[r][k] = Fraction(0)
        for c in active:
            m[k][c] = Fraction(0)
    return pos, neg, zero


def is_positive_semidefinite(a: Matrix) -> bool:
    """Exact PSD test for a symmetric matrix: no negative inertia (Sylvester's law)."""
    return inertia(a)[1] == 0


def denominator_lcm(entries: Iterable[Fraction]) -> int:
    d = 1
    for x in entries:
        d = d * x.denominator // math.gcd(d, x.denominator)
    return d


def cleared(a: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows and the least common denominator d with a = rows / d."""
    d = denominator_lcm(x for row in a for x in row)
    return tuple(tuple(int(x * d) for x in row) for row in a), d


def sqrt_rational(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def smith_invariant_factors(a: Matrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix (Smith normal form).

    Classic pivot-and-reduce over Z with arbitrary precision ints.  Entries
    must be integral Fractions or ints.  Zero factors (rank deficiency) are
    returned as trailing zeros.
    """
    n = len(a)
    if n == 0:
        return ()
    m_cols = len(a[0])
    m = []
    for row in a:
        r = []
        for x in row:
            x = rat(x)
            if x.denominator != 1:
                raise ValueError("Smith normal form needs an integer matrix")
            r.append(x.numerator)
        m.append(r)

    factors = []
    top = 0
    while top < min(n, m_cols):
        # locate minimal-absolute-value nonzero entry in the remaining block
        best = None
        for i in range(top, n):
            for j in range(top, m_cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        p = m[top][top]
        for i in range(top + 1, n):
            q = m[i][top] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
        for j in range(top + 1, m_cols):
            q = m[top][j] // p
            if q:
                for i in range(n):
                    m[i][j] -= q * m[i][top]
        if any(m[i][top] != 0 for i in range(top + 1, n)) or any(
            m[top][j] != 0 for j in range(top + 1, m_cols)
        ):
            continue  # euclidean remainders appeared; re-pivot on a smaller entry
        # divisibility chain: pivot must divide every remaining entry
        rem = next(
            (
                i
                for i in range(top + 1, n)
                for j in range(top + 1, m_cols)
                if m[i][j] % p != 0
            ),
            None,
        )
        if rem is not None:
            m[top] = [x + y for x, y in zip(m[top], m[rem])]
            continue
        factors.append(abs(p))
        top += 1
    factors += [0] * (min(n, m_cols) - len(factors))
    return tuple(factors)
