"""Exact linear algebra over a FieldSpec.

Subspaces are stored as reduced row-echelon bases with no zero rows, so a
subspace has exactly one representation and equality is entry-wise
comparison.  All decisions in the package (centers, radicals, ideal
closures, stability criteria) reduce to the operations here.

The two echelon reducers are the only elimination code: spans, kernels,
sums, intersections and solved systems all run through one of them.  Over
GF(p) rows are reduced mod p and kept with unit pivots.  Over Q a vector
enters as an int row (its denominators cleared by their lcm), is eliminated
by cross-multiplication and kept primitive.  Fractions are built only on
the way out, in canonical rows and solution vectors, since per-entry
Fraction normalization inside the elimination loop would dominate.

Rows handed to a reducer may mix ints and Fractions, need not be reduced
mod p, and only count up to a nonzero multiple, so the N-scaled products
of an algebra's int index go in as they are.  Only nonzero entries are
read, and a Fraction is slow even to test for zero, so rows built just to
feed a reducer should hold their zeros as the int 0.  What leaves this
module is canonical: over Q, every entry of `Subspace.rows` and of a
solution vector is a Fraction.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch
from .scalars import RATIONALS, FieldSpec

_ZERO = RATIONALS.zero


def _row_gcd(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


class _Reducer:
    """Incremental echelon basis; subclasses give residual, _normalize and
    canonical_rows for their field."""

    __slots__ = ("width", "pivots", "rows")

    def __init__(self, width):
        self.width = width
        self.pivots = []  # sorted pivot columns
        self.rows = {}  # pivot column -> full-width row of ints

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def insert(self, vec):
        """Add vec to the span.  Returns the new basis row, or None if dependent."""
        v = self.residual(vec)
        for p, x in enumerate(v):
            if x:
                v = self._normalize(v, x)
                self.rows[p] = v
                insort(self.pivots, p)
                return v
        return None


def _to_int_row(vec):
    """vec times the lcm of its denominators, as ints; an int row is unchanged."""
    # zeros have denominator 1, so only the nonzero entries are read
    nonzero = [(i, x) for i, x in enumerate(vec) if x]
    m = lcm(*[x.denominator for _, x in nonzero])
    out = [0] * len(vec)
    for i, x in nonzero:
        out[i] = x.numerator * (m // x.denominator)
    return out


class _RationalReducer(_Reducer):
    """Echelon basis over Q, rows kept as primitive int vectors."""

    __slots__ = ()

    _to_int_row = staticmethod(_to_int_row)

    def residual(self, vec):
        """Reduce vec against the current rows; zero residual means membership."""
        v = self._to_int_row(vec)
        for p in self.pivots:
            c = v[p]
            if c:
                r = self.rows[p]
                g = gcd(r[p], c)
                a, b = r[p] // g, c // g  # a > 0 since pivots are positive
                if a == 1:
                    v[p:] = [x - b * y for x, y in zip(v[p:], r[p:])]
                else:
                    # the whole row is scaled by a, not just the tail
                    v[:p] = [a * x for x in v[:p]]
                    v[p:] = [a * x - b * y for x, y in zip(v[p:], r[p:])]
                    g = _row_gcd(v)
                    if g > 1:
                        v = [x // g for x in v]
        return v

    @staticmethod
    def _normalize(v, lead):
        """v made primitive, with a positive leading entry."""
        g = _row_gcd(v)
        if lead < 0:
            g = -g
        return [y // g for y in v] if g != 1 else v

    def canonical_rows(self):
        """Fully reduced rows with unit pivots, as Fraction tuples."""
        rows = {p: list(r) for p, r in self.rows.items()}
        for p in reversed(self.pivots):
            base = rows[p]
            for q in self.pivots:
                if q >= p:
                    break
                r = rows[q]
                c = r[p]
                if c:
                    g = gcd(base[p], c)
                    a, b = base[p] // g, c // g
                    merged = [a * x - b * y for x, y in zip(r, base)]
                    g = _row_gcd(merged)
                    if g > 1:
                        merged = [x // g for x in merged]
                    rows[q] = merged
        out = []
        for p in self.pivots:
            r = rows[p]
            piv = r[p]
            out.append(tuple(Fraction(x, piv) if x else _ZERO for x in r))
        return out


class _PrimeReducer(_Reducer):
    """Echelon basis over GF(p), rows kept with unit pivots."""

    __slots__ = ("p",)

    def __init__(self, width, p):
        super().__init__(width)
        self.p = p

    def residual(self, vec):
        p_ = self.p
        v = [int(x) % p_ for x in vec]
        for p in self.pivots:
            c = v[p]
            if c:
                r = self.rows[p]
                v[p:] = [(x - c * y) % p_ for x, y in zip(v[p:], r[p:])]
        return v

    def _normalize(self, v, lead):
        """v scaled to a unit leading entry."""
        inv = pow(lead, -1, self.p)
        return [y * inv % self.p for y in v]

    def canonical_rows(self):
        rows = {p: list(r) for p, r in self.rows.items()}
        for p in reversed(self.pivots):
            base = rows[p]
            for q in self.pivots:
                if q >= p:
                    break
                r = rows[q]
                c = r[p]
                if c:
                    rows[q] = [(x - c * y) % self.p for x, y in zip(r, base)]
        return [tuple(rows[p]) for p in self.pivots]


def _make_reducer(field: FieldSpec, width: int):
    if field.p is None:
        return _RationalReducer(width)
    return _PrimeReducer(width, field.p)


class Subspace:
    """A linear subspace held as its canonical RREF basis (no zero rows)."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field, ambient_dim, rows, pivots):
        # rows/pivots must already be canonical; use span() to build one.
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def _check_len(self, v):
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient dimension {self.ambient_dim}"
            )

    def reduce(self, v):
        """Residual of v after eliminating all pivot coordinates."""
        self._check_len(v)
        f = self.field
        w = [f.coerce(x) for x in v]
        for p, row in zip(self.pivots, self.rows):
            c = w[p]
            if c:
                for j in range(p, self.ambient_dim):
                    if row[j]:
                        w[j] = f.sub(w[j], f.mul(c, row[j]))
        return w

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def coordinates(self, v):
        """Coefficients of v over the RREF basis, or None if v is outside."""
        self._check_len(v)
        f = self.field
        coords = tuple(f.coerce(v[p]) for p in self.pivots)
        if any(self.reduce(v)):
            return None
        return coords

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    def __le__(self, other):
        return all(other.contains(r) for r in self.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field!r})"


def _subspace_from_reducer(field, ambient_dim, red) -> Subspace:
    rows = tuple(red.canonical_rows())
    return Subspace(field, ambient_dim, rows, tuple(red.pivots))


def span(field: FieldSpec, vectors, ambient_dim: int) -> Subspace:
    """The canonical subspace spanned by the given coordinate vectors."""
    red = _make_reducer(field, ambient_dim)
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient dimension {ambient_dim}"
            )
        red.insert(v)
    return _subspace_from_reducer(field, ambient_dim, red)


def zero_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, (), ())


def full_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    one, zero = field.one, field.zero
    rows = [[one if i == j else zero for j in range(ambient_dim)] for i in range(ambient_dim)]
    return span(field, rows, ambient_dim)


def subspace_sum(s: Subspace, t: Subspace) -> Subspace:
    if s.field != t.field or s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return span(s.field, s.rows + t.rows, s.ambient_dim)


def kernel_of_rows(field: FieldSpec, rows, ncols: int) -> Subspace:
    """Solutions x of R x = 0 for the given equation rows."""
    red = _make_reducer(field, ncols)
    for r in rows:
        red.insert(r)
    rref_rows = red.canonical_rows()
    pivots = list(red.pivots)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for p, row in zip(pivots, rref_rows):
            if row[free]:
                v[p] = field.neg(row[free])
        basis.append(v)
    return span(field, basis, ncols)


def subspace_intersect(s: Subspace, t: Subspace) -> Subspace:
    """Intersection by Zassenhaus: reduce the rows (s_i | s_i) and (t_j | 0).

    The echelon rows with pivot at or past n are (0 | w), and their w span
    the intersection.
    """
    if s.field != t.field or s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    field = s.field
    n = s.ambient_dim
    red = _make_reducer(field, 2 * n)
    for v in s.rows:
        red.insert(v + v)
    zeros = (0,) * n
    for v in t.rows:
        red.insert(v + zeros)
    return span(field, [red.rows[p][n:] for p in red.pivots if p >= n], n)


def _linear_combination(field, coeffs, rows, width):
    """sum of c * row over zip(coeffs, rows), as a list of canonical scalars."""
    out = [field.zero] * width
    for c, row in zip(coeffs, rows):
        c = field.coerce(c)
        if c:
            for i, val in enumerate(row):
                if val:
                    out[i] = field.add(out[i], field.mul(c, val))
    return out


def express_in_span(field: FieldSpec, generators, target, width: int):
    """Coefficients writing target as a combination of the generators.

    The generators need not be independent.  Returns a list of scalars, or
    None if target is outside the span.  Works by augmenting each generator
    with an indicator block and a bookkeeping column, so the reduction of
    the target carries its own combination along.
    """
    gens = list(generators)
    g = len(gens)
    red = _make_reducer(field, width + g + 1)
    for i, v in enumerate(gens):
        if len(v) != width:
            raise DimensionMismatch("generator has wrong length")
        aug = [0] * (g + 1)
        aug[i] = 1
        red.insert(list(v) + aug)
    if len(target) != width:
        raise DimensionMismatch("target has wrong length")
    w = red.residual(list(target) + [0] * g + [1])
    if any(w[:width]):
        return None
    scale = w[width + g]
    assert scale != 0
    if field.p is None:
        return [-Fraction(w[width + i], scale) for i in range(g)]
    inv = pow(scale, -1, field.p)
    return [(-w[width + i]) * inv % field.p for i in range(g)]


def solve_linear(field: FieldSpec, eq_rows, rhs):
    """A particular solution x of the system rows . x = rhs, or None.

    Free variables are set to zero.  eq_rows is an iterable of equation
    rows; rhs the matching right-hand sides.
    """
    eq_rows = list(eq_rows)
    rhs = list(rhs)
    if len(eq_rows) != len(rhs):
        raise DimensionMismatch("system and right-hand side differ in length")
    if not eq_rows:
        return ()
    n = len(eq_rows[0])
    red = _make_reducer(field, n + 1)
    for row, b in zip(eq_rows, rhs):
        red.insert(list(row) + [b])
        if n in red.pivots:  # pivot in the rhs column: inconsistent
            return None
    rows = red.canonical_rows()
    x = [field.zero] * n
    pivot_rows = list(zip(red.pivots, rows))
    for p, row in reversed(pivot_rows):
        acc = row[n]
        for c in range(p + 1, n):
            if row[c] and x[c]:
                acc = field.sub(acc, field.mul(row[c], x[c]))
        x[p] = acc
    return tuple(x)
