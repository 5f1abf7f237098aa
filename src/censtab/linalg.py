"""Exact linear algebra over a FieldSpec.

A Subspace is a frozen view of the echelon reducer that built it.  Its
membership tests, projections, sums, intersections and int-form basis
(`pivot_rows`) use the reducer's own rows, and its dimension counts their
pivots.  Its canonical reduced row-echelon basis `rows` is read off on
first read and kept, for a report, a certificate or a comparison (equality
is entry-wise comparison of those rows); a subspace that stays inside the
engine is never canonicalized.  All decisions in the package (centers,
radicals, ideal closures, stability criteria) reduce to the operations
here.

The two echelon reducers are the only elimination code: spans, kernels,
sums, intersections, membership and projection all run through one of
them, and so does `express_in_span`, the one solver of linear systems.
Over GF(p) rows are reduced mod p and kept with unit pivots.  Over Q a
vector enters as int entries (its denominators cleared by their lcm) and is
eliminated by cross-multiplication.  Its content, the gcd of its entries,
is removed once, where a row is stored, not after each elimination step
(the fraction-free idea of Bareiss): every stored row is primitive with a
positive pivot, while a vector being reduced only grows by positive
factors.  Fractions are built only on the way out, in canonical rows and
solution vectors, since per-entry Fraction normalization inside the
elimination loop would dominate.  `kernel_of_rows` builds its kernel basis
from the int rows too, with the pivot entries' lcm in place of division.

The reducers are sparse.  Each basis row is a dict of its nonzero entries,
column -> value, and is zero at every other pivot: `insert` clears the new
pivot from the older rows, on copies, so a row it returned never changes.
`residual`, `contains` and `insert` take a vector as such a dict or as a
sequence and read only its nonzero entries.  The vector is eliminated once
at each pivot in its own support, in any order, since no elimination
touches another pivot, and each touches only the entries of one basis row,
so a membership test on a mostly-zero vector costs little however wide the
reducer is.  `residual` returns the nonzero entries of the reduced vector as
a dict (empty means membership) and `insert` returns the new basis row.

A membership test that repeats while a span grows keeps a running
residual.  It is zero at every pivot, as the row `insert` returns is at the
older ones, so one elimination at the new row's pivot makes it a residual
against all rows (`advance_residual`).  The target is reduced once, not
again after every insert.

Vectors handed to a reducer may mix ints and Fractions, need not be
reduced mod p, and only count up to a nonzero multiple, so the N-scaled
product dicts of an algebra's int index go in as they are.  A Fraction is
slow even to test for zero, so vectors built just to feed a reducer should
leave their zeros out or hold them as the int 0.  What leaves this module
is canonical: `exact_residual` undoes the eliminations' scaling, tracked in
a column no row meets, so over Q every entry of `Subspace.rows`, of a
reduced vector and of a solution vector is a Fraction.  So where content
is removed changes no result: a residual is only tested for emptiness,
made primitive by `insert`, or divided by its tracked scale, and each of
these reads the same thing off every positive multiple.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch
from .scalars import RATIONALS, FieldSpec

_ZERO = RATIONALS.zero


def _items(vec):
    """The (index, entry) pairs of a vector given as a dict or a sequence."""
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def _row_gcd(values):
    g = 0
    for x in values:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _int_entries(vec):
    """The nonzero entries of vec times the lcm of their denominators, as a
    dict of ints; when every entry is an int, the entries are unchanged."""
    v = {i: x for i, x in _items(vec) if x}
    for x in v.values():
        if type(x) is not int:
            m = lcm(*[x.denominator for x in v.values()])
            return {i: x.numerator * (m // x.denominator) for i, x in v.items()}
    return v


class _Reducer:
    """Incremental reduced echelon basis of sparse rows; subclasses give
    _entries, _eliminate, _normalize and _divide for their field."""

    __slots__ = ("width", "pivots", "rows")

    def __init__(self, width):
        self.width = width
        self.pivots = []  # sorted pivot columns
        self.rows = {}  # pivot column -> basis row, a dict of its nonzero entries

    @property
    def dim(self):
        return len(self.pivots)

    def residual(self, vec):
        """The nonzero entries of vec reduced against the current rows, as a
        dict; an empty dict means membership.  Over Q it is fixed only up to
        a positive factor, since its content is never removed here."""
        v = self._entries(vec)
        rows = self.rows
        for p in [p for p in v if p in rows]:
            self._eliminate(v, v[p], rows[p], p)
        return v

    def contains(self, vec) -> bool:
        return not self.residual(vec)

    def insert(self, vec):
        """Add vec to the span.  Returns the new basis row, or None if dependent.

        Content is removed here, once per stored row: the new row and each
        older row it clears are made primitive with a positive pivot, so
        the vectors reduced against them start from small entries.  A
        cleared row whose pivot entry is 1 is primitive already, as every
        GF(p) row is; any other is divided by its content, which the
        elimination's scaling or the subtraction alone may have made > 1.
        """
        v = self.residual(vec)
        if not v:
            return None
        p = min(v)
        v = self._normalize(v, v[p])
        k = bisect(self.pivots, p)
        self.pivots.insert(k, p)  # before any change: fails on a Subspace's tuple
        rows = self.rows
        # a pivot is its row's least column, so only rows with a lower pivot hold p
        for q in self.pivots[:k]:
            if p in rows[q]:
                r = dict(rows[q])  # a row returned before keeps its entries
                self._eliminate(r, r[p], v, p)
                rows[q] = r if r[q] == 1 else self._normalize(r, r[q])
        rows[p] = v
        return v

    def advance_residual(self, v, row):
        """Keep v a residual once row, the row insert just returned, is in.

        v is a residual dict against the rows before row, so it is zero at
        their pivots, and so is row.  One elimination at row's pivot, in
        place, makes v a residual against all rows: empty exactly when the
        vector v came from lies in the span.
        """
        p = min(row)
        c = v.get(p)
        if c:
            self._eliminate(v, c, row, p)

    def exact_residual(self, vec):
        """The nonzero entries of vec reduced against the rows, as canonical
        scalars.  vec enters with a 1 at column `width`, which no row meets,
        and the eliminations scale it with the rest; dividing by it undoes that.
        A vector that meets no pivot is its own residual: its entries come
        back as they are, so they must be canonical already."""
        v = {k: x for k, x in _items(vec) if x}
        if self.rows.keys().isdisjoint(v):
            return v
        v[self.width] = 1
        v = self.residual(v)
        return self._divide(v, v.pop(self.width))

    def pivot_rows(self):
        """The basis rows, in pivot order."""
        return [self.rows[p] for p in self.pivots]

    def canonical_rows(self):
        """The fully reduced basis as dense tuples of canonical scalars, in
        pivot order, with unit pivots: each row divided by its pivot entry,
        since it is already zero at every other pivot."""
        out = []
        for p in self.pivots:
            row = [self._zero] * self.width
            for k, x in self._divide(self.rows[p], self.rows[p][p]).items():
                row[k] = x
            out.append(tuple(row))
        return out


class _RationalReducer(_Reducer):
    """Reduced echelon basis over Q, rows kept as int vectors with positive
    pivots."""

    __slots__ = ()

    _zero = _ZERO
    _entries = staticmethod(_int_entries)

    def _eliminate(self, v, c, r, p):
        """Clear v[p] = c with the row r of pivot p, by cross-multiplication:
        v becomes a v - b r, with a > 0.  No content is removed, so v only
        grows by the positive factor a; every caller reads v up to such a
        factor, and `insert` makes the rows it stores primitive."""
        g = gcd(r[p], c)
        a, b = r[p] // g, c // g  # a > 0 since pivots are positive
        if a != 1:
            # the whole vector is scaled by a, not just the entries r meets
            for k in v:
                v[k] *= a
        for k, y in r.items():
            x = v.get(k)
            if x is None:
                v[k] = -b * y
            else:
                x -= b * y
                if x:
                    v[k] = x
                else:
                    del v[k]

    @staticmethod
    def _normalize(v, lead):
        """v made primitive, with a positive leading entry."""
        g = _row_gcd(v.values())
        if lead < 0:
            g = -g
        return {k: y // g for k, y in v.items()} if g != 1 else v

    @staticmethod
    def _divide(v, s):
        """v divided by the int s, as Fractions."""
        return {k: Fraction(x, s) for k, x in v.items()}


class _PrimeReducer(_Reducer):
    """Reduced echelon basis over GF(p), rows kept with unit pivots."""

    __slots__ = ("p",)

    _zero = 0

    def __init__(self, width, p):
        super().__init__(width)
        self.p = p

    def _entries(self, vec):
        p = self.p
        return {i: y for i, x in _items(vec) if x and (y := x % p)}

    def _eliminate(self, v, c, r, p):
        """Clear v[p] = c with the unit-pivot row r of pivot p."""
        p_ = self.p
        for k, y in r.items():
            x = v.get(k)
            if x is None:
                v[k] = -c * y % p_
            else:
                x = (x - c * y) % p_
                if x:
                    v[k] = x
                else:
                    del v[k]

    def _divide(self, v, s):
        """v divided by s; v itself when s is one, as at every pivot."""
        if s == 1:
            return v
        inv = pow(s, -1, self.p)
        return {k: y * inv % self.p for k, y in v.items()}

    _normalize = _divide  # to a unit leading entry


def _make_reducer(field: FieldSpec, width: int):
    if field.p is None:
        return _RationalReducer(width)
    return _PrimeReducer(width, field.p)


class Subspace:
    """A linear subspace: its `pivots` and its canonical RREF basis `rows`
    (no zero rows), read off the reducer that built it, which it keeps
    frozen.  The rows are built on first read and kept: a subspace the
    engine only reduces against, sums or intersects is never canonicalized.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "reducer", "_rows")

    def __init__(self, field, reducer):
        reducer.pivots = tuple(reducer.pivots)  # insert fails on a tuple
        self.field = field
        self.ambient_dim = reducer.width
        self.pivots = reducer.pivots
        self.reducer = reducer
        self._rows = None

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(self.reducer.canonical_rows())
        return self._rows

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check_len(self, v):
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient dimension {self.ambient_dim}"
            )

    def _nonzero(self, v):
        self._check_len(v)
        coerce = self.field.coerce
        return {i: y for i, x in enumerate(v) if (y := coerce(x))}

    def reduce(self, v):
        """Residual of v after eliminating all pivot coordinates."""
        out = [self.field.zero] * self.ambient_dim
        for j, x in self.reducer.exact_residual(self._nonzero(v)).items():
            out[j] = x
        return out

    def contains(self, v) -> bool:
        return not self.reducer.residual(self._nonzero(v))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots  # equal subspaces share pivots
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field!r})"


def span(field: FieldSpec, vectors, ambient_dim: int) -> Subspace:
    """The canonical subspace spanned by the given coordinate vectors."""
    red = _make_reducer(field, ambient_dim)
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient dimension {ambient_dim}"
            )
        red.insert(v)
    return Subspace(field, red)


def subspace_sum(s: Subspace, t: Subspace) -> Subspace:
    """s + t, from both reducers' int rows: the same span as that of the
    canonical rows, so the same canonical subspace, since RREF is unique."""
    if s.field != t.field or s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    red = _make_reducer(s.field, s.ambient_dim)
    for v in s.reducer.pivot_rows() + t.reducer.pivot_rows():
        red.insert(v)
    return Subspace(s.field, red)


def kernel_of_rows(field: FieldSpec, rows, ncols: int) -> Subspace:
    """Solutions x of R x = 0 for the given equation rows (sequences or dicts).

    One kernel vector per free column f, built from the reducer's int rows:
    a pivot row is nonzero off its pivot p only at free columns, so x with
    x_f = L, x_p = -row_p[f] L / row_p[p] for each pivot row meeting f, and
    zero elsewhere, solves every row, L the lcm of those rows' pivot entries
    (1 over GF(p), whose pivots are units).  These vectors are independent
    (each is the only one nonzero at its f) and there are ncols - rank of
    them, so they span the kernel.
    """
    red = _make_reducer(field, ncols)
    for r in rows:
        red.insert(r)
    hits = {f: [] for f in range(ncols) if f not in red.rows}  # f -> [(p, row_p)]
    for p, row in red.rows.items():
        for k in row:
            if k != p:
                hits[k].append((p, row))
    kernel = _make_reducer(field, ncols)
    for f, pivot_rows in hits.items():
        m = lcm(*[row[p] for p, row in pivot_rows])
        v = {p: -row[f] * (m // row[p]) for p, row in pivot_rows}
        v[f] = m
        kernel.insert(v)
    return Subspace(field, kernel)


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
    for v in s.reducer.pivot_rows():
        red.insert(v | {k + n: x for k, x in v.items()})
    for v in t.reducer.pivot_rows():
        red.insert(v)  # (v | 0): the right half is left out
    inter = _make_reducer(field, n)
    for p in red.pivots:
        if p >= n:
            inter.insert({k - n: x for k, x in red.rows[p].items()})
    return Subspace(field, inter)


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

    The generators and the target are sequences of length width or dicts of
    entries; the generators need not be independent.  Returns a list of
    scalars, or None if target is outside the span.  Works by augmenting
    each generator with an indicator column and the target with a
    bookkeeping column, so the reduction of the target carries its own
    combination along.
    """
    gens = list(generators)
    red = _make_reducer(field, width + len(gens))  # the target's bookkeeping column is red.width
    for i, v in enumerate(gens):
        if not isinstance(v, dict) and len(v) != width:
            raise DimensionMismatch("generator has wrong length")
        aug = dict(_items(v))
        aug[width + i] = 1
        red.insert(aug)
    if not isinstance(target, dict) and len(target) != width:
        raise DimensionMismatch("target has wrong length")
    w = red.exact_residual(target)
    if any(k < width for k in w):
        return None
    return [field.neg(w.get(width + i, field.zero)) for i in range(len(gens))]
