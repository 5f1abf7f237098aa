"""Finite-dimensional associative algebras given by structure constants.

An algebra of dimension n over a FieldSpec is the data of its basis products
e_i * e_j = sum_k c[i][j][k] e_k.  Associativity is validated once at
construction, exactly, through a generating set, and derived constructions
(quotients, tensor products, ...) are trusted to preserve it.

The int index is the table: a sparse row-major index of N * c, N the lcm of
the table's denominators (1 over GF(p)), with absent entries meaning a zero
product.  The basis f_i = N e_i has f_i f_j = sum_k N c[i][j][k] f_k, so the
index presents the same algebra, and every subspace is invariant under that
uniform scaling: spans, reductions and zero tests read the index as it is,
and no product is divided back by N.  Two functions pass between the index
and the exact constants c: `_index` builds the index from entries
(i, j, [(k, (num, den)), ...]), in one pass over those of a file or of a
construction, and is the only one that chooses N; `_ratios` reads an index
back as such entries, and is the only one that divides by N.  Every
construction is a map over the entries `_ratios` gives, and `Algebra.table`
is computed from them when first read.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import (
    AlgebraMismatch,
    ConsistencyError,
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotAnIdeal,
    NotAssociative,
)
from .linalg import Subspace, _int_entries, _make_reducer, express_in_span, kernel_of_rows
from .scalars import FieldSpec


class Algebra:
    """An associative algebra presented by a structure-constant table.

    The table is kept as one sparse row-major index of the ints N * c,
    N = `_scale`: `_rows[i][j]` = ((k, N c_ij^k), ...) for the nonzero
    entries e_i * e_j, k increasing, j in the order the entries came in.  A
    basis product e_i * v or v * e_i walks the nonzeros of v and looks each
    constant up.  Build one with `build_algebra`, or with `_derived` from
    `_index` entries; `_ratios` gives those entries back.
    """

    __slots__ = ("field", "dim", "labels", "unity", "_scale", "_rows", "_memo")

    def __init__(self, field, dim, scale, rows, labels, unity, _trusted=False):
        if not _trusted:
            raise TypeError("use build_algebra() to construct an Algebra")
        self.field = field
        self.dim = dim
        self.labels = labels
        self.unity = unity
        self._scale = scale
        self._rows = rows
        self._memo = {}  # cached results: table, generators, center, left traces

    @property
    def table(self):
        """The exact structure constants {(i, j): ((k, c), ...)}, read-only:
        the entries of `_ratios` as scalars, computed on first read and kept
        in the memo.  It iterates row by row, each row's j in index order."""
        t = self._memo.get("table")
        if t is None:
            t, gf, fracs = {}, self.field.p is not None, {}  # fracs: (num, den) -> num/den
            for i, j, pairs in _ratios(self):
                t[i, j] = tuple([(k, r[0] if gf else fracs.get(r) or fracs.setdefault(r, Fraction(*r)))
                                 for k, r in pairs])
            t = self._memo["table"] = MappingProxyType(t)
        return t

    # -- element and vector helpers -----------------------------------------

    def element(self, coords) -> Element:
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(coords)}")
        return Element(self, tuple(self.field.coerce(x) for x in coords))

    def basis_element(self, i: int) -> Element:
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return Element(self, tuple(coords))

    def one(self) -> Element:
        if self.unity is None:
            raise ValueError("algebra has no unity")
        return Element(self, self.unity)

    @property
    def is_unital(self) -> bool:
        return self.unity is not None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i}"

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field!r})"

    # -- products (coordinate level) -----------------------------------------
    # The raw products below are N = `_scale` times the true ones, in raw
    # ints where the inputs are ints, as dicts of the entries they reach.
    # Operands are sequences or dicts (such as reducer rows), and the
    # reducers take the dicts as they are.

    def _basis_mul_vec(self, i, v):
        """N times the coordinates of e_i * v as a dict, or None when no index
        entry meets v; v is a dict of coordinates (absent means zero)."""
        row = self._rows[i]
        acc = {}
        for j, x in v.items():
            if x and (pairs := row.get(j)):
                for k, c in pairs:
                    acc[k] = acc.get(k, 0) + x * c
        return acc or None

    def _vec_mul_basis(self, v, i):
        """N times the coordinates of v * e_i as a dict, or None when no index
        entry meets v; v is a dict of coordinates (absent means zero)."""
        rows = self._rows
        acc = {}
        for j, x in v.items():
            if x and (pairs := rows[j].get(i)):
                for k, c in pairs:
                    acc[k] = acc.get(k, 0) + x * c
        return acc or None


class Element:
    """A coordinate vector over an algebra's distinguished basis; it has no
    arithmetic, as the engine multiplies raw coordinates on the int index,
    and compares by identity: compare coords."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: tuple):
        self.algebra = algebra
        self.coords = coords

    def __repr__(self):
        a = self.algebra
        terms = [
            f"{a.field.format(c)}*{a.label(i)}" for i, c in enumerate(self.coords) if c
        ]
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def _index(field, dim, entries):
    """(N, rows) of the int index of a table given as entries (i, j, pairs),
    pairs a sequence of (k, (num, den)) with num/den a reduced fraction over
    Q, num in [0, p) and den = 1 over GF(p); no two entries share (i, j).

    In entry order, each pair index and then each target index is
    range-checked.  Pairs already sorted by strictly increasing k with no
    zero are kept as they are; any others have a repeated k summed, zeros
    dropped and the rest sorted by k.  An entry left empty is dropped.  N is
    the lcm of the denominators, and rows[i][j] is ((k, num * N / den), ...),
    j in entry order, equal tuples shared, so the index stays small.
    """
    p = field.p
    rows = [{} for _ in range(dim)]
    dens, summed = set(), False
    for i, j, pairs in entries:
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexOutOfRange(f"pair index ({i},{j}) outside [0,{dim})")
        last = -1  # the last k while pairs are canonical, dim once they are not
        for k, (c, d) in pairs:
            if not 0 <= k < dim:
                raise IndexOutOfRange(f"target index {k} in entry ({i},{j})")
            last = k if last < k and c else dim
            dens.add(d)
        if last == dim:
            pairs = _canonical_pairs(p, pairs)
            summed = True
        if pairs:
            rows[i][j] = pairs
    if summed:  # a sum may have cancelled a denominator
        dens = {d for row in rows for pairs in row.values() for _, (_, d) in pairs}
    n = lcm(*dens)
    shared = {}
    for row in rows:
        for j, pairs in row.items():
            scaled = []  # a loop, not a comprehension: most entries hold one pair
            for k, (c, d) in pairs:
                scaled.append((k, c * (n // d)))
            scaled = tuple(scaled)
            row[j] = shared.setdefault(scaled, scaled)
    return n, tuple(rows)


def _canonical_pairs(p, pairs):
    """pairs (k, (num, den)) with a repeated k summed, zeros dropped, sorted by k."""
    acc = {}
    for k, (c, d) in pairs:
        acc[k] = acc.get(k, 0) + Fraction(c, d) if p is None else (acc.get(k, 0) + c) % p
    return [(k, c.as_integer_ratio()) for k, c in sorted(acc.items()) if c]


def _ratios(a: Algebra):
    """a's entries (i, j, [(k, (num, den)), ...]) as `_index` takes them, in
    index order: each constant c of the index reduced from c/N over Q, and
    (c, 1) over GF(p), where N = 1.  `_index` of them gives back a's N and
    rows, as N is the lcm of the reduced denominators."""
    n, ratio = a._scale, {}  # ratio: c -> (c/g, N/g), g = gcd(c, N)
    for i, row in enumerate(a._rows):
        for j, pairs in row.items():
            out = []  # a loop, not a comprehension, as in `_index`
            for k, c in pairs:
                r = ratio.get(c)
                if r is None:
                    g = gcd(c, n)
                    r = ratio[c] = (c // g, n // g)
                out.append((k, r))
            yield i, j, out


def _check_associativity(a: Algebra) -> None:
    """Raise NotAssociative unless (e_i e_j) e_k = e_i (e_j e_k) for every
    basis triple, with the lexicographically first failing triple.

    It suffices to check j in the generating set G = `_generators(a)`,
    which needs no associativity to span a.  The middle nucleus N_m =
    {s : (xs)y = x(sy) for all x, y} is a subspace, and closed under
    products in any bilinear algebra: for s, t in N_m,
    (x(st))y = ((xs)t)y = (xs)(ty) = x(s(ty)) = x((st)y), each step one use
    of s or t in N_m.  `_generators` spans a by right-nested words
    e_g1 (e_g2 (... e_gm)); once every e_g lies in N_m, each word does, by
    induction on m, and so does their span a, which is then associative.
    The converse is plain.  So the check is (e_x e_g) e_k = e_x (e_g e_k)
    for g in G and every basis x, k.

    For each g only the x that can reach g are visited: x in col(g) or in
    col(m) for some m with coordinate m of some e_g e_k nonzero, where
    col(m) holds the x with e_x e_m != 0.  For any other x, e_x e_g = 0 and
    e_x e_m = 0 for every such m, so both (e_x e_g) e_k and
    e_x (e_g e_k) = sum_m c_gk^m e_x e_m vanish for every k.

    When that check fails, the walk over every triple (`_first_failing_triple`)
    names the witness.  A walk that finds none contradicts the argument
    above, so it raises ConsistencyError.
    """
    rows = a._rows
    col = defaultdict(list)  # m -> the x with e_x e_m != 0
    for x, row in enumerate(rows):
        for m in row:
            col[m].append(x)
    for g in _generators(a):
        inv = _inverted(rows[g])
        reach = set(col.get(g, ()))
        for m in inv:
            reach.update(col.get(m, ()))
        if any(_associator_defect(a, x, g, inv) for x in reach):
            _first_failing_triple(a)
            raise ConsistencyError("the generating-set check failed, but no basis triple does")


def _inverted(row):
    """Row j of the index turned inside out: m -> [(k, c)], c the coordinate
    m of N e_j e_k, over the nonzero ones."""
    inv = defaultdict(list)
    for k, pairs in row.items():
        for m, c in pairs:
            inv[m].append((k, c))
    return inv


def _associator_defect(a: Algebra, i, j, inv_j):
    """The k with (e_i e_j) e_k != e_i (e_j e_k), in no order; inv_j is
    `_inverted(a._rows[j])`.

    Only the k reached through nonzero entries are visited.  Both sides are
    read from the index, so both are N^2 times the true ones.
    """
    p, n = a.field.p, a.dim
    rows = a._rows
    row_i = rows[i]
    diff = {}  # k n + q -> coordinate q of (e_i e_j) e_k - e_i (e_j e_k)
    for m, c in row_i.get(j, ()):
        for k, pairs in rows[m].items():
            kn = k * n
            for q, d in pairs:
                diff[kn + q] = diff.get(kn + q, 0) + c * d
    for m, kcs in inv_j.items():
        if pairs := row_i.get(m):
            for k, c in kcs:
                kn = k * n
                for q, d in pairs:
                    diff[kn + q] = diff.get(kn + q, 0) - c * d
    return [kq // n for kq, x in diff.items() if (x if p is None else x % p)]


def _first_failing_triple(a: Algebra) -> None:
    """Raise NotAssociative with the lexicographically first failing triple,
    walking every basis triple; return if there is none.

    Both sides vanish unless e_i has a nonzero row and c_ij is nonzero or
    e_j has a nonzero row, so only those pairs (i, j) are visited, in
    increasing order.
    """
    rows = a._rows
    inv = [_inverted(row) for row in rows]
    active = {j for j in range(a.dim) if rows[j]}
    for i in sorted(active):
        for j in sorted(rows[i].keys() | active):
            if bad := _associator_defect(a, i, j, inv[j]):
                raise NotAssociative(i, j, min(bad))


def _find_unity(a: Algebra):
    """The two-sided unity of an associative a, or None; a.unity is not
    consulted.

    Only the equations u e_g = e_g, g in the generating set G
    (`_generators`), are solved, then the solution is checked on both sides
    of each e_g.  That is exact: u(e_g v) = (u e_g) v for every v, so a
    solution fixes each right-nested word in the e_g from the left, and these
    span a.  If a has a two-sided unity 1, a solution u is a left unity, and
    u = u 1 = 1 is the only one; if a has none, the check fails for every u
    (`_unity_failure`).

    Nothing is solved when some e_k is the target of no table entry: A^2 is
    spanned by the products e_i e_j, so it lies in the span of the other
    basis vectors and misses e_k, while a unital a has A^2 = A (x = 1 x).

    u e_g = e_g for g in G reads sum_i u_i N c_ig^k = N [g == k], one
    equation per (g, k).  One with a single unknown u_x pins it:
    u_x = N [g == k] / (N c_xg^k).  When a unity exists it is the only
    solution, so the pins are its coordinates, and two that disagree leave
    none.  The coordinates no equation pins are solved by `express_in_span`
    over their columns alone, the pinned part moved into the target; when
    every coordinate is pinned, nothing is solved.
    """
    dim = a.dim
    rows = a._rows
    if dim == 0 or len({k for row in rows for pairs in row.values() for k, _ in pairs}) < dim:
        return None
    gens = _generators(a)
    field, n, p = a.field, a._scale, a.field.p
    eqs = {}  # g * dim + k -> (x, N c_xg^k) for its one unknown u_x, None for several
    for i, row in enumerate(rows):
        for g in gens:
            for k, c in row.get(g, ()):
                key = g * dim + k
                eqs[key] = None if key in eqs else (i, c)
    u = [None] * dim
    for key, pin in eqs.items():
        if pin is not None:
            x, c = pin
            g, k = divmod(key, dim)
            v = 0 if g != k else Fraction(n, c) if p is None else pow(c, -1, p)
            if u[x] is None:
                u[x] = v
            elif u[x] != v:
                return None
    free = [i for i, v in enumerate(u) if v is None]
    if free:
        # generator j is u_free[j]'s index entries at the e_g, flattened
        # over (g, k); the target is N at every (g, g) less the pinned part
        cols = [{g * dim + k: c for g in gens for k, c in row.get(g, ())} for row in rows]
        target = {g * dim + g: n for g in gens}
        for x, v in enumerate(u):
            if v:
                for key, c in cols[x].items():
                    t = target.get(key, 0) - v * c
                    target[key] = t if p is None else t % p
        s = express_in_span(field, [cols[i] for i in free], target, dim * dim)
        if s is None:
            return None
        for i, v in zip(free, s):
            u[i] = v
    zero = field.zero
    u = tuple([v or zero for v in u])
    return u if _unity_failure(a, u) is None else None


def _unity_failure(a: Algebra, u):
    """First g in the generating set G (`_generators`) with u e_g != e_g or
    e_g u != e_g, or None if u is a unity of the associative a.

    G suffices: if u fixes each e_g on both sides, then u(e_g v) = (u e_g) v
    and (e_g v) u = e_g (v u), so by induction on length u fixes every
    right-nested word in the e_g on both sides, and these span a.

    Checked on the int index: with m the lcm of u's denominators (1 over
    GF(p)), u e_g = e_g exactly when (m u) f_g = m N f_g in the basis
    f_i = N e_i, whose products the index gives, and likewise on the left.
    """
    p = a.field.p
    mu = _int_entries(u)
    one = lcm(*[x.denominator for x in u if x]) * a._scale  # m N
    for g in _generators(a):
        for w in (a._vec_mul_basis(mu, g), a._basis_mul_vec(g, mu)):
            diff = dict(w or ())
            diff[g] = diff.get(g, 0) - one
            if any(x if p is None else x % p for x in diff.values()):
                return g
    return None


def _validated(a: Algebra) -> Algebra:
    """a, validated: associativity exactly, through the generating set, which
    stays memoized for the algebra's later use, then a two-sided unity
    solved for (kept if present).  Raises NotAssociative with the first
    failing basis triple on failure."""
    _check_associativity(a)
    a.unity = _find_unity(a)
    return a


def build_algebra(field: FieldSpec, dim: int, table, labels=None) -> Algebra:
    """Validate a table {(i, j): [(k, scalar), ...]} and wrap it as an Algebra.

    Scalars are coerced into the field first, then the index is built
    (`_index`: index ranges, repeated k, zeros) and checked (`_validated`).
    """
    if dim < 0:
        raise DimensionMismatch("dimension must be non-negative")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise DimensionMismatch("labels length != dim")
    coerce = field.coerce
    entries = [(i, j, [(k, coerce(c).as_integer_ratio()) for k, c in pairs])
               for (i, j), pairs in table.items()]
    return _validated(_derived(field, dim, entries, labels))


def _derived(field, dim, entries, labels=None, unity=None) -> Algebra:
    """Internal constructor for algebras from `_index` entries, unchecked:
    for those associative by construction, and under `_validated` for a
    table from outside."""
    if labels is not None:
        labels = tuple(labels)
    n, rows = _index(field, dim, entries)
    return Algebra(field, dim, n, rows, labels, unity, _trusted=True)


# ---------------------------------------------------------------------------
# Centers, commutators, ideals
# ---------------------------------------------------------------------------


def _generators(a: Algebra):
    """Basis indices g, increasing, whose e_g generate a as an algebra;
    computed once per algebra and kept in its memo.

    Candidates come by how many table entries land on them, fewest first,
    ties by index, so factors come before their products.  S is the span of
    the words in the generators so far.  A candidate outside S is admitted
    (its insert returns a row), and S is then closed under left
    multiplication by the generators so far; a span that holds the
    generators and is closed so holds every word in them.  A word v is
    multiplied only by the generators whose index row meets its support,
    since e_h v is zero for any other h.  S ends as a.
    The closure stops as soon as S is a, since no later candidate can be
    admitted then: G is the one a closure run out would give, as a closed
    span does not depend on the order of its products.  Nothing here
    assumes associativity: S is the span of the right-nested words
    e_g1 (e_g2 (... e_gm)), which is what `_check_associativity`, run on
    the table before it is known to be associative, relies on.
    """
    g = a._memo.get("generators")
    if g is None:
        n, rows = a.dim, a._rows
        hits = [0] * n
        for row in rows:
            for pairs in row.values():
                for k, _ in pairs:
                    hits[k] += 1
        red = _make_reducer(a.field, n)
        # words: every row red returned, a basis of S, so len(words) = red.dim
        gens, words = [], []
        for c in sorted(range(n), key=lambda k: (hits[k], k)):
            if len(words) == n:
                break
            r = red.insert({c: 1})
            if r is None:
                continue
            gens.append(c)
            todo = [(c, v) for v in words if not rows[c].keys().isdisjoint(v)]
            todo += [(h, r) for h in gens if not rows[h].keys().isdisjoint(r)]
            words.append(r)
            while todo and len(words) < n:
                h, v = todo.pop()
                w = a._basis_mul_vec(h, v)
                if w is not None and (r := red.insert(w)) is not None:
                    todo.extend((k, r) for k in gens if not rows[k].keys().isdisjoint(r))
                    words.append(r)
        g = a._memo["generators"] = tuple(sorted(gens))
    return g


def center(a: Algebra) -> Subspace:
    """The subspace {z : zx = xz for all x}, `_quotient_center` of the zero
    ideal.  Computed once per algebra and kept in its memo, as the
    generators are; algebras are immutable.
    """
    z = a._memo.get("center")
    if z is None:
        z = a._memo["center"] = _quotient_center(a)
    return z


def _is_central(a: Algebra, z) -> bool:
    """Whether z commutes with every element of a, without building Z(a).

    z e_g = e_g z for every g in `_generators(a)` suffices: the centralizer
    of z is a subalgebra, as zv = vz and zw = wz give z(vw) = (vz)w =
    v(wz) = (vw)z, and the e_g generate a.  Checked on the int index, on z
    with its denominators cleared, each commutator reduced mod p over GF(p).
    """
    p = a.field.p
    return not any(x if p is None else x % p
                   for w in _generator_commutators(a, _int_entries(z)) for x in w.values())


def _center_cap(a: Algebra, r: Subspace) -> Subspace:
    """Z(a) cap R for a subspace R, read off R's int rows r_j, without
    building Z(a).

    It is the image under alpha -> sum alpha_j r_j of the kernel of
    sum_j alpha_j [r_j, e_g] = 0, g in G = `_generators(a)`:
      - the centralizer of G is Z(a), as in `_is_central`: a centralizer
        is a subalgebra, and the e_g generate a;
      - the r_j are independent, so the map is injective, and its image of
        the kernel is exactly Z cap R;
      - RREF is unique, so the canonical rows are those of any other way
        of computing Z cap R, Zassenhaus on Z(a) and R among them.
    A check that compares them with claimed rows accepts exactly what it
    accepted against Zassenhaus, and no byte built from them changes.  The
    commutators are N times the true ones, over GF(p) not yet reduced
    mod p; a kernel reads each equation only up to such a factor.
    """
    rows = r.reducer.pivot_rows()
    eqs = defaultdict(dict)  # (k, i) -> {j: coordinate i of N [r_j, e_g]}, g the k-th generator
    for j, row in enumerate(rows):
        for k, w in enumerate(_generator_commutators(a, row)):
            for i, x in w.items():
                if x:
                    eqs[k, i][j] = x
    red = _make_reducer(a.field, a.dim)
    for alpha in kernel_of_rows(a.field, eqs.values(), len(rows)).reducer.pivot_rows():
        v = defaultdict(int)
        for j, c in alpha.items():
            for i, x in rows[j].items():
                v[i] += c * x
        red.insert(v)
    return Subspace(a.field, red)


def _quotient_center(a: Algebra, ideal=None) -> Subspace:
    """Z(A/I) for the ideal I (0 for None), in the coordinates of I's free
    columns, those of quotient(), without building A/I.

    The e_c, c a free column, map onto a basis of A/I, and the image of z is
    central once it commutes with that of every e_g, g in `_generators(a)`,
    as a centralizer is a subalgebra.  So Z(A/I) is the kernel of
    z -> ([z, e_g] mod I)_g on the span of the e_c, read off the index.
    With I's canonical rows r_q (r_q[q] = 1, zero at the other pivots),
    coordinate i of w mod I is w[i] - sum_q w[q] r_q[i]: the equation of
    each pivot q goes, r_q[i] times into that of each free i.

    That runs on I's int rows rho_q = d r_q, d = rho_q[q] > 0 (1 over
    GF(p)).  Each free equation is kept as row = s E, E the true one and
    s > 0 in `scale`.  Taking r_q[i] eq out of E, eq the pivot equation,
    which no step changes, makes it d s (E - (rho_q[i] / d) eq) =
    d row - s rho_q[i] eq, of scale d s.  A kernel reads each equation
    only up to such a factor.
    """
    index = a._rows
    ideal_rows = {} if ideal is None else ideal.reducer.rows
    pos = {c: k for k, c in enumerate(c for c in range(a.dim) if c not in ideal_rows)}
    eqs = defaultdict(dict)  # (g, i) -> {k: coordinate i of N [e_c, e_g], c the k-th free column}
    for g in _generators(a):
        for c, k in pos.items():  # e_c e_g
            for i, x in index[c].get(g, ()):
                r = eqs[g, i]
                r[k] = r.get(k, 0) + x
        for c, pairs in index[g].items():  # e_g e_c
            if (k := pos.get(c)) is not None:
                for i, x in pairs:
                    r = eqs[g, i]
                    r[k] = r.get(k, 0) - x
    scale = defaultdict(lambda: 1)  # (g, i) -> s, for the free i
    for g, q in [key for key in eqs if key[1] in ideal_rows]:
        eq = eqs.pop((g, q))
        rho = ideal_rows[q]
        d = rho[q]
        for i, y in rho.items():
            if i != q:
                key = g, i
                r, s = eqs[key], scale[key]
                if d != 1:
                    for k in r:
                        r[k] *= d
                    scale[key] = d * s
                y *= s
                for k, x in eq.items():
                    r[k] = r.get(k, 0) - y * x
    return kernel_of_rows(a.field, eqs.values(), len(pos))


def commutator_space(x: Element) -> Subspace:
    """span{[x, e_i] : i = 0..dim-1}, from x with its denominators cleared
    (the same span), so only ints are multiplied.

    The rows go in sparsest first, which keeps the fill-in of the
    elimination small.  The span's reduced rows are unique (primitive with
    a positive pivot over Q, a unit pivot over GF(p)), so they do not depend
    on the order."""
    a = x.algebra
    red = _make_reducer(a.field, a.dim)
    for w in sorted(_commutator_rows(a, _int_entries(x.coords)), key=len):
        red.insert(w)
    return Subspace(a.field, red)


def _commutator_rows(a: Algebra, v):
    """N times [v, e_i] for each i where a product meets v, as dicts in
    increasing i; v is a dict of coordinates.

    Every v e_i comes from one walk over the index rows of v's support, in
    place of a lookup for each j in it and each i; e_i v then walks row i
    once and looks v up.  The sums are those of `_vec_mul_basis(v, i)` minus
    `_basis_mul_vec(i, v)`, term for term, and they are yielded for the
    same i in the same order, so everything built from them is unchanged.
    """
    rows = a._rows
    left = {}  # i -> N v e_i, for the i some v_j e_j e_i is listed for
    for j, x in v.items():
        if x:
            for i, pairs in rows[j].items():
                acc = left.get(i)
                if acc is None:
                    acc = left[i] = {}
                for k, c in pairs:
                    acc[k] = acc.get(k, 0) + x * c
    for i in range(a.dim):
        w = left.get(i)
        for j, pairs in rows[i].items():
            y = v.get(j)
            if y:
                if w is None:
                    w = {}
                for k, c in pairs:
                    w[k] = w.get(k, 0) - y * c
        if w is not None:
            yield w


def _generator_commutators(a: Algebra, v):
    """N times [v, e_g] for each g in `_generators(a)`, increasing, as dicts
    of the entries the two products reach (an entry may cancel to 0); v is
    a dict of coordinates.  They vanish exactly when v is central
    (`_is_central`), and they generate Id([v, A]).

    Let I be the ideal they generate.  By the Leibniz rule [v, xy] =
    [v, x]y + x[v, y], [v, xy] lies in I once [v, x] and [v, y] do; so by
    induction on length [v, w] lies in I for every word w in the e_g, and
    these words span A.  So [v, A] lies in I, which lies in Id([v, A]).
    """
    for g in _generators(a):
        w = a._vec_mul_basis(v, g) or {}
        for k, c in (a._basis_mul_vec(g, v) or {}).items():
            w[k] = w.get(k, 0) - c
        yield w


def _ideal_closure(a: Algebra, vectors, stop=None, left_only=False):
    """Fixpoint of S <- S + sum_g e_g S + S e_g starting from span(vectors),
    g over the generators of a (`_generators`).  A subspace closed under
    e_g v and v e_g is closed under every word in the e_g, hence under every
    e_i, unital or not: the fixpoint is the ideal the vectors generate.

    With left_only, only the left products e_g v are taken.  The fixpoint
    is then V + AV, V = span(vectors), the left ideal V generates: closed
    under each e_g from the left, S is closed under every word in the e_g,
    by associativity.  It is the two-sided ideal Id(V) exactly when V + AV
    is closed under right products, which a caller must know; two cases
    serve, both unital or not:
      - V = [x, A].  By [x, b]c = [x, bc] - b[x, c] and
        a[x, b]c = a[x, bc] - ab[x, c], (V + AV)A lies in V + AV.
      - V in Z(A).  Then vc = cv and (av)c = a(cv) = (ac)v.

    Returns the reducer.  The rows insert returns form one work list, the
    vectors' first, each appended as it arrives; the list is walked front
    to back while it grows, and each row is multiplied by every e_g, left
    product then right (left only, with left_only), just before those
    products are inserted.  The walk ends at the end of the list or once
    the span is full.

    stop, when given, is called as stop(reducer, row) after each newly
    added row; returning True ends the closure early -- used for membership
    tests that only need a lower bound of the ideal.  Such a stop test
    keeps a running residual of its target: reducer.advance_residual(res,
    row) eliminates it at row's pivot only, so the target is never reduced
    from scratch and each test costs at most one elimination.
    """
    n = a.dim
    gens = _generators(a)
    red = _make_reducer(a.field, n)
    work = []
    for v in vectors:
        r = red.insert(v)
        if r is not None:
            work.append(r)
            if (stop is not None and stop(red, r)) or red.dim == n:
                return red
    for v in work:  # grows while it is walked
        for g in gens:
            left = a._basis_mul_vec(g, v)
            for w in (left,) if left_only else (left, a._vec_mul_basis(v, g)):
                if w is not None and (r := red.insert(w)) is not None:
                    work.append(r)
                    if (stop is not None and stop(red, r)) or red.dim == n:
                        return red
    return red


def _coords_of(a: Algebra, xs):
    vecs = []
    for x in xs:
        if isinstance(x, Element):
            if x.algebra is not a:
                raise AlgebraMismatch("generator belongs to a different algebra")
            vecs.append(x.coords)
        else:
            if len(x) != a.dim:
                raise DimensionMismatch("generator has wrong length")
            vecs.append(tuple(a.field.coerce(c) for c in x))
    return vecs


def ideal_generated(a: Algebra, xs) -> Subspace:
    """The two-sided ideal generated by the elements xs (generators included).

    For non-unital algebras this is span(xs) + A xs + xs A + A xs A.
    """
    return Subspace(a.field, _ideal_closure(a, _coords_of(a, xs)))


def ideal_witness(a: Algebra, s: Subspace):
    """None if s is a two-sided ideal, else the lexicographically first
    witness (vec_idx, basis_idx, side) over all basis vectors of a.

    s is an ideal once e_g v and v e_g lie in s for every generator g of a
    and every basis row v (see _ideal_closure), so that is checked first;
    only when it fails are all basis vectors scanned for the first witness.
    A scan that finds none contradicts that argument: ConsistencyError.
    An s of full dimension is a itself, an ideal, and is not multiplied.
    """
    if s.ambient_dim != a.dim or s.field != a.field:
        raise DimensionMismatch("subspace does not live in the algebra")
    if s.dim == a.dim:  # a itself
        return None
    red = s.reducer
    # each reducer row is a nonzero multiple of the canonical row with the
    # same pivot: same witness, int arithmetic over Q
    rows = [red.rows[p] for p in s.pivots]
    gens = _generators(a)
    if all(_escape(a, red, v, gens) is None for v in rows):
        return None
    for vi, v in enumerate(rows):
        if (w := _escape(a, red, v, range(a.dim))) is not None:
            return (vi, *w)
    raise ConsistencyError("the generating-set check found an escape, but no basis vector does")


def _escape(a: Algebra, red, v, indices):
    """The first (i, side) over indices with e_i v ("left") or v e_i
    ("right") outside the span of red, or None."""
    for i in indices:
        w = a._basis_mul_vec(i, v)
        if w is not None and not red.contains(w):
            return (i, "left")
        w = a._vec_mul_basis(v, i)
        if w is not None and not red.contains(w):
            return (i, "right")
    return None


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


@dataclass
class QuotientMap:
    """The canonical surjection A -> A/ideal.

    The target basis consists of the images of the non-pivot coordinates of
    the ideal's RREF basis, so the construction is deterministic.
    """

    ideal: Subspace
    target: Algebra
    free_cols: tuple

    def project_vec(self, v):
        w = self.ideal.reduce(v)
        return tuple(w[c] for c in self.free_cols)


def quotient(a: Algebra, ideal: Subspace) -> QuotientMap:
    """Build a/ideal; raises NotAnIdeal (with witness) when ideal is not one.

    Each entry of a between free columns goes to its residual mod the ideal,
    which only free coordinates survive; the entries are then put in
    (i, j) order, as a walk over the free columns would give them."""
    w = ideal_witness(a, ideal)
    if w is not None:
        raise NotAnIdeal(*w)
    n, red, gf = a.dim, ideal.reducer, a.field.p is not None
    pivot_set = set(ideal.pivots)
    free = tuple(c for c in range(n) if c not in pivot_set)
    pos = {c: i for i, c in enumerate(free)}
    entries = []
    for x, y, pairs in _ratios(a):
        if x in pos and y in pos:
            img = red.exact_residual({k: r[0] if gf else Fraction(*r) for k, r in pairs})
            if img:
                pairs = [(pos[k], c.as_integer_ratio()) for k, c in sorted(img.items())]
                entries.append((pos[x], pos[y], pairs))
    entries.sort()
    labels = tuple(a.label(c) for c in free) if a.labels else None
    target = _derived(a.field, len(free), entries, labels)
    if a.unity is not None:
        w0 = ideal.reduce(a.unity)
        target.unity = tuple(w0[c] for c in free)
    else:
        target.unity = _find_unity(target)
    return QuotientMap(ideal, target, free)


# ---------------------------------------------------------------------------
# Products, tensors, unitization, opposite
# ---------------------------------------------------------------------------


def direct_product(a: Algebra, b: Algebra) -> Algebra:
    """A x B with block-diagonal structure constants."""
    if a.field != b.field:
        raise FieldMismatch("direct product over different fields")
    n, m = a.dim, b.dim
    entries = list(_ratios(a))
    entries += [(i + n, j + n, [(k + n, r) for k, r in pairs]) for i, j, pairs in _ratios(b)]
    labels = None
    if a.labels or b.labels:
        labels = tuple(a.label(i) for i in range(n)) + tuple(b.label(j) for j in range(m))
    unity = None
    if a.unity is not None and b.unity is not None:
        unity = tuple(a.unity) + tuple(b.unity)
    return _derived(a.field, n + m, entries, labels, unity)


def tensor_product(a: Algebra, b: Algebra) -> Algebra:
    """A (x) B with basis ordered left-factor major: (i, p) -> i*dim(B) + p.

    Its constants are the products of those of A and B.  Two reduced ratios
    x/w and y/z multiply to ((x/u)(y/v), (w/v)(z/u)), u = gcd(x, z) and
    v = gcd(y, w), which is reduced: the four cross pairs are coprime.  Each
    row's j and each entry's k come in the order the factors' entries give,
    as a table read row by row would give them.
    """
    if a.field != b.field:
        raise FieldMismatch("tensor product over different fields")
    f = a.field
    p, nb = f.p, b.dim
    rows_b = _entry_rows(b)
    entries = []
    for i, row_a in enumerate(_entry_rows(a)):
        for q, row_b in enumerate(rows_b):
            for j, pa in row_a:
                for s, pb in row_b:
                    entry = []  # k*nb + r increases with (k, r), as pa and pb are sorted
                    for k, (x, w) in pa:
                        for r, (y, z) in pb:
                            u, v = gcd(x, z), gcd(y, w)
                            num = (x // u) * (y // v) if p is None else x * y % p
                            entry.append((k * nb + r, (num, (w // v) * (z // u))))
                    entries.append((i * nb + q, j * nb + s, entry))
    labels = None
    if a.labels or b.labels:
        labels = tuple(
            f"{a.label(i)}(x){b.label(s)}" for i in range(a.dim) for s in range(nb)
        )
    unity = None
    if a.unity is not None and b.unity is not None:
        unity = tuple(
            f.mul(a.unity[i], b.unity[s]) for i in range(a.dim) for s in range(nb)
        )
    return _derived(f, a.dim * nb, entries, labels, unity)


def _entry_rows(a: Algebra):
    """The entries of `_ratios(a)` by row: row i lists (j, pairs)."""
    rows = [[] for _ in range(a.dim)]
    for i, j, pairs in _ratios(a):
        rows[i].append((j, pairs))
    return rows


def _cell_algebra(field: FieldSpec, n: int, cells) -> Algebra:
    """Span of the n x n matrix units e_pq, (p, q) in cells, in that order,
    with e_pq e_qs = e_ps when (p, s) is a cell; unchecked.  The unity is set
    when every diagonal cell is present."""
    index = {cell: i for i, cell in enumerate(cells)}
    entries = []
    for (p, q), i in index.items():
        for (r, s), j in index.items():
            if q == r and (p, s) in index:
                entries.append((i, j, [(index[(p, s)], (1, 1))]))
    unity = None
    if all((p, p) in index for p in range(n)):
        unity = tuple(field.one if p == q else field.zero for p, q in cells)
    return _derived(field, len(cells), entries, [f"e{p + 1}{q + 1}" for p, q in cells], unity)


def matrix_units_algebra(field: FieldSpec, n: int) -> Algebra:
    """M_n(F) on the matrix-unit basis e_pq, index p*n + q (0-based)."""
    return _cell_algebra(field, n, [(p, q) for p in range(n) for q in range(n)])


def matrix_algebra(a: Algebra, n: int) -> Algebra:
    """n x n matrices over a, realized as a (x) M_n(F)."""
    if n < 1:
        raise DimensionMismatch("matrix size must be >= 1")
    return tensor_product(a, matrix_units_algebra(a.field, n))


def unitization(a: Algebra) -> Algebra:
    """Adjoin a unity (also when a already has one; the result is dim+1).

    The unity is basis vector 0, and e_i of a is basis vector i+1, so a sits
    inside as the ideal of vectors with coordinate 0 equal to zero."""
    f, one = a.field, (1, 1)
    entries = [(0, 0, [(0, one)])]
    for i in range(1, a.dim + 1):
        entries += [(0, i, [(i, one)]), (i, 0, [(i, one)])]
    entries += [(i + 1, j + 1, [(k + 1, r) for k, r in pairs]) for i, j, pairs in _ratios(a)]
    labels = None
    if a.labels:
        labels = ("1",) + tuple(a.labels)
    unity = (f.one,) + (f.zero,) * a.dim
    return _derived(f, a.dim + 1, entries, labels, unity)


def opposite(a: Algebra) -> Algebra:
    """Same space, reversed multiplication: c_op[i][j] = c[j][i]."""
    entries = [(j, i, pairs) for i, j, pairs in _ratios(a)]
    return _derived(a.field, a.dim, entries, a.labels, a.unity)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_commutative(a: Algebra) -> bool:
    rows = a._rows
    return all(rows[j].get(i) == pairs for i, row in enumerate(rows) for j, pairs in row.items())


def nilpotency_index(a: Algebra):
    """Smallest k with A^k = 0, or None if the power chain stalls above zero.

    A^{k+1} is spanned by the products e_i w, w in a basis of A^k.  The
    chain stalls when a power is not smaller than the one before.  As
    A^{k+1} lies in A^k, that means A^{k+1} = A^k != 0 and A is not
    nilpotent; and because the dimension drops at every step, the chain
    ends within dim A + 1 steps.
    """
    n = a.dim
    cur = [{i: 1} for i in range(n)]
    k = 1
    while cur:
        red = _make_reducer(a.field, n)
        nxt = []
        for i in range(n):
            for w in cur:
                acc = a._basis_mul_vec(i, w)
                if acc is not None and (r := red.insert(acc)) is not None:
                    nxt.append(r)
                    if len(nxt) >= len(cur):
                        return None
        cur, k = nxt, k + 1
    return k
