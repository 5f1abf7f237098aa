"""Dense oracles used to cross-check structure-constant code.

The matrix helpers multiply honest n x n Fraction matrices entry by entry,
and `dense_product` sums an algebra's exact table term by term, so their
results are independent of the int index under test.  `revalidate` re-runs
the load-time checks on an algebra that was built without them.  The
`table_*` constructions are the reference for those of censtab: they read
`a.table` and hand `_index` a table of canonical scalars, the way the
constructions once did.  `strip_timings` cuts the one member of a CLI
`--json` document that varies between identical runs.
"""

import json
from fractions import Fraction

from censtab.algebras import Algebra, _check_associativity, _find_unity, _index, _unity_failure


def dense_product(a, x, y):
    """The coordinates of x * y in the algebra a, summed over its exact table
    a.table (reduced mod p over GF(p)); x and y are coordinate sequences."""
    p = a.field.p
    out = [0] * a.dim
    for (i, j), pairs in a.table.items():
        if x[i] and y[j]:
            for k, c in pairs:
                out[k] += x[i] * y[j] * c
    return tuple(Fraction(v) if p is None else v % p for v in out)


def dense_commutator(a, x, y):
    """[x, y] = xy - yx, by `dense_product`."""
    return tuple(a.field.sub(u, v) for u, v in zip(dense_product(a, x, y), dense_product(a, y, x)))


def revalidate(a):
    """Check a as a load does: associativity through the generating set, and
    the stored unity, if any, on both sides of every generator."""
    _check_associativity(a)
    assert a.unity is None or _unity_failure(a, a.unity) is None


def derived_from_table(field, dim, table, labels=None, unity=None):
    """The algebra of a table {(i, j): [(k, scalar), ...]} of canonical
    scalars of the field, unchecked, through `_index`."""
    entries = []
    for (i, j), pairs in table.items():
        entries.append((i, j, [(k, c.as_integer_ratio()) for k, c in pairs]))
    n, rows = _index(field, dim, entries)
    return Algebra(field, dim, n, rows, None if labels is None else tuple(labels), unity, _trusted=True)


def table_quotient(a, ideal):
    """a/ideal on the free columns of the ideal's RREF basis."""
    n, red = a.dim, ideal.reducer
    pivot_set = set(ideal.pivots)
    free = tuple(c for c in range(n) if c not in pivot_set)
    pos = {c: i for i, c in enumerate(free)}
    table = {}
    for ai, x in enumerate(free):
        for bi, y in enumerate(free):
            pairs = a.table.get((x, y))
            if not pairs:
                continue
            img = red.exact_residual(dict(pairs), n)
            if img:
                table[(ai, bi)] = tuple(sorted((pos[k], val) for k, val in img.items()))
    labels = tuple(a.label(c) for c in free) if a.labels else None
    target = derived_from_table(a.field, len(free), table, labels)
    if a.unity is not None:
        w0 = ideal.reduce(a.unity)
        target.unity = tuple(w0[c] for c in free)
    else:
        target.unity = _find_unity(target)
    return target


def table_direct_product(a, b):
    n, m = a.dim, b.dim
    table = dict(a.table)
    for (i, j), pairs in b.table.items():
        table[(i + n, j + n)] = tuple((k + n, c) for k, c in pairs)
    labels = None
    if a.labels or b.labels:
        labels = tuple(a.label(i) for i in range(n)) + tuple(b.label(j) for j in range(m))
    unity = None
    if a.unity is not None and b.unity is not None:
        unity = tuple(a.unity) + tuple(b.unity)
    return derived_from_table(a.field, n + m, table, labels, unity)


def table_tensor_product(a, b):
    f, nb = a.field, b.dim
    table = {}
    for (i, j), pa in a.table.items():
        for (p, q), pb in b.table.items():
            entry = [(k * nb + r, f.mul(c, d)) for k, c in pa for r, d in pb]
            table[(i * nb + p, j * nb + q)] = tuple(sorted(entry))
    labels = None
    if a.labels or b.labels:
        labels = tuple(f"{a.label(i)}(x){b.label(s)}" for i in range(a.dim) for s in range(nb))
    unity = None
    if a.unity is not None and b.unity is not None:
        unity = tuple(f.mul(a.unity[i], b.unity[s]) for i in range(a.dim) for s in range(nb))
    return derived_from_table(f, a.dim * nb, table, labels, unity)


def table_cell_algebra(field, n, cells):
    index = {cell: i for i, cell in enumerate(cells)}
    table = {}
    one = field.one
    for (p, q), i in index.items():
        for (r, s), j in index.items():
            if q == r and (p, s) in index:
                table[(i, j)] = ((index[(p, s)], one),)
    unity = None
    if all((p, p) in index for p in range(n)):
        unity = tuple(one if p == q else field.zero for p, q in cells)
    return derived_from_table(field, len(cells), table, [f"e{p + 1}{q + 1}" for p, q in cells], unity)


def table_unitization(a):
    f = a.field
    one = f.one
    table = {(0, 0): ((0, one),)}
    for i in range(a.dim):
        table[(0, i + 1)] = ((i + 1, one),)
        table[(i + 1, 0)] = ((i + 1, one),)
    for (i, j), pairs in a.table.items():
        table[(i + 1, j + 1)] = tuple((k + 1, c) for k, c in pairs)
    labels = None
    if a.labels:
        labels = ("1",) + tuple(a.labels)
    unity = (one,) + (f.zero,) * a.dim
    return derived_from_table(f, a.dim + 1, table, labels, unity)


def table_opposite(a):
    table = {(j, i): pairs for (i, j), pairs in a.table.items()}
    return derived_from_table(a.field, a.dim, table, a.labels, a.unity)


def zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def unit(n, p, q):
    m = zeros(n)
    m[p][q] = Fraction(1)
    return m


def identity(n):
    m = zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_mul(a, b):
    n = len(a)
    out = zeros(n)
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] += a[i][k] * b[k][j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator_m(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


class MatrixFamily:
    """A matrix algebra presented by an explicit list of dense basis matrices."""

    def __init__(self, n, basis, to_coords):
        self.n = n
        self.basis = basis
        self.dim = len(basis)
        self._to_coords = to_coords

    def coords_to_mat(self, coords):
        out = zeros(self.n)
        for c, b in zip(coords, self.basis):
            if c:
                out = mat_add(out, mat_scale(Fraction(c), b))
        return out

    def mat_to_coords(self, m):
        coords = self._to_coords(m)
        assert self.coords_to_mat(coords) == m, "matrix outside the family"
        return coords

    def table(self):
        """Structure constants computed by dense multiplication."""
        t = {}
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                coords = self.mat_to_coords(mat_mul(bi, bj))
                pairs = tuple((k, c) for k, c in enumerate(coords) if c)
                if pairs:
                    t[(i, j)] = pairs
        return t


def full_family(n):
    cells = [(p, q) for p in range(n) for q in range(n)]
    basis = [unit(n, p, q) for p, q in cells]

    def to_coords(m):
        return [m[p][q] for p, q in cells]

    return MatrixFamily(n, basis, to_coords)


def upper_family(n):
    cells = [(p, q) for p in range(n) for q in range(p, n)]
    basis = [unit(n, p, q) for p, q in cells]

    def to_coords(m):
        return [m[p][q] for p, q in cells]

    return MatrixFamily(n, basis, to_coords)


def strict_upper_family(n):
    cells = [(p, q) for p in range(n) for q in range(p + 1, n)]
    basis = [unit(n, p, q) for p, q in cells]

    def to_coords(m):
        return [m[p][q] for p, q in cells]

    return MatrixFamily(n, basis, to_coords)


def scalar_plus_strict_family(n):
    cells = [(p, q) for p in range(n) for q in range(p + 1, n)]
    basis = [identity(n)] + [unit(n, p, q) for p, q in cells]

    def to_coords(m):
        return [m[0][0]] + [m[p][q] for p, q in cells]

    return MatrixFamily(n, basis, to_coords)


def strip_timings(text):
    """text with the top-level "timings" member removed, other bytes untouched."""
    key = '\n  "timings": '
    start = text.find(key)
    if start < 0:
        return text
    _, end = json.JSONDecoder().raw_decode(text, start + len(key))
    if text[end] == ",":
        return text[:start] + text[end + 1:]
    # last member: drop the comma that precedes it instead
    return text[: text.rfind(",", 0, start)] + text[end:]
