"""Dense oracles used to cross-check structure-constant code.

The matrix helpers multiply honest n x n Fraction matrices entry by entry,
and `dense_product` sums an algebra's exact table term by term, so their
results are independent of the int index under test.  `revalidate` re-runs
the load-time checks on an algebra that was built without them.
"""

from fractions import Fraction

from censtab.algebras import _check_associativity, _unity_failure


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
