"""The shared test toolkit: dense references, presentations, work counters
and data.  Test modules share helpers through this module; none imports
another (`test_imports.py`).

The matrix helpers multiply honest n x n Fraction matrices entry by entry,
and `dense_product` sums an algebra's exact table term by term, so their
results are independent of the int index under test; `dense_ideal` closes a
two-sided ideal under every e_i with them.  `in_commutator_ideal` decides
membership in Id([x, A]) by a closure in the algebra of x itself, the
reference for the tensor memberships the engine decides in A.
`ema_maximal_ideal` is the ideal of `ema` whose quotient is the bigger
field.  `presented` writes an algebra
in another basis and `carried` maps rows back to the old one.  `count`
wraps the engine's functions to count their calls.  `reloaded` and
`replays` go through the file format as an independent reader does.
`revalidate` re-runs the load-time checks on an algebra that was built
without them.  The `table_*` constructions are the reference for those of
censtab: they read `a.table` and hand `_index` a table of canonical
scalars, the way the constructions once did.  `strip_timings` cuts the one
member of a CLI `--json` document that varies between identical runs.
"""

import inspect
import json
import random
from fractions import Fraction

from censtab.algebras import (
    Algebra,
    _check_associativity,
    _find_unity,
    _generator_commutators,
    _index,
    _unity_failure,
    build_algebra,
    direct_product,
)
from censtab.catalog import build
from censtab.cli import main
from censtab.fileformat import (
    algebra_from_json,
    algebra_to_json,
    dump_json,
    field_to_json,
    report_to_json,
    verify_report_json,
)
from censtab.linalg import Subspace, _int_entries, _make_reducer, express_in_span, span
from censtab.scalars import RATIONALS
from censtab.stability import _in_ideal, random_element


def dense_product(a, x, y):
    """The coordinates of x * y in the algebra a, summed over its exact table
    a.table (reduced mod p over GF(p)); x and y are coordinate sequences.
    The entries (i, j) are looked up over the supports of x and y."""
    p, table = a.field.p, a.table
    ys = [(j, w) for j, w in enumerate(y) if w]
    out = [0] * a.dim
    for i, v in enumerate(x):
        if v:
            for j, w in ys:
                for k, c in table.get((i, j), ()):
                    out[k] += v * w * c
    return tuple(Fraction(v) if p is None else v % p for v in out)


def dense_commutator(a, x, y):
    """[x, y] = xy - yx, by `dense_product`."""
    return tuple(a.field.sub(u, v) for u, v in zip(dense_product(a, x, y), dense_product(a, y, x)))


def dense_ideal(a, gens):
    """The two-sided ideal the vectors gens generate: their span, closed
    under e_i v and v e_i for every basis vector e_i by `dense_product`s.
    Each vector that enlarges the span is multiplied once; the products of
    a dependent one lie in the span already, by linearity."""
    units = [a.basis_element(i).coords for i in range(a.dim)]
    red = _make_reducer(a.field, a.dim)
    work = [v for v in gens if red.insert(v) is not None]
    while work:
        v = work.pop()
        for e in units:
            for w in (dense_product(a, e, v), dense_product(a, v, e)):
                if red.insert(w) is not None:
                    work.append(w)
    return Subspace(a.field, red)


def in_commutator_ideal(x, target):
    """Whether target, a dict of int entries, lies in Id([x, A]), decided
    by the two-sided closure of [x, e_g], g in G = `_generators(a)`, alone
    (these generate Id([x, A]); see `_generator_commutators`)."""
    a = x.algebra
    return _in_ideal(a, _generator_commutators(a, _int_entries(x.coords)), [target])


def ema_maximal_ideal(a):
    """The maximal ideal of the catalog's `ema` algebra a, with quotient the
    field K: the beta corner and the lambda slot, e_d, ..., e_2d."""
    f, n = a.field, a.dim
    return span(f, [tuple(f.one if i == k else f.zero for i in range(n)) for k in range(n // 2, n)], n)


# -- changes of basis ----------------------------------------------------------


def _entries(row):
    """The stored entries (k, x) of a matrix row, a sequence or a dict."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def carried(field, rows, m):
    """Each row r, coordinates in the basis f_i = sum_k m[i][k] e_k, carried
    to the e_k: sum_i r_i m[i].  With m = inverse(field, p) it carries
    e-coordinates to those in the f_i of p."""
    out = []
    for r in rows:
        v = [field.zero] * len(m)
        for i, x in enumerate(r):
            if x:
                for k, y in _entries(m[i]):
                    v[k] = field.add(v[k], field.mul(x, y))
        out.append(tuple(v))
    return out


def inverse(field, p):
    """The rows of p^-1, as dicts of their nonzero entries: e_k = sum_i
    p^-1[k][i] f_i for f_i = sum_k p[i][k] e_k."""
    n = len(p)
    units = [{k: field.one} for k in range(n)]
    return [{i: c for i, c in enumerate(express_in_span(field, p, e, n)) if c} for e in units]


def _presented_table(a, p):
    """The table of a in the basis f_i = sum_k p[i][k] e_k (see `presented`)."""
    f = a.field
    cols = [[] for _ in range(a.dim)]  # cols[k]: (i, p_ik) for every stored entry
    for i, row in enumerate(p):
        for k, x in _entries(row):
            cols[k].append((i, x))
    acc = {}  # (i, j) -> f_i f_j in the e_m
    for (k, l), pairs in a.table.items():
        for i, x in cols[k]:
            for j, y in cols[l]:
                v, xy = acc.setdefault((i, j), {}), f.mul(x, y)
                for m, c in pairs:
                    v[m] = f.add(v.get(m, f.zero), f.mul(xy, c))
    inv = inverse(f, p)
    table = {}
    for key, v in acc.items():
        w = carried(f, [[v.get(m, f.zero) for m in range(a.dim)]], inv)[0]
        table[key] = [(r, c) for r, c in enumerate(w) if c]
    return table


def presented(a, p):
    """a in the basis f_i = sum_k p[i][k] e_k, p invertible with rows that
    are sequences or dicts of entries, built (so validated) by build_algebra.

    f_i f_j = sum p_ik p_jl e_k e_l is summed over a's entries (k, l) in
    index order, through every stored entry of p, zero or not, and written
    in the f_i; the pairs (i, j) enter the table as that walk first reaches
    them.  So a dense p (sequence rows) gives them in (i, j) order, and a
    monomial p (`monomial`) relabels a's index in its own order.
    """
    return build_algebra(a.field, a.dim, _presented_table(a, p))


def presented_document(a, p):
    """The file of `presented(a, p)`, written without building it: entries
    and pairs sorted, each scalar as str gives it, no labels."""
    table = sorted([i, j, [[k, str(c)] for k, c in pairs]]
                   for (i, j), pairs in _presented_table(a, p).items() if pairs)
    return {"field": field_to_json(a.field), "dim": a.dim, "table": table}


def monomial(d, perm):
    """The rows of f_i = d_i e_perm(i), a rescaled permutation of the basis."""
    return [{k: x} for k, x in zip(perm, d)]


def dense_basis(a, rng):
    """a presented in the basis f_i = sum_j P_ij e_j, for a random invertible
    P with entries in [-2, 2]: the same algebra with a dense table.  Returns
    the new algebra and P."""
    f, n = a.field, a.dim
    while True:
        p = [tuple(f.coerce(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)]
        if span(f, p, n).dim == n:
            return presented(a, p), p


# -- work counters -------------------------------------------------------------


class During:
    """A `count` weight: the growth of counts[key] while the call runs,
    counted for a call whose result passes when (every call by default)."""

    def __init__(self, key, when=None):
        self.key, self.when = key, when


def count(monkeypatch, counts, owners, name, **weights):
    """Count the calls of `name` on each of owners (classes or modules) from
    here on, and return counts.  Each call adds, for each key=weight, its
    weight to counts[key]: an int (or a list, to record), a function of the
    call's arguments, or a `During`.  A generator function's events are the
    items it yields, each counted as it is taken."""
    during = {key: w for key, w in weights.items() if isinstance(w, During)}
    plain = {key: w for key, w in weights.items() if key not in during}

    def add(args):
        for key, w in plain.items():
            counts[key] += w(*args) if callable(w) else w

    for owner in owners:
        real = getattr(owner, name)
        if inspect.isgeneratorfunction(real):
            def counted(*args, real=real, **kwargs):
                for item in real(*args, **kwargs):
                    add(args)
                    yield item
        else:
            def counted(*args, real=real, **kwargs):
                add(args)
                start = {key: counts[w.key] for key, w in during.items()}
                out = real(*args, **kwargs)
                for key, w in during.items():
                    if w.when is None or w.when(out):
                        counts[key] += counts[w.key] - start[key]
                return out
        monkeypatch.setattr(owner, name, counted)
    return counts


def count_products(monkeypatch, counts):
    """Count the basis products of every algebra, both sides, in counts["products"]."""
    for name in ("_basis_mul_vec", "_vec_mul_basis"):
        count(monkeypatch, counts, [Algebra], name, products=1)
    return counts


# -- reload and replay ---------------------------------------------------------


def reloaded(a):
    """a written and loaded again, as a replay independent of the decision has it."""
    return algebra_from_json(json.loads(dump_json(algebra_to_json(a))))


def replays(a, rep, on=None, command="stable"):
    """Whether rep, a report on a, replays through its JSON text: written,
    read back, and verified on the algebra on (a by default)."""
    doc = json.loads(dump_json(report_to_json(a, rep, command=command)))
    return verify_report_json(a if on is None else on, doc)


# -- shared data ---------------------------------------------------------------

# catalog cases with a dense presentation each, as the generating-set and
# associativity tests take them
CASES = [
    ("matrix_full", {"n": 3}),
    ("upper_triangular", {"n": 4}),
    ("scalar_plus_strict_upper", {"n": 4}),
    ("strict_upper", {"n": 4}),
    ("truncated_poly", {"k": 6}),
    ("matrix_over_commutative", {"n": 2, "k": 2}),
    ("r11_radical", {"n": 2, "k": 3}),
]

DENSE_CASES = [
    ("truncated_poly", {"k": 6}),
    ("upper_triangular", {"n": 3}),
    ("matrix_full", {"n": 3}),
    ("scalar_plus_strict_upper", {"n": 4}),
    ("strict_upper", {"n": 4}),
    ("r11_radical", {"n": 2, "k": 3}),
]


def run(capsys, *argv):
    """The CLI's exit code, standard output and standard error for argv."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def presentation(alg):
    """Field, dimension and table: equal exactly for identical presentations."""
    return alg.field, alg.dim, alg.table


def alg_from_family(fam, field=RATIONALS):
    return build_algebra(field, fam.dim, fam.table())


def truncated_poly(k, field=RATIONALS):
    """F[x]/(x^k), basis 1, x, ..., x^{k-1}."""
    table = {}
    for i in range(k):
        for j in range(k):
            if i + j < k:
                table[(i, j)] = ((i + j, field.one),)
    return build_algebra(field, k, table, labels=[f"x^{i}" for i in range(k)])


def full_space(field, n):
    """F^n, spanned by the identity rows."""
    return span(field, [[int(i == j) for j in range(n)] for i in range(n)], n)


def random_subalgebra(ambient, rng, max_gens=3):
    """Multiplicative closure of a random span, with re-derived constants."""
    n = ambient.dim
    red = _make_reducer(ambient.field, n)
    rows = []
    for _ in range(rng.randint(1, max_gens)):
        r = red.insert(random_element(ambient, rng).coords)
        if r is not None:
            rows.append(r)
    changed = True
    while changed:
        changed = False
        cur = [tuple(v.get(k, 0) for k in range(n)) for v in rows]
        for v in cur:
            for w in cur:
                p = dense_product(ambient, v, w)
                if any(p):
                    r = red.insert(p)
                    if r is not None:
                        rows.append(r)
                        changed = True
    sub = Subspace(ambient.field, red)
    d = sub.dim
    table = {}
    for i in range(d):
        for j in range(d):
            prod = dense_product(ambient, sub.rows[i], sub.rows[j])
            coords = express_in_span(ambient.field, sub.rows, prod, ambient.dim)
            assert coords is not None  # closure is multiplicative
            pairs = tuple((k, c) for k, c in enumerate(coords) if c)
            if pairs:
                table[(i, j)] = pairs
    return build_algebra(ambient.field, d, table)  # revalidates associativity


def non_unital_algebras(field, trials):
    """strict_upper n=2..5, r11_radical n=2 k=3, and random non-unital
    subalgebras of T_4, M_3, strict_upper 5 and M_2(F[x]/x^3) with products."""
    out = [build("strict_upper", n=n, field=field).algebra for n in range(2, 6)]
    out.append(build("r11_radical", n=2, k=3, field=field).algebra)
    ambients = [
        build("upper_triangular", n=4, field=field).algebra,
        build("matrix_full", n=3, field=field).algebra,
        build("strict_upper", n=5, field=field).algebra,
        build("matrix_over_commutative", n=2, k=3, field=field).algebra,
    ]
    for trial in range(trials):
        rng = random.Random(f"non-unital:{field.p}:{trial}")
        sub = random_subalgebra(ambients[trial % len(ambients)], rng)
        other = random_subalgebra(ambients[(trial + 1) % len(ambients)], rng, max_gens=1)
        if sub.dim and not sub.is_unital:
            out.append(sub)
        if trial % 2 == 0 and other.dim and sub.dim + other.dim <= 12:
            prod = direct_product(sub, other)
            if not prod.is_unital:
                out.append(prod)
    return out


# -- load checks and the table-route constructions -----------------------------


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
            img = red.exact_residual(dict(pairs))
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
