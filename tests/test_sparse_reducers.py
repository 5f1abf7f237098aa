"""The sparse echelon reducers against the dense elimination they replaced.

The reference below is the dense elimination that `censtab.linalg` used
before its reducers went sparse, kept verbatim in behaviour: full-width int
rows, a scan over every pivot, and the same cross-multiplication, whole-row
scale and gcd normalization over Q, reduction mod p over GF(p).  Its rows
are in echelon form only; the sparse reducers keep theirs zero at every
other pivot.  So the sparse reducers must reproduce its inserted rows,
pivots, memberships and canonical rows exactly, its residuals up to a
positive factor over Q (exactly over GF(p)), and `express_in_span`, the
solver built on them, its results.
"""

import random
from bisect import insort
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from censtab.linalg import _make_reducer, express_in_span
from censtab.scalars import RATIONALS, prime_field

P = 1000003
FIELDS = [RATIONALS, prime_field(P)]


# -- dense reference -----------------------------------------------------------


def _dense_row_gcd(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


def _dense_to_int_row(vec):
    nonzero = [(i, x) for i, x in enumerate(vec) if x]
    m = lcm(*[x.denominator for _, x in nonzero])
    out = [0] * len(vec)
    for i, x in nonzero:
        out[i] = x.numerator * (m // x.denominator)
    return out


class DenseReducer:
    def __init__(self, field, width):
        self.p = field.p
        self.width = width
        self.pivots = []
        self.rows = {}
        self.hits = []  # the pivots each residual eliminated at, in order

    def residual(self, vec):
        if self.p is not None:
            v = [int(x) % self.p for x in vec]
            for p in self.pivots:
                c = v[p]
                if c:
                    self.hits.append(p)
                    r = self.rows[p]
                    v[p:] = [(x - c * y) % self.p for x, y in zip(v[p:], r[p:])]
            return v
        v = _dense_to_int_row(vec)
        for p in self.pivots:
            c = v[p]
            if c:
                self.hits.append(p)
                r = self.rows[p]
                g = gcd(r[p], c)
                a, b = r[p] // g, c // g
                if a == 1:
                    v[p:] = [x - b * y for x, y in zip(v[p:], r[p:])]
                else:
                    v[:p] = [a * x for x in v[:p]]
                    v[p:] = [a * x - b * y for x, y in zip(v[p:], r[p:])]
                    g = _dense_row_gcd(v)
                    if g > 1:
                        v = [x // g for x in v]
        return v

    def insert(self, vec):
        v = self.residual(vec)
        for p, x in enumerate(v):
            if x:
                if self.p is not None:
                    inv = pow(x, -1, self.p)
                    v = [y * inv % self.p for y in v]
                else:
                    g = _dense_row_gcd(v)
                    if x < 0:
                        g = -g
                    v = [y // g for y in v] if g != 1 else v
                self.rows[p] = v
                insort(self.pivots, p)
                return v
        return None

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
                    if self.p is not None:
                        rows[q] = [(x - c * y) % self.p for x, y in zip(r, base)]
                        continue
                    g = gcd(base[p], c)
                    a, b = base[p] // g, c // g
                    merged = [a * x - b * y for x, y in zip(r, base)]
                    g = _dense_row_gcd(merged)
                    if g > 1:
                        merged = [x // g for x in merged]
                    rows[q] = merged
        if self.p is not None:
            return [tuple(rows[p]) for p in self.pivots]
        return [tuple(Fraction(x, rows[p][p]) for x in rows[p]) for p in self.pivots]


def dense_express_in_span(field, gens, target, width):
    g = len(gens)
    red = DenseReducer(field, width + g + 1)
    for i, v in enumerate(gens):
        aug = [0] * (g + 1)
        aug[i] = 1
        red.insert(list(v) + aug)
    w = red.residual(list(target) + [0] * g + [1])
    if any(w[:width]):
        return None
    scale = w[width + g]
    if field.p is None:
        return [-Fraction(w[width + i], scale) for i in range(g)]
    inv = pow(scale, -1, field.p)
    return [(-w[width + i]) * inv % field.p for i in range(g)]


# -- random inputs -------------------------------------------------------------


def _entry(field, rng):
    """A nonzero entry: small or huge, int or (over Q) Fraction, maybe unreduced."""
    big = rng.random() < 0.2
    n = rng.choice((-1, 1)) * (rng.randint(1, 10**30) if big else rng.randint(1, 9))
    if field.p is None and rng.random() < 0.5:
        return Fraction(n, rng.randint(1, 10**12 if big else 6))
    return n


def _vector(field, rng, width, density):
    """A dense list: each coordinate nonzero with the given probability, zeros
    as int 0 or (over Q) Fraction(0)."""
    zero = (0, Fraction(0)) if field.p is None else (0, P, -P)
    return [_entry(field, rng) if rng.random() < density else rng.choice(zero)
            for _ in range(width)]


def _as_dict(vec, rng):
    """The same vector as a dict, keeping some of its zero entries."""
    return {i: x for i, x in enumerate(vec) if x or rng.random() < 0.1}


def _dense(entries, width):
    out = [0] * width
    for k, x in entries.items():
        out[k] = x
    return out


def _cases(seed):
    rng = random.Random(seed)
    for trial in range(60):
        field = FIELDS[trial % 2]
        width = rng.randint(1, 24)
        density = rng.choice((0.05, 0.15, 0.5, 1.0))
        count = rng.randint(1, 2 * width)
        # repeat some vectors and their combinations, so dependent inserts occur
        vecs = [_vector(field, rng, width, density) for _ in range(count)]
        for _ in range(count // 3):
            u, w = rng.choice(vecs), rng.choice(vecs)
            c = rng.randint(-3, 3)
            vecs.append([x + c * y for x, y in zip(u, w)])
        rng.shuffle(vecs)
        yield field, width, vecs, rng


def _assert_same_residual(field, got, want):
    """got equals want over GF(p), and is a positive multiple of it over Q."""
    if field.p is not None or not any(want):
        assert got == want
        return
    k = next(i for i, x in enumerate(want) if x)
    assert got[k] * want[k] > 0
    assert [x * want[k] for x in got] == [y * got[k] for y in want]


def _assert_fully_reduced(red):
    """Every stored row is zero at every other pivot and a positive multiple
    of its canonical row (equal to it over GF(p), where pivots are one)."""
    for p, canon in zip(red.pivots, red.canonical_rows()):
        row = red.rows[p]
        assert all(q == p or q not in row for q in red.pivots)
        assert row[p] > 0
        assert _dense(row, red.width) == [row[p] * x for x in canon]


def test_sparse_reducers_match_the_dense_elimination():
    seen = {"dependent": 0, "independent": 0, "scaled": 0, "rescaled": 0}
    for field, width, vecs, rng in _cases(71):
        sparse, dense = _make_reducer(field, width), DenseReducer(field, width)
        returned = []  # (row as insert returned it, a copy taken then)
        for v in vecs:
            arg = _as_dict(v, rng) if rng.random() < 0.5 else v
            want = dense.residual(v)
            res = sparse.residual(arg)
            assert all(x for x in res.values())
            got = _dense(res, width)
            _assert_same_residual(field, got, want)
            seen["rescaled"] += got != want
            assert sparse.contains(arg) == (not any(want))
            r_want = dense.insert(v)
            r_got = sparse.insert(arg)
            if r_want is None:
                assert r_got is None
                seen["dependent"] += 1
            else:
                assert _dense(r_got, width) == r_want
                returned.append((r_got, dict(r_got)))
                seen["independent"] += 1
            assert sparse.pivots == dense.pivots
            _assert_fully_reduced(sparse)
        # later inserts reduce the stored rows on copies, never a returned row
        assert all(row == kept for row, kept in returned)
        got_rows = sparse.canonical_rows()
        assert got_rows == dense.canonical_rows()
        if field.p is None:
            assert all(type(x) is Fraction for r in got_rows for x in r)
            seen["scaled"] += any(r[p] != 1 for p, r in dense.rows.items())
    assert all(seen.values()), seen


def test_running_residual_is_empty_exactly_when_the_target_is_inside():
    seen = {True: 0, False: 0}
    for field, width, vecs, rng in _cases(73):
        # a combination of a few of the rows, which turns member at some
        # insert, and a vector that may never do so
        picked = rng.sample(vecs, min(3, len(vecs)))
        inside = [sum(rng.randint(-2, 2) * v[i] for v in picked) for i in range(width)]
        for target in (inside, _vector(field, rng, width, 0.3)):
            red = _make_reducer(field, width)
            res = red.residual(_as_dict(target, rng))
            for v in vecs:
                row = red.insert(_as_dict(v, rng) if rng.random() < 0.5 else v)
                if row is not None:
                    red.advance_residual(res, row)
                assert all(x for x in res.values())
                member = red.contains(target)
                assert (not res) == member
                seen[member] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_linear_solvers_match_the_dense_elimination(field):
    rng = random.Random(f"solvers:{field}")
    for _ in range(40):
        width = rng.randint(1, 12)
        density = rng.choice((0.1, 0.4, 1.0))
        gens = [_vector(field, rng, width, density) for _ in range(rng.randint(1, 8))]
        canon = [tuple(field.coerce(x) for x in v) for v in gens]
        inside = [sum(rng.randint(-2, 2) * v[i] for v in canon) for i in range(width)]
        for target in (inside, _vector(field, rng, width, density)):
            target = [field.coerce(x) for x in target]
            want = dense_express_in_span(field, canon, target, width)
            assert express_in_span(field, canon, target, width) == want
            as_dicts = [_as_dict(v, rng) for v in canon]
            assert express_in_span(field, as_dicts, target, width) == want
            assert express_in_span(field, as_dicts, _as_dict(target, rng), width) == want


class _CountingRow(dict):
    """A reducer row that records each time its entries are read."""

    touched = None

    def items(self):
        self.touched.append(self.pivot)
        return super().items()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_membership_work_is_bounded_by_the_pivots_hit(field):
    # a width-256 reducer with 200 rows, each with a few entries past its pivot
    rng = random.Random(f"work:{field}")
    width = 256
    red, dense = _make_reducer(field, width), DenseReducer(field, width)
    for p in rng.sample(range(width - 8), 200):
        vec = {p: _entry(field, rng), p + rng.randint(1, 8): _entry(field, rng)}
        red.insert(vec)
        dense.insert(_dense(vec, width))
    assert red.dim == 200
    touched = []
    for p, row in list(red.rows.items()):
        counted = _CountingRow(row)
        counted.pivot, counted.touched = p, touched
        red.rows[p] = counted
    total = cascade = 0
    for col in range(width):
        vec = {col: 1, rng.randrange(width): 1, rng.randrange(width): -1}
        touched.clear()
        dense.hits.clear()
        want = dense.residual(_dense(vec, width))
        assert red.contains(vec) == (not any(want))
        # the rows read are exactly those of the pivots in the vector's own
        # support, each once; the echelon reference also meets the pivots
        # its eliminations fill in
        assert sorted(touched) == sorted(k for k, x in vec.items() if x and k in red.rows)
        total += len(touched)
        cascade += len(dense.hits)
    assert total < cascade
    # a dense scan would look at all 200 rows for each of the 256 vectors
    assert total < 256 * 200 // 10


# -- stored-row invariants -----------------------------------------------------


def _naive_rref(field, vecs, width):
    """The reduced row-echelon basis of span(vecs), by Gauss-Jordan
    elimination on canonical scalars (Fractions over Q)."""
    pending = [[field.coerce(x) for x in v] for v in vecs]
    out = []
    for col in range(width):
        k = next((i for i, r in enumerate(pending) if r[col]), None)
        if k is None:
            continue
        r = pending.pop(k)
        inv = field.inv(r[col])
        r = [field.mul(inv, x) for x in r]

        def clear(rows):
            return [[field.sub(x, field.mul(s[col], y)) for x, y in zip(s, r)] for s in rows]

        pending, out = clear(pending), clear(out) + [r]
    return [tuple(r) for r in out]


@st.composite
def _insert_sequences(draw):
    """A field, a width and vectors over it: small or large int and Fraction
    entries, with sums and multiples of earlier vectors mixed in."""
    field = draw(st.sampled_from([RATIONALS, prime_field(101)]))
    width = draw(st.integers(1, 9))
    ints = st.one_of(st.integers(-6, 6), st.integers(-10**20, 10**20))
    entry = ints
    if field.p is None:
        entry = st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 10**6)))
    vecs = []
    for _ in range(draw(st.integers(1, 2 * width + 2))):
        if vecs and draw(st.booleans()):
            u, w = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            c = draw(st.integers(-3, 3))
            vecs.append([x + c * y for x, y in zip(u, w)])
        else:
            vecs.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return field, width, vecs


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_insert_sequences())
def test_stored_rows_stay_primitive_and_reduced(case):
    # content is removed once per stored row, not after each elimination
    # step, so every row insert stores or rewrites must come out primitive
    field, width, vecs = case
    red = _make_reducer(field, width)
    for k, v in enumerate(vecs):
        red.insert(v)
        for p in red.pivots:
            row = red.rows[p]
            assert all(type(x) is int and x for x in row.values())
            assert row[p] > 0
            assert all(q == p or q not in row for q in red.pivots)
            if field.p is None:
                assert gcd(*row.values()) == 1
            else:
                assert row[p] == 1 and all(0 < x < field.p for x in row.values())
        assert red.canonical_rows() == _naive_rref(field, vecs[: k + 1], width)
