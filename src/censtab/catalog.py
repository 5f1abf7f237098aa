"""Deterministic constructors for the named example algebras.

Each entry bundles the algebra with its expected verdict and structural
dimensions, which the acceptance suite recomputes and compares.  Building an
entry twice with equal parameters yields identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    Algebra,
    _cell_algebra,
    _validated,
    build_algebra,
    matrix_algebra,
    matrix_units_algebra,
    tensor_product,
    unitization,
)
from .errors import BadParams
from .scalars import RATIONALS, FieldSpec
from .stability import NOT_STABLE, STABLE


@dataclass(frozen=True)
class Expected:
    verdict: str
    center_dim: int
    radical_dim: int
    notes: str = ""


@dataclass
class CatalogEntry:
    name: str
    params: dict
    algebra: Algebra
    expected: Expected
    description: str


def _require(cond, msg):
    if not cond:
        raise BadParams(msg)


# -- individual constructions -------------------------------------------------
# Entries built without build_algebra pass through `_validated`, the
# associativity check and unity search that a loaded file gets.


def _matrix_full(n: int, field: FieldSpec = RATIONALS) -> CatalogEntry:
    _require(n >= 1, "matrix_full needs n >= 1")
    alg = _validated(matrix_units_algebra(field, n))
    return CatalogEntry(
        "matrix_full",
        {"field": field, "n": n},
        alg,
        Expected(STABLE, 1, 0, "simple algebra; its center is the scalars"),
        f"full matrix algebra M_{n} over {field!r}",
    )


def _upper_cells(n, strict=False):
    """The (strictly) upper triangular cells (p, q) of an n x n matrix."""
    return [(p, q) for p in range(n) for q in range(p + 1 if strict else p, n)]


def _upper_triangular(n: int, field: FieldSpec = RATIONALS) -> CatalogEntry:
    _require(n >= 1, "upper_triangular needs n >= 1")
    alg = _validated(_cell_algebra(field, n, _upper_cells(n)))
    if n == 1:
        expected = Expected(STABLE, 1, 0, "one-dimensional, hence commutative")
    else:
        expected = Expected(
            NOT_STABLE,
            1,
            n * (n - 1) // 2,
            "the diagonal matrix units are not centrally stable",
        )
    return CatalogEntry(
        "upper_triangular",
        {"field": field, "n": n},
        alg,
        expected,
        f"upper triangular {n}x{n} matrices over {field!r}",
    )


def _scalar_plus_strict_upper(n: int, field: FieldSpec = RATIONALS) -> CatalogEntry:
    _require(n >= 1, "scalar_plus_strict_upper needs n >= 1")
    strict = _cell_algebra(field, n, _upper_cells(n, strict=True))
    u = unitization(strict)
    # labels given in full: for n = 1 there are no cells, and u has no labels
    u.labels = ("1",) + strict.labels
    alg = _validated(u)
    if n == 1:
        expected = Expected(STABLE, 1, 0, "just the scalars")
    elif n == 2:
        expected = Expected(STABLE, 2, 1, "two-dimensional commutative")
    else:
        expected = Expected(
            NOT_STABLE,
            2,
            n * (n - 1) // 2,
            "only the central elements are centrally stable here",
        )
    return CatalogEntry(
        "scalar_plus_strict_upper",
        {"field": field, "n": n},
        alg,
        expected,
        f"scalar + strictly upper triangular {n}x{n} matrices over {field!r}",
    )


def _strict_upper(n: int, field: FieldSpec = RATIONALS) -> CatalogEntry:
    _require(n >= 2, "strict_upper needs n >= 2")
    alg = _validated(_cell_algebra(field, n, _upper_cells(n, strict=True)))
    dim = alg.dim
    if n == 2:
        expected = Expected(STABLE, 1, 1, "one-dimensional null algebra")
    else:
        expected = Expected(
            NOT_STABLE,
            1,
            dim,
            "noncommutative nilpotent; nilpotent algebras are centrally stable"
            " only when commutative",
        )
    return CatalogEntry(
        "strict_upper",
        {"field": field, "n": n},
        alg,
        expected,
        f"strictly upper triangular {n}x{n} matrices over {field!r} (non-unital)",
    )


def _truncated_poly(k: int, field: FieldSpec = RATIONALS) -> CatalogEntry:
    _require(k >= 1, "truncated_poly needs k >= 1")
    table = {}
    one = field.one
    for i in range(k):
        for j in range(k):
            if i + j < k:
                table[(i, j)] = ((i + j, one),)
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    alg = build_algebra(field, k, table, labels)
    return CatalogEntry(
        "truncated_poly",
        {"field": field, "k": k},
        alg,
        Expected(STABLE, k, k - 1, "commutative"),
        f"{field!r}[x]/(x^{k})",
    )


def _poly_powers(m_coeffs):
    """Coordinates of y^t modulo the monic polynomial, for t = 0..2d-2."""
    d = len(m_coeffs) - 1
    pows = [[Fraction(0)] * d for _ in range(2 * d - 1)]
    for t in range(d):
        pows[t][t] = Fraction(1)
    for t in range(d, 2 * d - 1):
        prev = pows[t - 1]
        cur = [Fraction(0)] * d
        for i in range(d - 1):
            cur[i + 1] += prev[i]
        top = prev[d - 1]
        if top:
            for i in range(d):
                cur[i] -= top * m_coeffs[i]
        pows[t] = cur
    return pows


def _ema(poly=(-2, 0, 1)) -> CatalogEntry:
    """K = Q[y]/(m); A = {[[alpha, beta], [0, lam]] : alpha, beta in K, lam in Q}.

    m must be monic of degree >= 2 and is assumed irreducible (so that K is
    a field); irreducibility is not verified.
    """
    coeffs = tuple(Fraction(c) for c in poly)
    _require(len(coeffs) >= 3, "ema needs a polynomial of degree >= 2")
    _require(coeffs[-1] == 1, "ema needs a monic polynomial")
    d = len(coeffs) - 1
    pows = _poly_powers(coeffs)
    dim = 2 * d + 1
    table = {}
    # indices: alpha slot y^i -> i; beta slot y^i -> d + i; lambda slot -> 2d
    for i in range(d):
        for j in range(d):
            prod = pows[i + j]
            alpha = tuple((t, c) for t, c in enumerate(prod) if c)
            if alpha:
                table[(i, j)] = alpha
                table[(i, d + j)] = tuple((d + t, c) for t, c in alpha)
    c_idx = 2 * d
    for i in range(d):
        table[(d + i, c_idx)] = ((d + i, Fraction(1)),)
    table[(c_idx, c_idx)] = ((c_idx, Fraction(1)),)
    labels = (
        [f"y^{i}(1,1)" for i in range(d)]
        + [f"y^{i}(1,2)" for i in range(d)]
        + ["(2,2)"]
    )
    alg = build_algebra(RATIONALS, dim, table, labels)
    return CatalogEntry(
        "ema",
        {"poly": coeffs},
        alg,
        Expected(
            NOT_STABLE,
            1,
            d,
            "central algebra with a maximal ideal whose quotient is the"
            " bigger field K",
        ),
        f"triangular 2x2 matrices with diagonal (K, Q) for K = Q[y]/(deg-{d} poly)",
    )


def _quaternions(field: FieldSpec) -> Algebra:
    """The quaternion algebra over Q: basis 1, i, j, k."""
    one = field.one
    neg = field.neg(one)
    mul = {
        (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
        (1, 0): (1, one), (1, 1): (0, neg), (1, 2): (3, one), (1, 3): (2, neg),
        (2, 0): (2, one), (2, 1): (3, neg), (2, 2): (0, neg), (2, 3): (1, one),
        (3, 0): (3, one), (3, 1): (2, one), (3, 2): (1, neg), (3, 3): (0, neg),
    }
    table = {key: (val,) for key, val in mul.items()}
    return build_algebra(field, 4, table, ["1", "i", "j", "k"])


def _exg() -> CatalogEntry:
    """D (x) Q[x]/(x^2) for D the rational quaternions: matrices [[a, b], [0, a]].

    D is a division algebra because the quaternion norm is positive on Q;
    that makes the quotient by the b-corner a central division algebra, which
    forces stability.
    """
    d = _quaternions(RATIONALS)
    dual = _truncated_poly(2).algebra
    alg = _validated(tensor_product(d, dual))
    return CatalogEntry(
        "exg",
        {},
        alg,
        Expected(
            STABLE,
            2,
            4,
            "centrally stable but not central: the corner unit is central too",
        ),
        "2x2 matrices [[a, b], [0, a]] with rational-quaternion entries",
    )


def _exh_rational() -> CatalogEntry:
    """K = Q[i] acting on itself with a conjugation-twisted right action.

    Matrices [[lam, v], [0, lam]] with lam, v in K, where v * mu is sigma(mu) v
    for the nontrivial automorphism sigma of K.  The twist empties the center
    down to Q while keeping Z cap rad = 0.
    """
    one = Fraction(1)
    neg = Fraction(-1)
    # indices: 1 -> 0, i -> 1, v_1 -> 2, v_i -> 3
    table = {
        (0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),),
        (1, 1): ((0, neg),),
        # left action lam * v: ordinary multiplication in K
        (0, 2): ((2, one),), (0, 3): ((3, one),),
        (1, 2): ((3, one),), (1, 3): ((2, neg),),
        # right action v * mu = sigma(mu) v
        (2, 0): ((2, one),), (3, 0): ((3, one),),
        (2, 1): ((3, neg),), (3, 1): ((2, one),),
    }
    alg = build_algebra(RATIONALS, 4, table, ["1", "i", "v1", "vi"])
    return CatalogEntry(
        "exh_rational",
        {},
        alg,
        Expected(
            NOT_STABLE,
            1,
            2,
            "central with nonzero radical but Z cap rad = 0",
        ),
        "Q[i] with conjugation-twisted bimodule, as [[lam, v], [0, lam]] matrices",
    )


def _matrix_over_commutative(n: int, k: int, field: FieldSpec = RATIONALS) -> CatalogEntry:
    _require(n >= 1, "matrix_over_commutative needs n >= 1")
    _require(k >= 1, "matrix_over_commutative needs k >= 1")
    c = _truncated_poly(k, field).algebra
    alg = _validated(matrix_algebra(c, n))
    return CatalogEntry(
        "matrix_over_commutative",
        {"field": field, "n": n, "k": k},
        alg,
        Expected(
            STABLE,
            k,
            (k - 1) * n * n,
            "matrices over a commutative unital algebra",
        ),
        f"M_{n}({field!r}[x]/(x^{k}))",
    )


def _r11_radical(n: int, k: int, field: FieldSpec = RATIONALS) -> CatalogEntry:
    _require(n >= 2, "r11_radical needs n >= 2")
    _require(k >= 3, "r11_radical needs k >= 3")
    # C = the radical of F[x]/(x^k): span{x, ..., x^{k-1}}, non-unital
    table = {}
    one = field.one
    for i in range(k - 1):
        for j in range(k - 1):
            if i + j + 1 < k - 1:
                table[(i, j)] = ((i + j + 1, one),)
    c = build_algebra(field, k - 1, table, [f"x^{i + 1}" if i else "x" for i in range(k - 1)])
    alg = _validated(matrix_algebra(c, n))
    center_dim = (k - 1) + n * n - 1  # C*identity plus x^{k-1} times any matrix
    return CatalogEntry(
        "r11_radical",
        {"field": field, "n": n, "k": k},
        alg,
        Expected(
            NOT_STABLE,
            center_dim,
            (k - 1) * n * n,
            "noncommutative nilpotent: the radical of a stable algebra need"
            " not be stable",
        ),
        f"M_{n} over the radical of {field!r}[x]/(x^{k}), non-unital",
    )


_BUILDERS = {
    "matrix_full": _matrix_full,
    "upper_triangular": _upper_triangular,
    "scalar_plus_strict_upper": _scalar_plus_strict_upper,
    "strict_upper": _strict_upper,
    "truncated_poly": _truncated_poly,
    "ema": _ema,
    "exg": _exg,
    "exh_rational": _exh_rational,
    "matrix_over_commutative": _matrix_over_commutative,
    "r11_radical": _r11_radical,
}


# The dimension each builder produces, from the same parameters, so that an
# oversized build can be refused before it runs.  A size parameter below its
# builder's minimum counts as 0; the builder rejects it.
def _pos(n):
    return max(n, 0)


_DIMENSIONS = {
    "matrix_full": lambda n, field=None: _pos(n) ** 2,
    "upper_triangular": lambda n, field=None: _pos(n) * (_pos(n) + 1) // 2,
    "scalar_plus_strict_upper": lambda n, field=None: 1 + _pos(n) * (_pos(n) - 1) // 2,
    "strict_upper": lambda n, field=None: _pos(n) * (_pos(n) - 1) // 2,
    "truncated_poly": lambda k, field=None: _pos(k),
    "ema": lambda poly=(-2, 0, 1): 2 * len(poly) - 1,
    "exg": lambda: 8,
    "exh_rational": lambda: 4,
    "matrix_over_commutative": lambda n, k, field=None: _pos(n) ** 2 * _pos(k),
    "r11_radical": lambda n, k, field=None: _pos(n) ** 2 * _pos(k - 1),
}


def names():
    return sorted(_BUILDERS)


def build(name: str, **params) -> CatalogEntry:
    """Build a catalog entry by name; BadParams on anything out of range."""
    if name not in _BUILDERS:
        raise BadParams(f"unknown catalog name {name!r}; known: {', '.join(names())}")
    try:
        return _BUILDERS[name](**params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for {name!r}: {exc}") from None


def dimension(name: str, **params) -> int:
    """The dimension of build(name, **params), computed without building it.

    0 when build would reject the name or the parameters, so that build
    reports them.
    """
    try:
        return _DIMENSIONS[name](**params)
    except (KeyError, TypeError):
        return 0


def standard_entries(field: FieldSpec = RATIONALS):
    """The fixed roster of entries quantified over by the acceptance suite."""
    entries = [
        *(build("matrix_full", field=field, n=n) for n in (1, 2, 3, 4)),
        *(build("truncated_poly", field=field, k=k) for k in (1, 2, 3, 4)),
        *(build("upper_triangular", field=field, n=n) for n in (2, 3, 4)),
        *(build("scalar_plus_strict_upper", field=field, n=n) for n in (2, 3, 4)),
        *(build("strict_upper", field=field, n=n) for n in (2, 3)),
        *(
            build("matrix_over_commutative", field=field, n=n, k=k)
            for n in (2, 3)
            for k in (2, 3)
        ),
        build("r11_radical", field=field, n=2, k=3),
    ]
    if field.is_rationals:
        entries += [build("ema"), build("exg"), build("exh_rational")]
    return entries
