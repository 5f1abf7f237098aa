"""Central-stability decisions with machine-checkable certificates.

Element criterion: a is centrally stable iff a lies in Z(A) + Id([a, A]).

Algebra criterion: a finite-dimensional unital algebra over a perfect field
is centrally stable iff rad(A) = Id(Z(A) cap rad(A)).  A non-unital algebra
is decided by the same test in A itself, which is equivalent to the test on
its unitization A# (see algebra_centrally_stable); radical() reads A#'s
trace form off A, so nothing builds A#.  The algebra decision never samples
elements -- the centrally stable elements need not form a subspace, so no
amount of sampling could decide the algebra.  Nor is a NotStable witness
searched for: it is lifted from the center of A/J or of A/rad(A), one of
which always holds one, J = Id(Z(A) cap rad(A)) (see algebra_centrally_stable).
Both centers are computed in A, as is the semisimplicity of A/rad(A) (see
radical_failure), so neither the decision nor its replay builds an algebra.

Every verdict carries a certificate that re-verifies through the linear
algebra layer (see verify_certificate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, fields
from math import lcm

from .algebras import (
    Algebra,
    Element,
    _center_cap,
    _commutator_rows,
    _generator_commutators,
    _ideal_closure,
    _is_central,
    _quotient_center,
    center,
    commutator_space,
    ideal_generated,
    matrix_algebra,
    quotient,
)
from .errors import BadParams, ConsistencyError, DimensionMismatch
from .linalg import (
    Subspace,
    _int_entries,
    _linear_combination,
    _make_reducer,
    express_in_span,
    span,
    subspace_intersect,
    subspace_sum,
)
from .radical import check_characteristic, radical, radical_failure

STABLE = "Stable"
NOT_STABLE = "NotStable"

METHOD_RADICAL = "RadicalCriterion"
METHOD_UNITIZATION = "UnitizationThenRadicalCriterion"
METHOD_ELEMENT = "ElementCriterion"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableElementWitness:
    """a = z + u with z central and u inside Id([a, A])."""

    element: tuple
    central_part: tuple
    ideal_part: tuple

    kind = "StableElementWitness"


@dataclass(frozen=True)
class UnstableElementWitness:
    """a together with the RREF basis of Z(A) + Id([a, A]), which avoids it."""

    element: tuple
    center_rows: tuple
    ideal_rows: tuple
    sum_rows: tuple

    kind = "UnstableElementWitness"


@dataclass(frozen=True)
class RadicalMatch:
    """Stable algebra: Id(Z cap rad) equals rad."""

    radical_rows: tuple
    center_cap_radical_rows: tuple

    kind = "RadicalMatch"


class IntVector:
    """A coordinate vector as replay reads it: `entries`, the ints m v_i at
    its nonzero coordinates i, the denominator `den` = m and its `length`.
    Over Q m is the lcm of the coordinates' denominators; over GF(p) the
    coordinates are ints, m = 1.  `fileformat.certificate_from_json` reads
    report vectors into this form, and `of` brings a tuple of scalars to it.
    It equals every vector of the same scalars, so a certificate read back
    equals the one that was written."""

    __slots__ = ("entries", "den", "length")

    def __init__(self, entries, den, length):
        self.entries, self.den, self.length = entries, den, length

    @classmethod
    def of(cls, vec):
        """vec, a sequence of scalars, as an IntVector; an IntVector as it is."""
        if isinstance(vec, IntVector):
            return vec
        v = {i: x for i, x in enumerate(vec) if x}
        m = lcm(*[x.denominator for x in v.values()])
        return cls({i: x.numerator * (m // x.denominator) for i, x in v.items()}, m, len(vec))

    def __eq__(self, other):
        try:
            other = IntVector.of(other)
        except (TypeError, AttributeError):  # not a sequence of scalars
            return NotImplemented
        return (self.entries, self.den, self.length) == (other.entries, other.den, other.length)

    __hash__ = None

    def __repr__(self):
        return f"IntVector({self.entries!r}, {self.den!r}, {self.length!r})"


@dataclass(frozen=True)
class StabilityReport:
    verdict: str
    method: str
    certificate: object
    bases: dict = dc_field(default_factory=dict)

    @property
    def is_stable(self) -> bool:
        return self.verdict == STABLE


def random_element(a: Algebra, rng) -> Element:
    """A random element with small coordinates, from a seeded generator."""
    return Element(a, tuple(a.field.random_scalar(rng) for _ in range(a.dim)))


# ---------------------------------------------------------------------------
# Element-level decision
# ---------------------------------------------------------------------------


def element_centrally_stable(x: Element) -> StabilityReport:
    """Decide a in Z(A) + Id([a, A]), with a constructive certificate.

    On Stable, the commutator-ideal closure stops as soon as membership
    holds, so the recorded ideal rows span a subspace I' of Id([a, A]) that
    already contains the ideal part u.  On NotStable the closure has reached
    its fixpoint and the avoided subspace Z + Id is recorded in full.

    The closure is seeded with the reduced rows of `commutator_space(a)`,
    in pivot order; being fully reduced, they enter it unchanged.

    Which z a Stable witness carries.  Let r be the residual mod I', a
    linear map with kernel I', and z_k the canonical rows of Z.  Then
    z = sum alpha_k z_k, alpha the solution of sum alpha_k r(z_k) = r(a)
    that `express_in_span` gives: the one zero at the pivot columns of the
    relation space {alpha : sum alpha_k z_k in I'}, which is Z cap I' in
    Z's coordinates.  Row z_k is the only one nonzero at its pivot, so an
    element of Z has its pivot at that of the first z_k it uses, and z is
    the unique element of Z cap (a + I') that is zero at the pivot columns
    of Z cap I'.  Solving over the rows of Z and of I' together picks the
    same z: I''s rows are independent, so each relation there has its pivot
    among Z's coordinates, where the relations are those above.
    """
    a = x.algebra
    f = a.field
    z_space = center(a)
    res = z_space.reducer.residual(x.coords)  # of x against Z, then Z + the closure so far
    if not res:
        cert = StableElementWitness(
            tuple(x.coords), tuple(x.coords), (f.zero,) * a.dim
        )
        return StabilityReport(
            STABLE, METHOD_ELEMENT, cert, {"center": z_space.rows}
        )
    # Z's rows, reduced and in pivot order, go into combined unchanged, so
    # res is also x's residual there
    combined = _make_reducer(f, a.dim)
    for row in z_space.reducer.pivot_rows():
        combined.insert(row)

    def mirror(red, row):
        new = combined.insert(row)
        if new is not None:
            combined.advance_residual(res, new)
        return not res

    ideal_red = _ideal_closure(a, commutator_space(x).reducer.pivot_rows(), mirror)
    ideal_rows = Subspace(f, ideal_red).rows

    if res:  # mirror never stopped the closure: it reached Id([x, A])
        total = Subspace(f, combined)  # Z + the closure
        cert = UnstableElementWitness(
            tuple(x.coords), z_space.rows, ideal_rows, total.rows
        )
        bases = {"center": z_space.rows, "commutator_ideal": ideal_rows}
        return StabilityReport(NOT_STABLE, METHOD_ELEMENT, cert, bases)

    gens = [ideal_red.exact_residual(row) for row in z_space.rows]
    coeffs = express_in_span(f, gens, ideal_red.exact_residual(x.coords), a.dim)
    if coeffs is None:
        raise ConsistencyError("an element in Z + Id([x, A]) has no expression there")
    z_vec = _linear_combination(f, coeffs, z_space.rows, a.dim)
    u_vec = tuple(f.sub(xi, zi) for xi, zi in zip(x.coords, z_vec))
    cert = StableElementWitness(tuple(x.coords), tuple(z_vec), u_vec)
    bases = {"center": z_space.rows, "commutator_ideal_partial": ideal_rows}
    return StabilityReport(STABLE, METHOD_ELEMENT, cert, bases)


# ---------------------------------------------------------------------------
# Algebra-level decision
# ---------------------------------------------------------------------------


def algebra_centrally_stable(a: Algebra) -> StabilityReport:
    """Decide central stability of a whole algebra.

    The decision is rad(A) = Id(Z(A) cap rad(A)), taken in A itself whether
    or not A is unital.  A NotStable report carries a non-stable element of
    A, lifted from the center of a quotient and confirmed by
    element_centrally_stable; its bases name that quotient under
    "witness_quotient".

    Why A itself serves when it has no unity.  A non-unital A is centrally
    stable exactly when A# = F 1 + A is, and by rad(A#) = rad(A) (A#/A is
    the field), Z(A#) = F 1 + Z(A) and Id_A#(S) = Id_A(S) for S in A, the
    criterion reads the same in A as in A#.  So do (a) and (b) below: A#/J
    = (A/J)# and A#/R = (A/R)# have centers F 1 + Z(A/J) and F 1 + Z(A/R),
    and Z(A#) maps onto F 1 + pi(Z(A)).  Only the trace form needs the
    adjoined unity, and radical() adds it as one row of left traces on A.

    Why a lift always exists.  Let A be unital over a perfect field, R =
    rad A, J = Id(Z(A) cap R) != R and pi the projections.  Then (a)
    Z(A/J) cap R/J != 0 or (b) Z(A/R) != pi(Z(A)).  Suppose (b) fails.  Put
    B = A/J and N = R/J = rad B (J lies in R), and take k maximal with
    N^k != 0.  Z(A) maps onto Z(A/R), so Z(B) maps onto Z(B/N).
    Wedderburn-Malcev gives B = S + N with S ~ A/R a subalgebra holding 1.
    Each s in Z(S) is the S-part of a central c = s + m of B, m in N; as
    N N^k = N^k N = 0, s acts on N^k from each side as c does, so the two
    actions agree.  N^k is then a module over S (x)_Z(S) S^op, a product of
    simple algebras S_i (x)_K_i S_i^op whose simple modules are the S_i.  So
    N^k has a summand S_i, and the image n0 != 0 of the unity of S_i there
    commutes with S; and n0 N = N n0 = 0.  So n0 lies in Z(B) cap N, which
    is (a).  For non-unital A, (a) or (b) holds in A#, so in A.

    Why a lift is a witness.  Let phi be A -> A/J in case (a), A -> A/R in
    case (b), and zeta central in the image but outside phi(Z(A)).  In case
    (a) every nonzero zeta in R/J qualifies: phi(Z(A)) cap R/J is the image
    of Z(A) cap R, which lies in J.  If a lift x were stable, x = z + u
    with z central and u in Id([x, A]); phi kills [x, A], since zeta is
    central, so zeta = phi(z), a contradiction.  A lift that tests stable
    is an engine fault: ConsistencyError.
    """
    method = _radical_method(a)
    z = center(a)
    r = radical(a)
    c = subspace_intersect(z, r)
    j = _central_ideal(a, c, r)
    bases = {
        "center": z.rows,
        "radical": r.rows,
        "center_cap_radical": c.rows,
        "criterion_ideal": j.rows,
    }
    if j.dim == r.dim:
        return StabilityReport(STABLE, method, RadicalMatch(r.rows, c.rows), bases)

    # the first lift is the witness: A/J's whenever Z(A/J) cap R/J != 0
    where, v = next(_central_lifts(a, z, r, j), (None, None))
    rep = None if v is None else element_centrally_stable(a.element(v))
    if rep is None or rep.verdict != NOT_STABLE:
        raise ConsistencyError("no lift from Z(A/J) or Z(A/rad) is a non-stable element")
    return StabilityReport(NOT_STABLE, method, rep.certificate, {**bases, "witness_quotient": where})


def _central_ideal(a: Algebra, c: Subspace, r: Subspace) -> Subspace:
    """Id(C) for a subspace C of Z(A) cap R, R an ideal, closed from C's
    rows by left products alone: C + AC is already two-sided (see
    _ideal_closure).  The closure stops once it has R's dimension.  C lies
    in R, so Id(C) does, and a span of R's dimension inside R is R: so
    Id(C) = R exactly when the result has R's dimension, and otherwise the
    closure has run to its fixpoint, Id(C)."""
    def full(red, row):
        return red.dim == r.dim

    return Subspace(a.field, _ideal_closure(a, c.reducer.pivot_rows(), full, left_only=True))


def _radical_method(a: Algebra) -> str:
    # non-unital input keeps A# in its name: its radical is A#'s trace-form kernel
    return METHOD_RADICAL if a.is_unital else METHOD_UNITIZATION


def _central_lifts(a, z, r, j):
    """("A/J", v) for a lift v of a nonzero element of Z(A/J) cap R/J, then
    ("A/rad", v) for a lift of the first RREF row of Z(A/R) outside pi(Z(A)),
    each only when it exists.  `_quotient_center` gives both centers in the
    coordinates of quotient(): the canonical subspaces of the quotient
    algebras, so the lifts are those made from their centers.  A row lifts
    to v, zero at the ideal's pivots, on its free columns.  An A/R row lies
    in pi(Z(A)) exactly when v is in Z + R.

    R/J needs no reduction mod J.  J lies in R, so each pivot of J is one of
    R, and the rows of R's reducer at its other pivots meet no pivot of J:
    restricted to J's free columns, they span R/J, from R's int rows.

    The A/J lift is the one that writes the first row t of the intersection
    as sum x_k pi(c_k) over R's canonical rows c_k and takes
    v = sum x_k c_k, x the solution `express_in_span` gives: the one zero
    at the pivot columns of the relation space {x : sum x_k pi(c_k) = 0}.
    Each row j_q of J, pivot q, is sum_k j_q[k] c_k, so it gives a relation
    whose first nonzero is at q; these dim J relations span the relation
    space, so its pivot columns are J's pivots, where x is zero.  Every
    other c_k is zero at J's pivots, so v is too, and pi(v) = t is v on
    J's free columns: v is t lifted, and no system is solved.
    """
    f, n = a.field, a.dim
    jrows, rrows = j.reducer.rows, r.reducer.rows
    free = [c for c in range(n) if c not in jrows]
    pos = {c: k for k, c in enumerate(free)}
    quot = _make_reducer(f, len(free))
    for p in r.pivots:
        if p not in jrows:
            quot.insert({pos[c]: x for c, x in rrows[p].items()})
    zj = _quotient_center(a, j) if j.dim else z  # Z(A/0) = Z(A)
    inter = subspace_intersect(zj, Subspace(f, quot))
    if inter.dim > 0:
        yield "A/J", _lift(f, free, inter.rows[0], n)
    free = [c for c in range(n) if c not in rrows]
    center_plus_r = subspace_sum(z, r)
    for row in _quotient_center(a, r).rows:
        v = _lift(f, free, row, n)
        if not center_plus_r.contains(v):
            yield "A/rad", tuple(v)
            return


def _lift(f, free, row, n):
    """row, in the coordinates of the free columns, as a list of n."""
    v = [f.zero] * n
    for col, val in zip(free, row):
        v[col] = val
    return v


# ---------------------------------------------------------------------------
# The definitional oracle: Z(A/I) = (Z(A) + I)/I
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    equal: bool
    quotient_center: object  # Subspace in quotient coordinates
    center_image: object  # projection of Z(A), also in quotient coordinates
    map: object  # the QuotientMap used


def quotient_center_oracle(a: Algebra, ideal) -> OracleResult:
    """Compare the quotient's center with the projected center of a."""
    qm = quotient(a, ideal)
    zq = center(qm.target)
    img = span(
        a.field,
        [qm.project_vec(row) for row in center(a).rows],
        qm.target.dim,
    )
    return OracleResult(zq == img, zq, img, qm)


# ---------------------------------------------------------------------------
# Tensor decomposition t = a (x) 1 + s in A (x) M_n(F)
# ---------------------------------------------------------------------------


def tensor_with_matrices(a: Algebra, n: int) -> Algebra:
    """A (x) M_n(F) with the documented basis order, built afresh."""
    return matrix_algebra(a, n)


@dataclass(frozen=True)
class TensorDecomposition:
    tensor_algebra: Algebra
    diagonal_part: Element  # the privileged diagonal block, an element of A
    stable_part: Element  # s = t - diagonal_part (x) 1, centrally stable in T
    pivot: int
    checks: dict
    diagonal_report: StabilityReport
    # set when the diagonal part is stable: t's certificate, assembled in A
    # from the diagonal part's; it replays in T like any element report
    full_report: StabilityReport | None


def decompose_tensor_element(
    a: Algebra, n: int, t_coords, pivot: int | None = None
) -> TensorDecomposition:
    """Split t in A (x) M_n(F) as a (x) 1 + s with s centrally stable.

    The privileged diagonal slot is (n, n) by default; pivot moves it to
    (pivot, pivot), which corresponds to conjugating by the permutation that
    swaps the two slots.  Verified on the way out: s lies in Id([s, T]) and
    in Id([t, T]), and when the diagonal part is a stable element of A, t is
    a stable element of T.  A failure of either check raises
    ConsistencyError, since both are theorems.  The coordinate count and the
    pivot are checked before T is built.  Nothing is decided in T: the
    memberships are decided in A by _in_tensor_commutator_ideal, and t's
    certificate is assembled in A from the diagonal part's.  The diagonal
    part is decided first, so that s and, when it is stable, the
    certificate's u_T are checked against Id_T([t, T]) in one closure; a
    failure of either makes "stable_part_in_full_commutator_ideal" False.

    Why that certificate holds.  Let d = S_pp be the diagonal part, with
    certificate d = z + u, z in Z(A) and u in Id_A([d, A]).  Put z_T =
    z (x) 1 and u_T = t - z_T = u (x) 1 + s.  z (x) 1 commutes with every
    e_b (x) E_rs exactly when z commutes with every e_b, so z_T is central
    in T exactly when z is central in A.  Id_T([t, T]) = M_n(I_t) (see
    _in_tensor_commutator_ideal), and [d, A] lies in I_t: [S_pp, e] =
    [S_mm, e] + [S_pp - S_mm, e].  So u (x) 1 lies in M_n(I_t), and s
    does by the check above, so u_T does.  The two facts a replay in T
    checks, z_T central and u_T in Id_T([t, T]), are thus checked in A on
    the way out, as z in Z(A) and u_T in M_n(I_t), and ConsistencyError is
    raised if either fails.  The center recorded is Z(T) = Z(A) (x) 1:
    each RREF row of Z(A), pivot j, lifts to a row of pivot j*n*n that is
    zero at the other lifted pivots, so the lifts are Z(T)'s RREF rows.
    """
    if a.unity is None:
        raise BadParams("tensor decomposition needs a unital left factor")
    if n < 1:
        raise DimensionMismatch("matrix size must be >= 1")
    f = a.field
    t_coords = tuple(f.coerce(c) for c in t_coords)
    if len(t_coords) != a.dim * n * n:
        raise DimensionMismatch(f"expected {a.dim * n * n} coordinates, got {len(t_coords)}")
    p = n if pivot is None else pivot
    if not 1 <= p <= n:
        raise DimensionMismatch(f"pivot must be in 1..{n}")
    pp = p - 1
    T = tensor_with_matrices(a, n)

    diag = tuple(t_coords[j * n * n + pp * n + pp] for j in range(a.dim))
    s = _minus(f, t_coords, _times_identity(f, diag, n))
    diag_rep = element_centrally_stable(a.element(diag))
    stable = diag_rep.verdict == STABLE
    if stable:
        z = diag_rep.certificate.central_part
        z_t = _times_identity(f, z, n)
        u_t = _minus(f, t_coords, z_t)
    checks = {
        "stable_part_in_own_commutator_ideal": _in_tensor_commutator_ideal(a, n, s, [s]),
        "stable_part_in_full_commutator_ideal":
            _in_tensor_commutator_ideal(a, n, t_coords, [s, u_t] if stable else [s]),
    }
    if not all(checks.values()):
        raise ConsistencyError(f"tensor decomposition postcondition failed: {checks}")

    full_rep = None
    if stable:
        z_space = center(a)
        if not z_space.contains(z):
            raise ConsistencyError("stable diagonal part but unstable tensor element")
        cert = StableElementWitness(t_coords, z_t, u_t)
        rows = tuple(_times_identity(f, row, n) for row in z_space.rows)
        full_rep = StabilityReport(STABLE, METHOD_ELEMENT, cert, {"center": rows})
    return TensorDecomposition(T, a.element(diag), T.element(s), p, checks, diag_rep, full_rep)


def _times_identity(f, v, n):
    """v (x) 1 in A (x) M_n(F) for v in A: v_j at each slot j*n*n + q*(n + 1)."""
    nn = n * n
    out = [f.zero] * (len(v) * nn)
    for j, c in enumerate(v):
        if c:
            out[j * nn : (j + 1) * nn : n + 1] = (c,) * n
    return tuple(out)


def _minus(f, x, y):
    """x - y, with a field operation only where y is nonzero."""
    return tuple(f.sub(xi, yi) if yi else xi for xi, yi in zip(x, y))


def _in_tensor_commutator_ideal(a: Algebra, n: int, x, targets) -> bool:
    """Whether every target lies in Id_T([x, T]), T = A (x) M_n(F), for
    unital A; x and the targets are T-coordinates, decided by one ideal
    closure in A.

    Write x = sum_pq S_pq (x) E_pq with S_pq in A; the basis index of
    e_j (x) E_pq is j*n*n + p*n + q.  Since E_pq E_rs = delta_qr E_ps,

        [x, e_b (x) E_rs] = sum_p S_pr e_b (x) E_ps - sum_q e_b S_sq (x) E_rq,

    whose entries are S_pr e_b at (p, s) for p != r, -e_b S_sq at (r, q)
    for q != s, and S_rr e_b - e_b S_ss at (r, s).  The ideal of M_n(A)
    generated by a set X is M_n(I_X), I_X the A-ideal generated by the
    entries of X (E_1p y E_q1 = y_pq (x) E_11, and E_r1 (c (x) E_11) E_1s =
    c (x) E_rs).  With e_b running over a basis, so over 1 too, and
    S_rr e_b - e_b S_ss = (S_rr - S_ss) e_b + [S_ss, e_b]:

        Id_T([x, T]) = M_n(I_x),
        I_x = Id_A({S_pq : p != q} + {S_rr - S_ss} + [S_rr, A]).

    One diagonal slot r = m serves for the last two sets, since
    S_rr - S_ss = (S_rr - S_mm) - (S_ss - S_mm) and [S_rr, e] =
    [S_mm, e] + [S_rr - S_mm, e]; m is the slot with the sparsest block.
    [S_mm, A] is replaced by [S_mm, e_g], g in `_generators(a)`, which
    generate the same ideal of A (see _generator_commutators), so I_x is
    unchanged.  A target lies in M_n(I_x) exactly when each of its n*n
    entries lies in I_x.
    """
    nn = n * n

    def blocks(vec):
        out = [{} for _ in range(nn)]
        for k, c in _int_entries(vec).items():
            j, pq = divmod(k, nn)
            out[pq][j] = c
        return out

    S = blocks(x)
    m = min(range(n), key=lambda r: len(S[r * n + r]))
    base = S[m * n + m]
    gens = [S[p * n + q] for p in range(n) for q in range(n) if p != q]
    for r in range(n):
        if r != m:
            d = dict(S[r * n + r])
            for j, c in base.items():
                d[j] = d.get(j, 0) - c
            gens.append(d)
    gens.extend(_generator_commutators(a, base))
    return _in_ideal(a, gens, [entry for target in targets for entry in blocks(target)])


# ---------------------------------------------------------------------------
# Randomized consistency fuzzing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzFinding:
    kind: str
    sample_index: int
    detail: str


@dataclass(frozen=True)
class FuzzReport:
    algebra_verdict: str
    ideal_samples: int
    element_samples: int
    seed: int
    findings: tuple

    @property
    def ok(self) -> bool:
        return not self.findings


def fuzz_consistency(
    a: Algebra, ideal_samples: int, element_samples: int, seed: int = 0
) -> FuzzReport:
    """Randomized cross-checks of the criteria against each other.

    For a Stable algebra every random quotient must pass the center oracle
    and re-test Stable, and every random element must test Stable; any
    violation is recorded as a FATAL finding.  A NotStable algebra binds
    none of these, so nothing is sampled.  Sample streams are derived from
    (seed, index), so the report is reproducible.
    """
    base = algebra_centrally_stable(a)
    if not base.is_stable:
        return FuzzReport(base.verdict, ideal_samples, element_samples, seed, ())
    findings = []
    for idx in range(ideal_samples):
        rng = random.Random(f"{seed}:ideal:{idx}")
        gens = [random_element(a, rng) for _ in range(rng.randint(1, 2))]
        ideal = ideal_generated(a, gens)
        res = quotient_center_oracle(a, ideal)
        if not res.equal:
            findings.append(
                FuzzFinding(
                    "FATAL:quotient-center",
                    idx,
                    f"Z(A/I) dim {res.quotient_center.dim} != image dim {res.center_image.dim}",
                )
            )
        sub = algebra_centrally_stable(res.map.target)
        if not sub.is_stable:
            findings.append(
                FuzzFinding(
                    "FATAL:quotient-verdict",
                    idx,
                    f"quotient of a stable algebra by a dim-{ideal.dim} ideal tested NotStable",
                )
            )
    for idx in range(element_samples):
        rng = random.Random(f"{seed}:element:{idx}")
        x = random_element(a, rng)
        rep = element_centrally_stable(x)
        if rep.verdict != STABLE:
            findings.append(
                FuzzFinding(
                    "FATAL:element-verdict",
                    idx,
                    "element of a stable algebra tested NotStable",
                )
            )
    return FuzzReport(
        base.verdict, ideal_samples, element_samples, seed, tuple(findings)
    )


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------


def _claims_fit(a, verdict, method, cert) -> bool:
    """Whether a certificate of this kind comes with the claimed method and
    verdict: a RadicalMatch with the radical method that fits a, a stable
    element witness only with the element criterion (an unstable one also
    answers an algebra decision), and Stable only for a stable kind."""
    if isinstance(cert, RadicalMatch):
        fits = method == _radical_method(a)
    else:
        fits = method == METHOD_ELEMENT or isinstance(cert, UnstableElementWitness)
    return fits and isinstance(cert, (StableElementWitness, RadicalMatch)) == (verdict == STABLE)


def verify_certificate(a: Algebra, report: StabilityReport) -> bool:
    """Re-verify a report from the algebra alone: its verdict and method
    must fit its certificate, which must hold.  A claimed radical is checked
    by radical_failure, as radical() checks its own, not computed again.

    Every claimed vector is read as an IntVector (ints over a denominator
    m), and replay builds no Fraction.  A claimed row list is compared with
    the canonical rows of a subspace S without building them
    (`_is_canonical`): the canonical row of pivot p is R / R[p], R the
    reducer's stored row there, which is primitive, has a positive pivot
    and is zero at S's other pivots.  A claimed row c has R / R[p] as value
    exactly when its ints are R and m = R[p].  If c = R / R[p], then c[p] =
    1, so m c is primitive (a prime dividing all of m c divides m c[p] = m,
    and not m c_i for a c_i whose reduced denominator holds its full power
    in m), with the positive pivot m, and proportional to R: so it is R,
    and m = R[p].  The converse is c = R / m.  So replay accepts exactly
    the reports it accepted when it compared the rows as Fractions.

    Each check is exact, and each runs through the generating set G =
    `_generators(a)` where a theorem allows it:
      - a Stable witness x = z + u: z + u = x on the common denominator of
        the three; z is central when z e_g = e_g z for g in G
        (`_is_central`), so Z(A) is not built; u lies in Id([x, A]),
        closed from [x, e_g], g in G, alone (see `_generator_commutators`);
      - an Unstable witness: Id([x, A]) is closed from [x, A] by left
        products alone (`_commutator_ideal`), and compared with the claimed
        rows, as are Z(A) and their sum;
      - a RadicalMatch: Z cap rad is read off the radical's rows as the
        kernel of ([x, e_g])_g, g in G (`_center_cap`), so Z(A) is not
        built; its canonical rows are those of Z(A) intersected with rad,
        as RREF is unique.  Id(Z cap rad) is closed from Z cap rad by left
        products alone, as Z cap rad is central, and compared with rad by
        its dimension (`_central_ideal`): it lies in rad, an ideal.
    Each closure generates the same ideal as a two-sided closure of every
    commutator row, and Z(A) holds exactly the z that pass, so replay
    accepts exactly the reports it accepted when it checked that way.
    Scaling x, z or u by m changes none of these spans and memberships.
    A certificate built in Python holds tuples of scalars: it is read into
    the same form (`_int_claims`), and a vector of the wrong length makes
    replay return False."""
    cert = report.certificate
    if not isinstance(cert, (StableElementWitness, UnstableElementWitness, RadicalMatch)):
        return False
    if not _claims_fit(a, report.verdict, report.method, cert):
        return False
    claims = _int_claims(cert)
    n = a.dim
    if isinstance(cert, StableElementWitness):
        x, z, u = claims
        if any(v.length != n for v in claims):
            return False
        if not _sums_to(x, z, u, a.field.p):
            return False
        if not _is_central(a, z.entries):
            return False
        return _in_ideal(a, _generator_commutators(a, x.entries), [u.entries])
    if isinstance(cert, UnstableElementWitness):
        x, center_rows, ideal_rows, sum_rows = claims
        if x.length != n or any(r.length != n for rows in claims[1:] for r in rows):
            return False
        z = center(a)
        if not _is_canonical(z, center_rows):
            return False
        ideal = _commutator_ideal(a, x.entries)
        if not _is_canonical(ideal, ideal_rows):
            return False
        total = subspace_sum(z, ideal)
        if not _is_canonical(total, sum_rows):
            return False
        return bool(total.reducer.residual(x.entries))
    check_characteristic(a)
    radical_rows, cap_rows = claims
    if any(r.length != n for rows in claims for r in rows):
        return False
    red = _make_reducer(a.field, n)
    for row in radical_rows:
        red.insert(row.entries)
    rad = Subspace(a.field, red)
    if not _is_canonical(rad, radical_rows) or radical_failure(a, rad) is not None:
        return False
    c = _center_cap(a, rad)
    if not _is_canonical(c, cap_rows):
        return False
    return _central_ideal(a, c, rad).dim == rad.dim


def _int_claims(cert):
    """The members of a certificate in field order, each vector as an
    IntVector and each *_rows member as a tuple of them."""
    out = []
    for f in fields(cert):
        val = getattr(cert, f.name)
        out.append(tuple(map(IntVector.of, val)) if f.name.endswith("_rows") else IntVector.of(val))
    return out


def _sums_to(x, z, u, p) -> bool:
    """Whether z + u = x for IntVectors, compared on the lcm of their
    denominators, with the sum reduced mod p over GF(p)."""
    m = lcm(x.den, z.den, u.den)
    s = {i: c * (m // z.den) for i, c in z.entries.items()}
    k = m // u.den
    for i, c in u.entries.items():
        s[i] = s.get(i, 0) + c * k
    if p is not None:
        s = {i: c % p for i, c in s.items()}
    k = m // x.den
    return {i: c for i, c in s.items() if c} == {i: c * k for i, c in x.entries.items()}


def _is_canonical(s: Subspace, claimed) -> bool:
    """Whether the IntVectors claimed, in order, have as values the
    canonical rows of s (see verify_certificate)."""
    if len(claimed) != s.dim:
        return False
    rows = s.reducer.rows
    for p, c in zip(s.pivots, claimed):
        row = rows[p]
        if c.den != row[p] or c.entries != row:
            return False
    return True


def _in_ideal(a: Algebra, gens, targets) -> bool:
    """Whether every target, a dict or sequence of entries, lies in the ideal
    of a generated by gens.  The closure keeps a running residual of each
    target and stops once all of them are empty."""
    empty = _make_reducer(a.field, a.dim)
    pending = [res for res in map(empty.residual, targets) if res]

    def stop(red, row):
        for res in pending:
            red.advance_residual(res, row)
        pending[:] = [res for res in pending if res]
        return not pending

    if pending:  # gens is only read when some target is nonzero
        _ideal_closure(a, gens, stop)
    return not pending


def _commutator_ideal(a: Algebra, coords):
    """Id([x, A]) for x given by coords, a sequence or a dict of entries,
    closed from the raw commutator rows of x by left products alone:
    [x, A] + A[x, A] is already two-sided (see _ideal_closure).  The rows
    go in sparsest first; the closure runs to its fixpoint, whose reduced
    rows do not depend on the order."""
    rows = sorted(_commutator_rows(a, _int_entries(coords)), key=len)
    return Subspace(a.field, _ideal_closure(a, rows, left_only=True))
