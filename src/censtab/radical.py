"""Jacobson radical via the trace form of the left regular representation.

For a finite-dimensional unital algebra over a field of characteristic zero,
or of characteristic p exceeding the algebra's dimension, the radical equals
the kernel of the bilinear form (x, y) -> trace(L_{xy}), where L is left
multiplication in the regular representation.  Outside that validity range
the computation refuses (UnsupportedCharacteristic) rather than risk a wrong
answer.

Every input, unital or not, is worked on in A itself: the rows are the
trace form of its unitization A# on A x A#, whose kernel is rad(A) (see
radical), so nothing here builds A#, and the bound p > dim(A) applies to
every input alike (see check_characteristic).  The result is re-checked in
the algebra itself by radical_failure, the one test of "this subspace is the
radical", which certificate replay also uses, so a bug here surfaces as a
ConsistencyError instead of a wrong verdict downstream.  Its nilpotency step
is a trace test as well: an ideal N is nilpotent exactly when Tr(L_b) = 0
for every b in a basis of N, in the same characteristics, and its
semisimplicity step reads the trace form of A/N off A, building nothing.
"""

from __future__ import annotations

from math import lcm

from .algebras import Algebra, ideal_witness
from .errors import ConsistencyError, UnsupportedCharacteristic
from .linalg import Subspace, _make_reducer, kernel_of_rows


def _left_traces(a: Algebra):
    """t_k = trace(L_{e_k}), read from the algebra's int index: N times the
    trace for its scale N, as ints not reduced mod p over GF(p).  Computed
    once per algebra and kept in its memo, as the generators are."""
    t = a._memo.get("left_traces")
    if t is None:
        t = [0] * a.dim
        for k, row in enumerate(a._rows):
            for j, pairs in row.items():
                for m, c in pairs:
                    if m == j:
                        t[k] += c
        t = a._memo["left_traces"] = tuple(t)
    return t


def _trace_form_rows(a: Algebra, t=None, skip=()):
    """The trace form of A# on A x A#: rows G[i][j] = trace(L_{e_i e_j}) =
    sum_k c[i][j][k] t_k for e_j in A, then the row t of t_k = trace(L_{e_k}),
    the column of the adjoined unity 1, as e_k 1 = e_k.

    Read from the algebra's int index, so the Gram rows are N^2 G and the
    last row N t for its scale N: the same kernel, with int entries (not
    reduced mod p over GF(p)).  Each row is a dict of its nonzero entries.
    For unital a the last row is sum_j u_j G_j, u the unity, so it leaves
    the kernel as it is.  Put first, it would fill in the Gram rows.
    With other traces t and the indices in skip left out, the same sums
    give the trace form of A/N (see radical_failure).
    """
    t = _left_traces(a) if t is None else t
    rows = []
    for i, entries in enumerate(a._rows):
        if i in skip:
            continue
        row = {}
        for j, pairs in entries.items():
            if j not in skip:
                for k, c in pairs:
                    if t[k]:
                        row[j] = row.get(j, 0) + c * t[k]
        rows.append(row)
    rows.append({k: tk for k, tk in enumerate(t) if tk and k not in skip})
    return rows


def check_characteristic(a: Algebra) -> None:
    """Raise unless p > n = dim(a).  The kernel K of _trace_form_rows(a) is
    an ideal holding rad(a), and each x in K has Tr(L_{x^k}) = 0 for every
    k >= 1: the trace row gives k = 1, the Gram rows the rest.  L_x acts on
    a, of dimension n, so for p > n it is nilpotent (Newton's identities, as
    in radical_failure).  So K is a nil ideal and K = rad(a), though A# has
    dimension n + 1."""
    p = a.field.p
    if p is not None and p <= a.dim:
        raise UnsupportedCharacteristic(f"radical over GF({p}) needs p > {a.dim} (the dimension)")


def radical(a: Algebra) -> Subspace:
    """The Jacobson radical of a, as a canonical subspace of a.

    For w in a, L_w on A# = F 1 + a sends 1 to w and a into a, so it has
    the trace of L_w on a.  So _trace_form_rows(a) is A#'s trace form on
    a x A#, and its kernel is rad(A#) cap a = rad(a), unital or not, as
    A#/a is the field.  radical_failure re-checks it in a before it is
    returned.
    """
    check_characteristic(a)
    rad = kernel_of_rows(a.field, _trace_form_rows(a), a.dim)
    if (reason := radical_failure(a, rad)) is not None:
        raise ConsistencyError(reason)
    return rad


def radical_failure(a: Algebra, rad: Subspace):
    """None if rad is the radical of the algebra a, else the reason.

    Precondition: a has characteristic 0 or p > n = dim(a).  Both callers
    ensure it through check_characteristic.  a need not be unital.

    rad is the radical exactly when it is a nilpotent ideal with a
    semisimple quotient; each property is checked once, in that order.
    Passing the ideal check licenses the other two steps: the trace test
    below needs N = rad closed under products, and the trace form of the
    quotient is read off A only for an ideal N.

    Nilpotency is the test Tr(L_b) = 0 for every basis row b of N.  L_{xy} =
    L_x L_y, so L(N) = {L_x : x in N} is an algebra of n x n matrices, and
    Tr(L_x^k) = Tr(L_{x^k}) with x^k in N.  If the trace vanishes on N, it
    vanishes on every L_x^k, k = 1..n; Newton's identities, which divide by
    k <= n < p, then make the characteristic polynomial of L_x equal to
    lambda^n, so each L_x is nilpotent.  An algebra of nilpotent matrices
    is nilpotent (Wedderburn), so L(N)^n = 0, and N^{n+1} = L(N)^n N = 0.
    Conversely, a nilpotent x has a nilpotent L_x, of trace 0.  The test is
    linear in b, so a basis suffices.  Over Q the index holds the table
    times its int scale, so the traces read off it are that multiple of Tr
    and the zero test is the same; over GF(p) the int sums are reduced mod p.

    B = A/N is not built.  L_x keeps the ideal N, so Tr_B(L_{pi x}) =
    Tr_A(L_x) - Tr_N(L_x|N), where N's basis row b_q (pivot q, zero at the
    other pivots) has coefficient w[q] / b_q[q] in w.  tau_k =
    Tr_B(L_{pi e_k}) vanishes on N, and the e_i, i a free column, map onto
    a basis of B, so B's Gram entries are sum_k c_ab^k tau_k over free a, b:
    _trace_form_rows(a, tau, N's pivots) is _trace_form_rows(B) with its
    rows scaled, and B's kernel is zero exactly when their rank is dim B.

    The quotient B needs no unity: the kernel of _trace_form_rows(B) is zero
    exactly when B is semisimple.  The kernel holds every nilpotent ideal of
    B, so a zero kernel leaves none, and B is semisimple (Wedderburn, any
    p); a semisimple B is unital, so its trace row is dependent and the
    kernel is rad B = 0 as p > n >= dim B.  A non-unital B, not semisimple,
    has a nonzero kernel with or without that row.  The test on N agrees
    with that in A# on N# = 0 + N, step by step: N# is an ideal of A#
    exactly when N is one of A; L_b on A# sends 1 to b in A, so has the
    trace of L_b on A; and A#/N# = (A/N)# is semisimple exactly when A/N
    is (B# = F x B for unital B, and B's nilpotent ideals are B#'s).
    """
    w = ideal_witness(a, rad)
    if w is not None:
        return f"radical candidate is not an ideal: witness {w}"
    t, p = _left_traces(a), a.field.p
    piv = rad.reducer.rows  # pivot -> basis row, zero at every other pivot
    for b in piv.values():
        tr = sum(c * t[k] for k, c in b.items())
        if tr if p is None else tr % p:
            return "radical candidate is not nilpotent"
    gram = _make_reducer(a.field, a.dim)
    for row in _trace_form_rows(a, _quotient_traces(a, piv), piv):
        gram.insert(row)
    if gram.dim + len(piv) != a.dim:
        return "quotient by radical candidate is not semisimple"
    return None


def _quotient_traces(a: Algebra, piv):
    """d N tau_k, tau_k = Tr_{A/N}(L_{pi e_k}), for the ideal N with reducer
    rows piv (pivot -> row) and d the lcm of their pivot entries, at the
    free k and those products of free basis vectors reach; 0 at the other k,
    which _trace_form_rows(a, tau, piv) does not read (see radical_failure).
    """
    t, rows = _left_traces(a), a._rows
    free = [i for i in range(a.dim) if i not in piv]
    need = {k for i in free for j, pairs in rows[i].items() if j not in piv for k, _ in pairs}
    d = lcm(*[b[q] for q, b in piv.items()])  # 1 over GF(p): unit pivots
    tau = [0] * a.dim
    for k in need.union(free):
        tau[k] = d * t[k]
        for j, pairs in rows[k].items():
            for q, c in pairs:
                if (b := piv.get(q)) is not None and j in b:
                    tau[k] -= d // b[q] * b[j] * c
    return tau
