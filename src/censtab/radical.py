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
semisimplicity step reads A's own trace form on N's free columns, building
nothing.
"""

from __future__ import annotations

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


def _trace_form_rows(a: Algebra, skip=()):
    """The trace form of A# on A x A#: rows G[i][j] = trace(L_{e_i e_j}) =
    sum_k c[i][j][k] t_k for e_j in A, then the row t of t_k = trace(L_{e_k}),
    the column of the adjoined unity 1, as e_k 1 = e_k.

    Read from the algebra's int index, so the Gram rows are N^2 G and the
    last row N t for its scale N: the same kernel, with int entries (not
    reduced mod p over GF(p)).  Each row is a dict of its nonzero entries.
    For unital a the last row is sum_j u_j G_j, u the unity, so it leaves
    the kernel as it is.  Put first, it would fill in the Gram rows.
    With the indices in skip, the pivots of an ideal N, left out, the same
    rows hold the form on A#/N x A/N (see radical_failure).
    """
    t = _left_traces(a)
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
    below needs N = rad closed under products, and the semisimplicity step
    needs N a nilpotent ideal.

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

    Semisimplicity reads A's own trace form on N's free columns; B = A/N is
    not built.  The rows _trace_form_rows(a, N's pivots) hold the form
    (x, y) -> Tr_A(L_{xy}) at x = 1 and x = e_i, y = e_j, for free i and j.
    N has passed the ideal and nilpotency steps, so L_{xn} and L_{nx} are
    nilpotent for x in A# and n in N, and the form vanishes on N on both
    sides.  It descends to A#/N x B, where the free e_j are a basis of B,
    and B is semisimple exactly when the form has no kernel in B, that is,
    when the rows have rank dim B:
    - If B is semisimple, the factors N^i/N^{i+1} of the chain A, N, N^2,
      ..., 0 are B-modules, and Tr_A(L_w) is the sum of the traces of w on
      them.  The first one is B, so each simple component M_k(D_k) of B,
      of center K_k, acts on m_k >= 1 copies of its simple module, and the
      form on it is m_k s_k Tr_{K_k/F}(Trd(xy)), s_k the index of D_k.
      m_k s_k is not zero in F: over GF(p), 1 <= m_k <= dim A < p and
      s_k = 1 (a finite division ring is a field).  K_k/F is separable
      (F is perfect), so the form is nondegenerate on each factor, and so
      on B.
    - If B is not semisimple, the preimage R of rad B is a nilpotent ideal
      of A, so Tr_A(L_{xy}) = 0 for x in A# and y in R, and R/N != 0 lies
      in the kernel.
    Over Q the Gram rows hold the form times d^2 and the trace row times
    d, d the index's int scale: the same rank.

    B needs no unity, and the test on N agrees with that in A# on
    N# = 0 + N, step by step: N# is an ideal of A# exactly when N is one of
    A; L_b on A# sends 1 to b in A, so has the trace of L_b on A; and
    A#/N# = (A/N)# is semisimple exactly when A/N is (B# = F x B for
    unital B, and B's nilpotent ideals are B#'s).
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
    for row in _trace_form_rows(a, piv):
        gram.insert(row)
    if gram.dim + len(piv) != a.dim:
        return "quotient by radical candidate is not semisimple"
    return None

