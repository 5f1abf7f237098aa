"""Jacobson radical via the trace form of the left regular representation.

For a finite-dimensional unital algebra over a field of characteristic zero,
or of characteristic p exceeding the algebra's dimension, the radical equals
the kernel of the bilinear form (x, y) -> trace(L_{xy}), where L is left
multiplication in the regular representation.  Outside that validity range
the computation refuses (UnsupportedCharacteristic) rather than risk a wrong
answer.

Every input is routed through its unitization first, so unital and
non-unital algebras share one code path; the validity bound is therefore
p > dim + 1, and the result is pulled back into the original coordinates.
The returned subspace is re-checked to be a nilpotent two-sided ideal with a
semisimple quotient, so a bug here surfaces as a ConsistencyError instead of
a wrong verdict downstream.
"""

from __future__ import annotations

from .algebras import Algebra, _power_chain_index, ideal_witness, quotient, unitization
from .errors import ConsistencyError, UnsupportedCharacteristic
from .linalg import Subspace, kernel_of_rows


def _trace_form_rows(a: Algebra):
    """Gram matrix rows G[i][j] = trace(L_{e_i e_j}) = sum_k c[i][j][k] t_k."""
    f = a.field
    t = [f.zero] * a.dim
    for k, entries in enumerate(a._rows):
        for j, pairs in entries:
            for m, c in pairs:
                if m == j:
                    t[k] = f.add(t[k], c)
    rows = []
    for entries in a._rows:
        row = [f.zero] * a.dim
        for j, pairs in entries:
            acc = 0
            for k, c in pairs:
                if t[k]:
                    acc = acc + c * t[k]
            row[j] = f.canon(acc)
        rows.append(row)
    return rows


def check_characteristic(a: Algebra) -> None:
    """Raise unless the trace-form criterion is valid for a's unitization."""
    p = a.field.p
    if p is not None and p <= a.dim + 1:
        raise UnsupportedCharacteristic(
            f"radical over GF({p}) needs p > {a.dim + 1} (dimension with unity adjoined)"
        )


def radical(a: Algebra) -> Subspace:
    """The Jacobson radical of a, as a canonical subspace of a.

    Computed on the unitization: rad = {x : trace(L_{x y}) = 0 for all y},
    intersected with the embedded copy of a.  Postconditions (two-sided
    ideal, nilpotent, semisimple quotient) are re-verified before returning.
    """
    check_characteristic(a)
    u = unitization(a)
    ua = u.algebra
    f = a.field
    gram = _trace_form_rows(ua)
    rad_sharp = kernel_of_rows(f, gram, ua.dim)
    # rad_sharp must lie in the embedded copy of a (first coordinate zero);
    # in RREF only a row with pivot 0 is nonzero there
    if rad_sharp.pivots[:1] == (0,):
        raise ConsistencyError("trace-form radical escapes the embedded algebra")
    rows = tuple(tuple(r[1:]) for r in rad_sharp.rows)
    pivots = tuple(p - 1 for p in rad_sharp.pivots)
    rad = Subspace(f, a.dim, rows, pivots)
    _verify_radical(a, rad, ua, rad_sharp)
    return rad


def _verify_radical(a, rad, ua, rad_sharp):
    w = ideal_witness(a, rad)
    if w is not None:
        raise ConsistencyError(f"radical candidate is not an ideal: witness {w}")
    if _power_chain_index(a, rad.rows) is None:
        raise ConsistencyError("radical candidate is not nilpotent")
    # semisimple quotient: the trace form of A#/rad(A#) has zero kernel
    qm = quotient(ua, rad_sharp)
    qgram = _trace_form_rows(qm.target)
    if kernel_of_rows(a.field, qgram, qm.target.dim).dim != 0:
        raise ConsistencyError("quotient by radical candidate is not semisimple")


def is_semisimple(a: Algebra) -> bool:
    return radical(a).dim == 0
