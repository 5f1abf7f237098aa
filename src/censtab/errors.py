"""Exception types shared across the package."""


class FieldMismatch(ValueError):
    """Operands or containers belong to different base fields."""


class ParseError(ValueError):
    """Text does not match the scalar or file grammar."""


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions are incompatible."""


class IndexOutOfRange(ValueError):
    """A structure-constant table index is outside [0, dim)."""


class NotAssociative(ValueError):
    """A structure-constant table fails the associativity check.

    Carries the witness triple (i, j, k) of basis indices.
    """

    def __init__(self, i, j, k):
        super().__init__(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")
        self.witness = (i, j, k)


class AlgebraMismatch(ValueError):
    """Elements of different algebras were combined."""


class NotAnIdeal(ValueError):
    """A subspace is not closed under multiplication by the algebra.

    Carries a witness: (basis vector index of the subspace, algebra basis
    index, side) whose product escapes the subspace.
    """

    def __init__(self, vec_index, basis_index, side):
        super().__init__(
            f"product of subspace vector {vec_index} with basis element "
            f"{basis_index} on the {side} escapes the subspace"
        )
        self.witness = (vec_index, basis_index, side)


class UnsupportedCharacteristic(ValueError):
    """The radical criterion is not valid over this prime field.

    Raised for GF(p) when p does not exceed the dimension of the algebra;
    the trace-form criterion could silently return a wrong answer there, so
    we refuse instead.
    """


class ConsistencyError(RuntimeError):
    """An internally re-checked postcondition failed.

    This always indicates a bug in the engine, never a property of the
    input: the conditions re-checked are theorems.
    """


class ScalarTooLong(ValueError):
    """A computed scalar has an integer longer than a file may hold.

    Raised when such a scalar is formatted: the engine writes no literal
    that its own parser (`scalars.MAX_LITERAL_DIGITS`) would refuse.
    """


class BadParams(ValueError):
    """Catalog constructor parameters outside the documented ranges."""


class FileFormatError(ParseError):
    """An algebra or report file violates the documented JSON schema."""
