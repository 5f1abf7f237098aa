"""censtab: exact structure-constant algebras and central-stability decisions."""

__version__ = "0.1.0"

from .errors import (
    AlgebraMismatch,
    BadParams,
    ConsistencyError,
    DimensionMismatch,
    FieldMismatch,
    FileFormatError,
    IndexOutOfRange,
    NotAnIdeal,
    NotAssociative,
    ParseError,
    UnsupportedCharacteristic,
)
from .scalars import RATIONALS, FieldSpec, prime_field
from .linalg import Subspace, span, subspace_intersect, subspace_sum
from .algebras import (
    Algebra,
    Element,
    QuotientMap,
    build_algebra,
    center,
    commutator_space,
    direct_product,
    ideal_generated,
    is_commutative,
    matrix_algebra,
    matrix_units_algebra,
    nilpotency_index,
    opposite,
    quotient,
    tensor_product,
    unitization,
)
from .radical import radical
from .stability import (
    NOT_STABLE,
    STABLE,
    FuzzReport,
    OracleResult,
    RadicalMatch,
    StabilityReport,
    StableElementWitness,
    TensorDecomposition,
    UnstableElementWitness,
    algebra_centrally_stable,
    decompose_tensor_element,
    element_centrally_stable,
    fuzz_consistency,
    quotient_center_oracle,
    random_element,
    tensor_with_matrices,
    verify_certificate,
)
from .catalog import CatalogEntry, Expected, build as build_catalog_entry, standard_entries
from .fileformat import (
    algebra_from_json,
    algebra_to_json,
    load_algebra,
    report_to_json,
    save_algebra,
    verify_report_json,
)
