"""Exact canonical-basis computations for the quantum orthogonal algebras."""

from .canonical import (
    APath,
    CanonicalMatrix,
    IterationLimit,
    NotAdmissible,
    NotOrthogonalTableau,
    a_path,
    a_vector,
    canonical_matrix,
    marsh,
)
from .crystal import SpinColumn, Word, component_bfs, raise_to_highest, spin_apply, vec_edge, word_apply, word_eps_phi
from .laurent import InexactDivision, LaurentPoly, NegativePower, SparseVector, divide_exact, quantum_factorial, quantum_int
from .modvec import CodedVector, apply_monomial, decoded, highest_vector, module_f_divided
from .rootdata import AlgebraKind, InvariantViolation, NonIntegralPairing, cartan_exponent, letter_weight2, qi_exponent
from .shapes import (
    Column,
    MalformedWord,
    NotInOmegaPlus,
    Shape,
    Tabloid,
    decompose_lambda,
    enumerate_columns,
    enumerate_tableaux,
    enumerate_tabloids,
    highest_tabloid,
    is_admissible,
    is_orthogonal_tableau,
    orthogonal_tableaux,
    parse_column,
    parse_tabloid,
    shape_for_lambda,
    shape_of,
    tabloid_factors,
    tabloid_reading,
    weight2_of_tabloid,
    word_to_tabloid,
)
from .wedge import StepLimitExceeded, straighten, tensor_lift_f, wedge_f, wedge_f_divided

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
