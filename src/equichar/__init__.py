"""Exact quasi-polynomial analysis of finite group actions on (Z/q)^l.

Given integer matrices generating a finite subgroup of GL_l(Z), this package
computes, symbolically and exactly, how the permutation representation on
(Z/q)^l decomposes into irreducibles as a function of q: each multiplicity is
a quasi-polynomial whose terms are rational multiples of gcd(e, q) products
times powers of q. A brute-force enumeration oracle cross-checks everything
for small q.
"""

from .analysis import (AnalysisReport, ClassDivisorData,
                       EquivariantQuasiPolynomial, action_period, analyze,
                       check_reciprocity, class_divisor_data, equivariant_qp,
                       fixed_point_qp, reciprocity_character, report_to_dict)
from .bruteforce import (OrbitDecomposition, differential_check,
                         enumerate_action)
from .characters import (CharacterTable, ClassFunction, Cyclotomic,
                         dixon_character_table, find_row, induce_trivial,
                         ingest_character_table, inner_product,
                         rational_class_function, table_to_dict,
                         tensor_identify)
from .checks import Verdict
from .errors import (CertificationFailed, DimensionMismatch,
                     EnumerationCapExceeded, EquicharError, GroupMismatch,
                     NoMatch, NonRationalCoefficient, NonUnimodularGenerator,
                     NotACharacter, NotASubgroup, NotLinearCharacter,
                     OrderCapExceeded, ParseError, PrimeSearchFailed,
                     UnknownExample, ValidationError, ValidationFailed)
from .gcdpoly import GcdQuasiPolynomial, divisors_of, make_quasimonomial
from .groups import (FiniteMatrixGroup, cyclic_subgroup, generate_group,
                     is_subgroup)
from .intmat import IntMatrix, SmithDecomposition, smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CertificationFailed",
    "CharacterTable",
    "ClassDivisorData",
    "ClassFunction",
    "Cyclotomic",
    "DimensionMismatch",
    "EnumerationCapExceeded",
    "EquicharError",
    "EquivariantQuasiPolynomial",
    "FiniteMatrixGroup",
    "GcdQuasiPolynomial",
    "GroupMismatch",
    "IntMatrix",
    "NoMatch",
    "NonRationalCoefficient",
    "NonUnimodularGenerator",
    "NotACharacter",
    "NotASubgroup",
    "NotLinearCharacter",
    "OrbitDecomposition",
    "OrderCapExceeded",
    "ParseError",
    "PrimeSearchFailed",
    "SmithDecomposition",
    "UnknownExample",
    "ValidationError",
    "ValidationFailed",
    "Verdict",
    "action_period",
    "analyze",
    "check_reciprocity",
    "class_divisor_data",
    "cyclic_subgroup",
    "differential_check",
    "divisors_of",
    "dixon_character_table",
    "enumerate_action",
    "equivariant_qp",
    "find_row",
    "fixed_point_qp",
    "generate_group",
    "induce_trivial",
    "ingest_character_table",
    "inner_product",
    "is_subgroup",
    "make_quasimonomial",
    "rational_class_function",
    "reciprocity_character",
    "report_to_dict",
    "smith_normal_form",
    "table_to_dict",
    "tensor_identify",
]
