"""Workbench for computational algebraic logic over finite structures:
Leibniz and Suszko congruences of finite matrices, deductive-filter sweeps,
products and translations of logics, and bounded hierarchy class checks."""

from .algebra import (
    FiniteAlgebra,
    congruences_bruteforce,
    direct_product,
    enumerate_algebras,
    eval_term,
    is_congruence,
    largest_congruence_below,
    nonindexed_product,
    one_element,
    quotient,
)
from .config import Config, load_config
from .logics import (
    FilterFamily,
    LogicPresentation,
    Rule,
    deductive_filters,
    entails,
    filter_notion,
    is_model,
    matrices_logic,
    reduced_filters_on,
    rules_logic,
    suszko_congruence,
)
from .matrices import (
    Matrix,
    find_isomorphism,
    is_compatible,
    leibniz_congruence,
    matrix_product,
    reduce_matrix,
    submatrices,
)
from .partitions import Partition, all_partitions
from .terms import App, Signature, Term, Var, enumerate_terms, parse_term, to_sexpr
from .translations import Translation, check_interpretation_bounded, tau_reduct, translate_term
from .verdicts import Verdict, verdict_merge

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
