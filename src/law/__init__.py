"""Workbench for computational algebraic logic over finite structures:
Leibniz and Suszko congruences of finite matrices, deductive-filter sweeps,
products and translations of logics, and bounded hierarchy class checks.

The names below load with their module on first access (PEP 562), so that
``import law`` and a ``law`` command import only the layers they use."""

import importlib

_EXPORTS = {
    "algebra": ("FiniteAlgebra", "congruences_bruteforce", "direct_product",
                "enumerate_algebras", "eval_term", "is_congruence", "largest_congruence_below",
                "nonindexed_product", "one_element", "quotient"),
    "config": ("Config", "load_config"),
    "logics": ("FilterFamily", "LogicPresentation", "Rule", "deductive_filters", "entails",
               "filter_notion", "is_model", "matrices_logic", "reduced_filters_on",
               "rules_logic", "suszko_congruence"),
    "matrices": ("Matrix", "find_isomorphism", "is_compatible", "leibniz_congruence",
                 "matrix_product", "reduce_matrix", "submatrices"),
    "partitions": ("Partition", "all_partitions"),
    "terms": ("App", "Signature", "Term", "Var", "enumerate_terms", "parse_term", "to_sexpr"),
    "translations": ("Translation", "check_interpretation_bounded", "tau_reduct",
                     "translate_term"),
    "verdicts": ("Verdict",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the exports, and the submodules that importing them has always loaded
__all__ = sorted([*_HOME, *_EXPORTS, "clone", "errors"])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
