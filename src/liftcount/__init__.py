"""Exact, domain-polynomial model counting for two-variable logic with
equality, cardinality constraints, existential and counting quantifiers,
plus a brute-force oracle for verification."""

import sys

from .celltypes import AtomOrder, CapacityError, TypeTables, build_tables, eval_lifted
from .engine import (Counters, evaluate, evaluate_grouped, fomc_universal,
                     multinomial)
from .formula import (ParseError, Problem, Signature, format_formula,
                      format_problem, free_vars, ground_atoms, parse_problem)
from .oracle import (Interpretation, eval_sentence, interpretation_stats,
                     oracle_count, oracle_distribution)
from .reference import (Cell, PairTerm, enumerate_kh, pair_classes,
                        stream_value, term_value)
from .transform import (SNF, CountingProgram, compile_problem,
                        expand_counting, extract_counting, to_snf)
from .weights import (CallableStatWeight, DistributionQuery,
                      EmptyDistributionError, StatTableWeights,
                      SymmetricWeights, Unweighted, count_distribution,
                      weight_of)

__version__ = "0.1.0"

# exact counts pass CPython's default int -> str cap (4 300 digits, 3.11+)
if hasattr(sys, "set_int_max_str_digits") and \
        0 < sys.get_int_max_str_digits() < 2_000_000:
    sys.set_int_max_str_digits(2_000_000)

__all__ = [
    "AtomOrder", "CapacityError", "TypeTables", "build_tables", "eval_lifted",
    "Counters", "evaluate", "evaluate_grouped", "fomc_universal",
    "multinomial",
    "Cell", "PairTerm", "enumerate_kh", "pair_classes", "stream_value",
    "term_value",
    "ParseError", "Problem", "Signature", "format_formula", "format_problem",
    "free_vars", "ground_atoms", "parse_problem",
    "Interpretation", "eval_sentence", "interpretation_stats",
    "oracle_count", "oracle_distribution",
    "SNF", "CountingProgram", "compile_problem", "expand_counting",
    "extract_counting", "to_snf",
    "CallableStatWeight", "DistributionQuery", "EmptyDistributionError",
    "StatTableWeights", "SymmetricWeights", "Unweighted",
    "count_distribution", "weight_of",
    "__version__",
]
