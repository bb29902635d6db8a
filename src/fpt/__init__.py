"""Exact first-passage-time analysis for finite discrete-time Markov chains.

Closed-form passage-time PGFs come from a linear system over the rational
function field, solved fraction-free; pmfs, moments and r-th passage laws
follow from series expansion, the differentiated system and PGF products.
All arithmetic is exact.
"""
from .exact import (Polynomial, RationalFunction, as_fraction, exact_div,
                    format_rational, poly_gcd)
from .markov import (PmfPrefix, StochasticMatrix, first_passage_pmf_oracle,
                     first_passage_table, parse_matrix, reach_probability,
                     reach_vector, render_matrix)
from .moments import (MomentReport, RthPassagePgf, mean_first_passage,
                      moment_report, rth_passage_pgf, rth_passage_pmf,
                      second_factorial_moment, variance_first_passage)
from .solver import (PassagePgf, PgfSystem, build_system, solve_all_for_target,
                     solve_pair, solve_pgf)

__all__ = [
    "Polynomial", "RationalFunction", "as_fraction", "exact_div",
    "format_rational", "poly_gcd",
    "PmfPrefix", "StochasticMatrix", "first_passage_pmf_oracle",
    "first_passage_table", "parse_matrix", "reach_probability",
    "reach_vector", "render_matrix",
    "MomentReport", "RthPassagePgf", "mean_first_passage", "moment_report",
    "rth_passage_pgf", "rth_passage_pmf", "second_factorial_moment",
    "variance_first_passage",
    "PassagePgf", "PgfSystem", "build_system", "solve_all_for_target",
    "solve_pair", "solve_pgf",
]

__version__ = "0.1.0"
