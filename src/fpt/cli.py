"""Command-line front end: ingest a transition matrix, print passage-time
PGFs, series, moments and r-th passage laws, or self-verify the solver
against the step-recurrence oracle.

Exit codes:
    0  success
    1  internal mismatch found by `check`
    2  matrix parse / validation error
    3  state index out of range
    4  success, but the requested target is defective from the source
       (result still printed; the warning goes to stderr)
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exact import format_rational
from .markov import StochasticMatrix, first_passage_table, parse_matrix
from .moments import moment_report, rth_passage_pgf
from .solver import solve_all_for_target, solve_pgf

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INDEX_ERROR = 3
EXIT_DEFECTIVE = 4

# Caps on the size of one call, each mapped to exit 2.  One call at a cap,
# with the other inputs at moderate sizes, takes under 10 s on one core
# (README lists the calls measured).  The cost grows polynomially in n,
# order and terms, so a call at several caps at once takes longer.
MAX_STATES = 32
# `check` eliminates the whole first-passage system once per target state,
# so its chains are capped lower.
MAX_CHECK_STATES = 12
MAX_TERMS = 200
MAX_ORDER = 500


def _add_common(sub, matrix_required=True):
    sub.add_argument("--matrix", required=matrix_required,
                     help="path to the transition matrix file")
    sub.add_argument("--format", choices=["auto", "csv", "json", "whitespace"],
                     default="auto", help="matrix file format (default: sniffed)")
    sub.add_argument("--normalize-rows", action="store_true",
                     help="rescale each row by its sum instead of requiring exact row sums")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="decimal", action="store_false",
                      help="print values as exact fractions")
    mode.add_argument("--decimal", dest="decimal", action="store_true",
                      help="print values as decimals (default); non-terminating "
                           "values fall back to fractions with a rounded hint")
    sub.set_defaults(decimal=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpt",
        description="Exact first-passage-time analysis for finite discrete-time "
                    "Markov chains.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_pgf = subs.add_parser("pgf", help="closed-form first-passage PGF")
    _add_common(p_pgf)
    p_pgf.add_argument("--from", dest="source", type=int, required=True)
    p_pgf.add_argument("--to", dest="target", type=int, required=True)

    p_series = subs.add_parser("series", help="pmf prefix: lines '<k> <value>'")
    _add_common(p_series)
    p_series.add_argument("--from", dest="source", type=int, required=True)
    p_series.add_argument("--to", dest="target", type=int, required=True)
    p_series.add_argument("--terms", type=int, default=10)

    p_mom = subs.add_parser("moments", help="mean, second factorial moment and "
                                            "variance per source for one target")
    _add_common(p_mom)
    p_mom.add_argument("--to", dest="target", type=int, required=True)

    p_pass = subs.add_parser("passage", help="order-r passage PGF and pmf prefix")
    _add_common(p_pass)
    p_pass.add_argument("--from", dest="source", type=int, required=True)
    p_pass.add_argument("--to", dest="target", type=int, required=True)
    p_pass.add_argument("--order", type=int, default=2)
    p_pass.add_argument("--terms", type=int, default=10)

    p_check = subs.add_parser(
        "check", help="compare solver series against the step-recurrence oracle")
    _add_common(p_check, matrix_required=False)
    p_check.add_argument("--terms", type=int, default=25)
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for generated random matrices")
    p_check.add_argument("--count", type=int, default=20,
                         help="number of random matrices when no --matrix is given")
    p_check.add_argument("--max-states", type=int, default=6)
    return parser


def _in_range(option: str, value: int, low: int, high: int, cap: str) -> None:
    """Raise ValueError unless low <= value <= high; the message names the
    option and, past the top, the cap's constant."""
    if value < low:
        raise ValueError(f"{option} must be >= {low}")
    if value > high:
        raise ValueError(f"{option} must be <= {high} ({cap})")


def _load_matrix(args, max_states: int = MAX_STATES,
                 cap: str = "MAX_STATES") -> StochasticMatrix:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        text = fh.read()
    m = parse_matrix(text, fmt=args.format, normalize_rows=args.normalize_rows)
    if m.n > max_states:
        raise ValueError(f"the matrix has {m.n} states; at most {max_states} "
                         f"are allowed ({cap})")
    if m.row_normalized:
        print("note: rows were rescaled to sum to 1", file=sys.stderr)
    return m


def _warn_defective(defective: bool, source: int, target: int, mass: Fraction,
                    order: int = 1) -> int:
    """EXIT_OK, or EXIT_DEFECTIVE after a warning on stderr."""
    if not defective:
        return EXIT_OK
    times = "" if order == 1 else f" {order} times"
    print(f"warning: target {target} is reached{times} from {source} with "
          f"probability {format_rational(mass)} < 1; the law is defective",
          file=sys.stderr)
    return EXIT_DEFECTIVE


def cmd_pgf(args) -> int:
    P = _load_matrix(args)
    res = solve_pgf(P, args.source, args.target)
    print(res.pgf.render(decimal=args.decimal))
    return _warn_defective(res.defective, args.source, args.target, res.reach_mass)


def cmd_series(args) -> int:
    _in_range("--terms", args.terms, 1, MAX_TERMS, "MAX_TERMS")
    P = _load_matrix(args)
    res = solve_pgf(P, args.source, args.target)
    coeffs = res.pgf.series(args.terms + 1)
    for k in range(1, args.terms + 1):
        print(f"{k} {format_rational(coeffs[k], args.decimal)}")
    return _warn_defective(res.defective, args.source, args.target, res.reach_mass)


def cmd_moments(args) -> int:
    P = _load_matrix(args)
    rep = moment_report(P, args.target)
    defective = False
    print("# source mean second_factorial variance")
    for k in range(1, P.n + 1):
        if rep.finite[k - 1]:
            print(f"{k} {format_rational(rep.means[k - 1], args.decimal)} "
                  f"{format_rational(rep.second_factorial[k - 1], args.decimal)} "
                  f"{format_rational(rep.variances[k - 1], args.decimal)}")
        else:
            defective = True
            print(f"{k} inf inf inf")
    if defective:
        print(f"warning: some sources do not reach target {args.target} "
              f"with certainty; their moments are infinite", file=sys.stderr)
        return EXIT_DEFECTIVE
    return EXIT_OK


def cmd_passage(args) -> int:
    _in_range("--order", args.order, 1, MAX_ORDER, "MAX_ORDER")
    _in_range("--terms", args.terms, 1, MAX_TERMS, "MAX_TERMS")
    P = _load_matrix(args)
    rp = rth_passage_pgf(P, args.source, args.target, args.order)
    print(rp.pgf.render(decimal=args.decimal))
    for k, v in enumerate(rp.pmf(args.terms).values, start=1):
        print(f"{k} {format_rational(v, args.decimal)}")
    return _warn_defective(rp.defective, args.source, args.target, rp.mass, args.order)


def random_stochastic_matrix(rng: random.Random, n: int) -> StochasticMatrix:
    """Random exact stochastic matrix; zero entries are common so reducible
    shapes show up in the corpus."""
    rows = []
    for _ in range(n):
        weights = [rng.randint(0, 6) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return StochasticMatrix(rows)


def check_matrix(P: StochasticMatrix, depth: int) -> Optional[str]:
    """Compare solver series with the oracle for all ordered pairs.

    Returns None on agreement, else a description of the first mismatch.
    """
    for j in range(1, P.n + 1):
        pgfs = solve_all_for_target(P, j)
        table = first_passage_table(P, j, depth)
        for i in range(1, P.n + 1):
            series = pgfs[i].pgf.series(depth + 1)
            for k in range(1, depth + 1):
                if series[k] != table[k - 1][i - 1]:
                    return (f"pair ({i},{j}) step {k}: solver "
                            f"{format_rational(series[k])} != oracle "
                            f"{format_rational(table[k - 1][i - 1])}")
    return None


def cmd_check(args) -> int:
    _in_range("--terms", args.terms, 1, MAX_TERMS, "MAX_TERMS")
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    _in_range("--max-states", args.max_states, 2, MAX_CHECK_STATES, "MAX_CHECK_STATES")
    if args.matrix:
        matrices = [(None, _load_matrix(args, MAX_CHECK_STATES, "MAX_CHECK_STATES"))]
    else:
        rng = random.Random(args.seed)
        matrices = []
        for idx in range(args.count):
            n = rng.randint(2, args.max_states)
            matrices.append((idx, random_stochastic_matrix(rng, n)))
    for idx, P in matrices:
        mismatch = check_matrix(P, args.terms)
        if mismatch is not None:
            where = "given matrix" if idx is None else f"generated matrix #{idx}"
            print(f"FAIL {where}: {mismatch}")
            return EXIT_CHECK_FAILED
    print(f"PASS {len(matrices)} matrix(es), depth {args.terms}")
    return EXIT_OK


_COMMANDS = {
    "pgf": cmd_pgf,
    "series": cmd_series,
    "moments": cmd_moments,
    "passage": cmd_passage,
    "check": cmd_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built on the first call, then reused, since
    building it costs more than many whole commands.  Parsing keeps no
    state in the parser; each call gets a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except IndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDEX_ERROR
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
