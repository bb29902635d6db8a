"""Transition-matrix ingestion and validation, plus brute-force
first-passage oracles that stay independent of the generating-function
solver.

States are 1-based in every user-facing argument and 0-based internally;
the conversion happens exactly once at each public boundary.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .exact import as_fraction, format_rational, solve_linear_system

def _items(x, what: str) -> tuple:
    """The elements of a list-like x; a string, mapping or scalar raises."""
    if not isinstance(x, (str, bytes, dict)):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise ValueError(f"{what} must be a list, not {type(x).__name__}")


def _entry(e, idx: int, jdx: int) -> Fraction:
    """Matrix entry (idx, jdx) as an exact rational.  Booleans, floats,
    null and nested lists are not exact numbers and are rejected."""
    if isinstance(e, bool) or not isinstance(e, (int, str, Fraction)):
        raise ValueError(f"entry ({idx},{jdx}) = {e!r} is not an exact number "
                         "(integer, fraction or decimal string)")
    return as_fraction(e)


class StochasticMatrix:
    """Validated n x n transition matrix with exact rational entries.

    Every entry must lie in [0, 1] and every row must sum exactly to 1,
    unless normalize_rows is set, in which case each row is rescaled by its
    sum and the rescaling is recorded in row_normalized.  Immutable after
    validation, so concurrent queries are safe.
    """

    __slots__ = ("n", "rows", "labels", "row_normalized")

    def __init__(self, rows: Iterable[Iterable], labels: Optional[Sequence[str]] = None,
                 normalize_rows: bool = False):
        # lists into tuple() and lcm(): see Polynomial._integers
        grid = [tuple([_entry(e, idx, jdx)
                       for jdx, e in enumerate(_items(row, f"row {idx}"), start=1)])
                for idx, row in enumerate(_items(rows, "rows"), start=1)]
        n = len(grid)
        if n == 0:
            raise ValueError("empty matrix")
        for idx, row in enumerate(grid, start=1):
            if len(row) != n:
                raise ValueError(f"matrix is not square: row {idx} has "
                                 f"{len(row)} entries, expected {n}")
        # raw weights may exceed 1 when rows are being rescaled; after the
        # rescaling every entry is automatically back in [0, 1].  Both checks
        # run on integers: a Fraction keeps a positive denominator, and with
        # L the lcm of a row's denominators the row sums to
        # sum(num * (L // den)) / L.
        for idx, row in enumerate(grid, start=1):
            for jdx, e in enumerate(row, start=1):
                if e.numerator < 0 or (not normalize_rows and e.numerator > e.denominator):
                    raise ValueError(f"entry ({idx},{jdx}) = {e} outside [0, 1]")
        rescaled = False
        for idx, row in enumerate(grid, start=1):
            L = lcm(*[e.denominator for e in row])
            total = sum(e.numerator * (L // e.denominator) for e in row)
            if total != L:
                s = Fraction(total, L)
                if not normalize_rows:
                    raise ValueError(f"row {idx} sums to {s}, expected 1")
                if total == 0:
                    raise ValueError(f"row {idx} sums to 0 and cannot be normalized")
                rescaled = True
                grid[idx - 1] = tuple(e / s for e in row)
        if labels is not None:
            labels = tuple(str(x) for x in _items(labels, "labels"))
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
        self.n = n
        self.rows: Tuple[Tuple[Fraction, ...], ...] = tuple(grid)
        self.labels = labels
        self.row_normalized = rescaled

    def p(self, i: int, k: int) -> Fraction:
        """Transition probability for 1-based states i -> k."""
        self.check_state(i)
        self.check_state(k)
        return self.rows[i - 1][k - 1]

    def check_state(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"state index {i} out of range 1..{self.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        return self.rows == other.rows and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.rows, self.labels))

    def __repr__(self) -> str:
        return f"StochasticMatrix(n={self.n})"


def detect_format(text: str) -> str:
    head = text.lstrip()
    if head.startswith("{") or head.startswith("["):
        return "json"
    first = head.splitlines()[0] if head else ""
    return "csv" if "," in first else "whitespace"


def parse_matrix(text: str, fmt: str = "auto",
                 normalize_rows: bool = False) -> StochasticMatrix:
    """Parse csv / whitespace-grid / json matrix text.

    Entries may be decimals ("0.4"), fractions ("2/5") or integers; all are
    converted to exact rationals before validation.  JSON floats are read
    from their source text, so "0.4" stays 2/5.
    """
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "csv":
        rows = [[cell.strip() for cell in row]
                for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
        return StochasticMatrix(rows, normalize_rows=normalize_rows)
    if fmt == "whitespace":
        rows = [line.split() for line in text.splitlines() if line.split()]
        return StochasticMatrix(rows, normalize_rows=normalize_rows)
    if fmt == "json":
        try:
            obj = json.loads(text, parse_float=as_fraction, parse_int=int)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON matrix: {exc}") from exc
        if isinstance(obj, list):
            return StochasticMatrix(obj, normalize_rows=normalize_rows)
        if not isinstance(obj, dict) or "rows" not in obj:
            raise ValueError('JSON matrix must be {"n": ..., "rows": [[...]]}')
        m = StochasticMatrix(obj["rows"], labels=obj.get("labels"),
                             normalize_rows=normalize_rows)
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != m.n):
            raise ValueError(f'declared n = {obj["n"]} but matrix has {m.n} rows')
        return m
    raise ValueError(f"unknown matrix format {fmt!r}")


def render_matrix(P: StochasticMatrix, decimal: bool = False) -> str:
    """CSV text that parse_matrix reads back to an equal matrix."""
    lines = [",".join(format_rational(e, decimal, annotate=False) for e in row)
             for row in P.rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PmfPrefix:
    """Prefix of a passage-time pmf: values[k-1] = P(passage takes k steps)."""
    source: int
    target: int
    values: Tuple[Fraction, ...]
    mass: Fraction

    def __post_init__(self):
        for v in self.values:
            if v < 0 or v > 1:
                raise ValueError(f"pmf value {v} outside [0, 1]")
        if self.mass > 1:
            raise ValueError(f"pmf mass {self.mass} exceeds 1")


def first_passage_table(P: StochasticMatrix, j: int, depth: int) -> List[List[Fraction]]:
    """f_{ij}(k) for every source i and k = 1..depth, by the step recurrence
    f(1) = p_{ij}, f(k) = sum over l != j of p_{il} * f_{lj}(k-1).

    Returns table[k-1][i-1]; costs O(depth * n^2) rational operations.
    """
    P.check_state(j)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    jj = j - 1
    n = P.n
    cur = [P.rows[i][jj] for i in range(n)]
    table = [cur]
    others = [l for l in range(n) if l != jj]
    for _ in range(depth - 1):
        cur = [sum((P.rows[i][l] * cur[l] for l in others), Fraction(0))
               for i in range(n)]
        table.append(cur)
    return table


def first_passage_pmf_oracle(P: StochasticMatrix, i: int, j: int,
                             depth: int) -> PmfPrefix:
    """Exact first-passage pmf prefix, independent of the PGF solver."""
    P.check_state(i)
    table = first_passage_table(P, j, depth)
    values = tuple(row[i - 1] for row in table)
    return PmfPrefix(source=i, target=j, values=values, mass=sum(values, Fraction(0)))


def _states_reaching(P: StochasticMatrix, jj: int) -> set:
    """0-based states with a path of length >= 1 to jj."""
    preds = [[] for _ in range(P.n)]
    for a in range(P.n):
        for b in range(P.n):
            if P.rows[a][b] != 0:
                preds[b].append(a)
    seen: set = set()
    frontier = [jj]
    while frontier:
        x = frontier.pop()
        for p in preds[x]:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


def first_step_solve(P: StochasticMatrix, jj: int, states: Sequence[int],
                     c: Sequence[Fraction]) -> List[Fraction]:
    """Solve the first-step equations x_i = c_i + sum_{k in S} p_ik * x_k.

    S is the 0-based state list `states`, which must not contain the 0-based
    target jj, and I - Q_S must be nonsingular.  c is indexed by 0-based
    state; only its entries on S and at jj are read.  The result holds the
    solution on S, the same equation evaluated at the target, x_jj, and 0
    everywhere else.
    """
    rows = [[-P.rows[i][k] for k in states] for i in states]
    for a, row in enumerate(rows):
        row[a] += 1
    x = [Fraction(0)] * P.n
    for k, v in zip(states, solve_linear_system(rows, [c[i] for i in states])):
        x[k] = v
    x[jj] = c[jj] + sum((P.rows[jj][k] * x[k] for k in states), Fraction(0))
    return x


def reach_vector(P: StochasticMatrix, j: int) -> List[Fraction]:
    """h[i-1] = probability that state j is ever hit from state i.

    For i = j this is the return probability.  Computed as the minimal
    nonnegative solution of h_i = p_{ij} + sum_{k != j} p_{ik} h_k, with
    h = 0 on states that cannot reach j; on the states that can, I - Q is
    nonsingular.
    """
    P.check_state(j)
    jj = j - 1
    reaching = sorted(k for k in _states_reaching(P, jj) if k != jj)
    return first_step_solve(P, jj, reaching, [row[jj] for row in P.rows])


def reach_probability(P: StochasticMatrix, i: int, j: int) -> Fraction:
    """Probability that j is ever reached from i (ever returned to, if i = j)."""
    P.check_state(i)
    return reach_vector(P, j)[i - 1]
