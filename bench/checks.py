"""Independent output checks for the fpt CLI benchmark.

Nothing here calls into fpt.  Passage-time pmfs come from step recurrences,
certainty of hitting the target from graph search, and moments are checked
against their defining equations, all in exact rational arithmetic.  A check
returns None when the output is right and a one-line reason otherwise.
"""
from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from corpus import Op, Rows

ZERO = Fraction(0)


@functools.lru_cache(maxsize=16)
def first_passage(rows: Rows, j: int, depth: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """f[k][i-1] = P(first passage from i to j takes k steps), k = 0..depth,
    by f(1) = p_ij, f(k) = sum over l != j of p_il f_l(k-1)."""
    n, jj = len(rows), j - 1
    cur = [rows[i][jj] for i in range(n)]
    table = [(ZERO,) * n, tuple(cur)]
    for _ in range(depth - 1):
        cur = [sum((rows[i][l] * cur[l] for l in range(n) if l != jj and rows[i][l]),
                   ZERO) for i in range(n)]
        table.append(tuple(cur))
    return tuple(table)


@functools.lru_cache(maxsize=64)
def rth_passage(rows: Rows, i: int, j: int, orders: int,
                depth: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """f[r][k] = P(the r-th visit to j, starting from i, happens at step k)
    for r = 1..orders and k = 0..depth, by a recurrence over (state, visits
    so far).  The start at i does not count as a visit."""
    n, jj = len(rows), j - 1
    f = [[ZERO] * (depth + 1) for _ in range(orders + 1)]
    # dist[v][s]: probability of being at s after the current step, with v
    # visits to j so far and the orders-th visit not yet made
    dist = [[ZERO] * n for _ in range(orders)]
    dist[0][i - 1] = Fraction(1)
    for k in range(1, depth + 1):
        new = [[ZERO] * n for _ in range(orders)]
        for v, vec in enumerate(dist):
            for s, mass in enumerate(vec):
                if not mass:
                    continue
                for t, p in enumerate(rows[s]):
                    if not p:
                        continue
                    if t == jj:
                        f[v + 1][k] += mass * p
                        if v + 1 < orders:
                            new[v + 1][t] += mass * p
                    else:
                        new[v][t] += mass * p
        dist = new
    return tuple(tuple(row) for row in f)


@functools.lru_cache(maxsize=16)
def certain(rows: Rows, j: int) -> Tuple[bool, ...]:
    """certain[i-1]: j is hit (returned to, if i = j) with probability 1.

    With j made absorbing, that holds exactly when every state the chain can
    reach from i before hitting j can itself reach j.
    """
    n, jj = len(rows), j - 1
    reaches_j = set()
    frontier = [jj]
    while frontier:
        b = frontier.pop()
        for a in range(n):
            if rows[a][b] and a not in reaches_j:
                reaches_j.add(a)
                frontier.append(a)
    out = []
    for i in range(n):
        seen = {i} if i != jj else set()
        frontier = list(seen) if i != jj else [jj]
        while frontier:
            a = frontier.pop()
            for b in range(n):
                if rows[a][b] and b != jj and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        out.append(all(s in reaches_j for s in seen))
    return tuple(out)


# --- parsing the printed values -------------------------------------------

_NUMBER = r"-?\d+(?:\.\d+)?(?:/\d+)?"
_VALUE = re.compile(rf"({_NUMBER})(?: \(~([^)]*)\))?")


def parse_value(text: str, exact: bool) -> Fraction:
    """Exact value of one printed number.

    --exact prints p/q or an integer.  Decimal mode prints an exact decimal
    or, when none exists, p/q followed by a rounded hint "(~0.123457)".
    """
    m = _VALUE.fullmatch(text)
    if not m:
        raise ValueError(f"unreadable value {text!r}")
    x = Fraction(m.group(1))
    hint = m.group(2)
    if exact and (hint is not None or "." in m.group(1)):
        raise ValueError(f"--exact printed a decimal: {text!r}")
    if hint is not None and hint != f"{float(x):.6g}":
        raise ValueError(f"hint of {text!r} is not {float(x):.6g}")
    return x


_TERM = re.compile(rf"(-?)(?:({_NUMBER})\*?)?(z(?:\^(\d+))?)?")


def parse_poly(text: str) -> List[Fraction]:
    """Coefficients of "c0 + c1*z - c2*z^2 ..." (no rounded hints)."""
    coeffs: List[Fraction] = []
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.fullmatch(term)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"unreadable polynomial term {term!r}")
        c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        power = 0 if not m.group(3) else int(m.group(4) or 1)
        while len(coeffs) <= power:
            coeffs.append(ZERO)
        coeffs[power] += -c if m.group(1) else c
    return coeffs


def parse_pgf(line: str) -> Tuple[List[Fraction], List[Fraction]]:
    m = re.fullmatch(r"\((.*)\) / \((.*)\)", line)
    if not m:
        raise ValueError(f"unreadable PGF {line!r}")
    return parse_poly(m.group(1)), parse_poly(m.group(2))


def expand(num: Sequence[Fraction], den: Sequence[Fraction], terms: int) -> List[Fraction]:
    """Maclaurin coefficients 0..terms-1 of num/den, for den(0) = 1."""
    out: List[Fraction] = []
    for k in range(terms):
        c = num[k] if k < len(num) else ZERO
        for m in range(1, min(k, len(den) - 1) + 1):
            c -= den[m] * out[k - m]
        out.append(c)
    return out


def _degree(p: Sequence[Fraction]) -> int:
    return max((k for k, c in enumerate(p) if c), default=-1)


def check_pgf(line: str, max_degree: int, pmf) -> Optional[str]:
    """A printed PGF is right when its denominator has constant term 1 and
    it agrees with the oracle pmf on coefficients 0..2d, d the larger
    degree: two fractions of degree <= d that agree that far are equal."""
    num, den = parse_pgf(line)
    if not den or den[0] != 1:
        return f"PGF denominator constant term is not 1: {line}"
    d = max(_degree(num), _degree(den))
    if d > max_degree:
        return f"PGF degree {d} exceeds {max_degree}: {line}"
    want = pmf(2 * d + 1)
    got = expand(num, den, 2 * d + 1)
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"PGF coefficient of z^{k} is {a}, oracle says {b}"
    return None


def check_pmf_lines(lines: Sequence[str], exact: bool, want: Sequence[Fraction]) -> Optional[str]:
    """Lines "k value" for k = 1..len(want)."""
    if len(lines) != len(want):
        return f"expected {len(want)} pmf lines, got {len(lines)}"
    for k, (line, w) in enumerate(zip(lines, want), start=1):
        head, _, value = line.partition(" ")
        if head != str(k):
            return f"pmf line {k} reads {line!r}"
        got = parse_value(value, exact)
        if got != w:
            return f"pmf at step {k} is {got}, oracle says {w}"
    return None


def _round_up(x: int, step: int) -> int:
    # oracle tables are computed to rounded-up depths, so that the pmf and
    # PGF checks of one call share a cached table
    return -(-x // step) * step


def _check_moments(op: Op, rc: int, lines: Sequence[str]) -> Optional[str]:
    rows, j, n = op.chain.rows, op.target, op.chain.n
    if len(lines) != n + 1 or lines[0] != "# source mean second_factorial variance":
        return f"moments output has {len(lines)} lines or a bad header"
    fin = certain(rows, j)
    mu: List[Optional[Fraction]] = [None] * n
    s2: List[Optional[Fraction]] = [None] * n
    var: List[Optional[Fraction]] = [None] * n
    for i, line in enumerate(lines[1:]):
        head, _, rest = line.partition(" ")
        if head != str(i + 1):
            return f"moments line {i + 1} reads {line!r}"
        if not fin[i]:
            if rest != "inf inf inf":
                return f"source {i + 1} misses {j} with positive probability but printed {rest!r}"
            continue
        values = [m.group(0) for m in _VALUE.finditer(rest)]
        if " ".join(values) != rest or len(values) != 3:
            return f"moments line {i + 1} reads {line!r}"
        mu[i], s2[i], var[i] = (parse_value(v, op.exact) for v in values)
    jj = j - 1
    for i in range(n):
        if not fin[i]:
            continue
        succ = [(rows[i][k], k) for k in range(n) if k != jj and rows[i][k]]
        if any(mu[k] is None for _, k in succ):
            return f"source {i + 1} is finite but steps to an infinite source"
        if mu[i] != 1 + sum((p * mu[k] for p, k in succ), ZERO):
            return f"mean from {i + 1} breaks mu_i = 1 + sum p_ik mu_k"
        if s2[i] != sum((p * (2 * mu[k] + s2[k]) for p, k in succ), ZERO):
            return f"second factorial moment from {i + 1} breaks its equation"
        if var[i] != s2[i] + mu[i] - mu[i] * mu[i]:
            return f"variance from {i + 1} is not s + mu - mu^2"
    want_rc = 0 if all(fin) else 4
    return None if rc == want_rc else f"exit code {rc}, expected {want_rc}"


def check(op: Op, rc: Optional[int], out: str) -> Optional[str]:
    """None if (rc, out) is the right answer to op, else the reason."""
    try:
        return _check(op, rc, out)
    except (ValueError, ZeroDivisionError) as exc:  # unreadable output
        return str(exc) or type(exc).__name__


def _check(op: Op, rc: Optional[int], out: str) -> Optional[str]:
    lines = out.splitlines()
    rows, i, j = op.chain.rows, op.source, op.target
    if op.kind == "moments":
        return _check_moments(op, rc, lines)
    if op.kind == "check":
        want = f"PASS 1 matrix(es), depth {op.terms}"
        return None if rc == 0 and lines == [want] else f"check printed {out!r}, exit {rc}"
    want_rc = 0 if certain(rows, j)[i - 1] else 4
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    n = op.chain.n
    if op.kind == "series":
        pmf = first_passage(rows, j, _round_up(op.terms, 32))
        return check_pmf_lines(lines, op.exact, [pmf[k][i - 1] for k in range(1, op.terms + 1)])
    if op.kind == "pgf":
        if len(lines) != 1:
            return f"pgf printed {len(lines)} lines"
        return check_pgf(lines[0], n, lambda terms: [
            row[i - 1] for row in first_passage(rows, j, _round_up(terms, 32))[:terms]])
    if op.kind == "passage":
        r = op.order
        if len(lines) != op.terms + 1:
            return f"passage printed {len(lines)} lines, expected {op.terms + 1}"

        def pmf(terms: int) -> List[Fraction]:
            table = rth_passage(rows, i, j, r, _round_up(terms, 32))
            return list(table[r][:terms])

        return (check_pgf(lines[0], r * n, pmf)
                or check_pmf_lines(lines[1:], op.exact, pmf(op.terms + 1)[1:]))
    return f"no check for command {op.kind!r}"
