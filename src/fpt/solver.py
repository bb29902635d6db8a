"""Closed-form first-passage PGFs from the marked-path linear system.

For a fixed target j the unknowns are the generating functions from every
other source, coupled by psi_i = z*p_ij + sum_{k != j} p_ik * z * psi_k.
Rearranged, that is (I - zQ)psi = z*b where Q drops row/column j.

The system is solved over the integers.  With D the lcm of all entry
denominators of P and A = D*P, the substitution w = z/D turns it into
(I - wA_Q)psi = w*A_b, whose coefficients are integers.  Fraction-free
(Bareiss) elimination then runs on integer coefficient lists: every pivot
is a leading principal minor of I - wA, so its constant term is 1, and the
exact division by the previous pivot runs from the low-degree end with no
integer division at all.  Coefficient k of each result is divided by D^k
once, at the end, and the single quotient is reduced to a canonical
rational function; exact.poly_gcd proves most such pairs coprime mod a
prime before falling back to Euclid over Q.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from .exact import Polynomial, RationalFunction
from .markov import StochasticMatrix, reach_vector


@dataclass(frozen=True)
class PassagePgf:
    """First-passage PGF from source to target, with defectiveness data.

    reach_mass is the probability the target is ever hit; defective means
    reach_mass < 1, i.e. the passage-time law has total mass below 1.
    """
    source: int
    target: int
    pgf: RationalFunction
    reach_mass: Fraction
    defective: bool


@dataclass(frozen=True)
class PgfSystem:
    """The (n-1) x (n-1) system (I - zQ)psi = rhs for one target state.

    matrix[a][b] is a degree <= 1 polynomial; sources lists the 1-based
    source state corresponding to each row/unknown.
    """
    target: int
    sources: Tuple[int, ...]
    matrix: Tuple[Tuple[Polynomial, ...], ...]
    rhs: Tuple[Polynomial, ...]


def build_system(P: StochasticMatrix, j: int) -> PgfSystem:
    """Assemble the target-j linear system over polynomial coefficients."""
    P.check_state(j)
    sources = tuple(s for s in range(1, P.n + 1) if s != j)
    matrix = []
    for a, sa in enumerate(sources):
        row = []
        for b, sb in enumerate(sources):
            p = P.rows[sa - 1][sb - 1]
            row.append(Polynomial([1, -p]) if a == b else Polynomial([0, -p]))
        matrix.append(tuple(row))
    rhs = tuple(Polynomial([0, P.rows[s - 1][j - 1]]) for s in sources)
    return PgfSystem(target=j, sources=sources, matrix=tuple(matrix), rhs=rhs)


def _trim(cs: List[int]) -> List[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _cross(p: List[int], x: List[int], q: List[int], y: List[int]) -> List[int]:
    """Coefficients of p*x - q*y for integer coefficient lists."""
    out = [0] * max(len(p) + len(x), len(q) + len(y), 1)
    for i, c in enumerate(p):
        if c:
            for k, d in enumerate(x, i):
                out[k] += c * d
    for i, c in enumerate(q):
        if c:
            for k, d in enumerate(y, i):
                out[k] -= c * d
    return _trim(out)


def _div_unit_constant(a: List[int], b: List[int]) -> List[int]:
    """Exact quotient a / b where b has constant term 1.

    The quotient comes from the low-degree end as a power series, so no
    integer division happens; the high-degree coefficients of a then have to
    match b * quotient, or the division was not exact.
    """
    if not a:
        return a
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    q = []
    for i in range(dq + 1):
        c = a[i]
        for m in range(1, min(i, db) + 1):
            c -= b[m] * q[i - m]
        q.append(c)
    for i in range(dq + 1, len(a)):
        c = a[i]
        for m in range(i - dq, min(i, db) + 1):
            c -= b[m] * q[i - m]
        if c:
            raise ArithmeticError("inexact polynomial division")
    return q


def _bareiss(aug: List[List[List[int]]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination over Z[w], in place.

    aug is the m x (m+1) augmented system (I - wA | rhs) as coefficient
    lists.  Returns (numerators, det): unknown a equals numerators[a] / det.
    No pivoting is needed: the pivot at step k is the k-th leading principal
    minor of I - wA, which has constant term 1 and is therefore nonzero, and
    every division by the previous pivot is exact.  Columns left of the
    pivot are not updated: they hold only zeros and copies of the pivot.
    """
    m = len(aug)
    prev = [1]
    for k in range(m):
        top = aug[k]
        piv = top[k]
        for r in range(m):
            if r == k:
                continue
            row = aug[r]
            ark = row[k]
            for c in range(k + 1, m + 1):
                row[c] = _div_unit_constant(_cross(piv, row[c], ark, top[c]), prev)
        prev = piv
    return [row[m] for row in aug], prev


def _to_z(cs: List[int], D: int) -> Polynomial:
    """Undo w = z/D: coefficient k of a polynomial in w is divided by D^k."""
    return Polynomial([Fraction(c, D ** k) for k, c in enumerate(cs)])


def solve_all_for_target(P: StochasticMatrix, j: int) -> Dict[int, PassagePgf]:
    """One elimination yields the passage PGFs from every source to j.

    The elimination runs in w = z/D over the integers (see the module
    docstring).  The return-time PGF (source = j) is recovered in the same
    w domain by substituting the solved functions back into the target's
    own one-step equation psi_jj = z*p_jj + sum_{k != j} p_jk * z * psi_kj,
    which keeps the eliminated system at size n-1.  Each result is mapped
    back to z once, at the end.
    """
    P.check_state(j)
    jj = j - 1
    D = lcm(*(e.denominator for row in P.rows for e in row))
    A = [[e.numerator * (D // e.denominator) for e in row] for row in P.rows]
    others = [k for k in range(P.n) if k != jj]
    aug = [[_trim([int(r == c), -A[r][c]]) for c in others] + [_trim([0, A[r][jj]])]
           for r in others]
    nums, det = _bareiss(aug)
    # w*(A_jj*det + sum_k A_jk*nums_k) is the return-time numerator over det
    ret = [0] * (max(map(len, nums + [det])) + 1)
    for weight, cs in zip([A[jj][jj]] + [A[jj][k] for k in others], [det] + nums):
        if weight:
            for i, c in enumerate(cs, 1):
                ret[i] += weight * c
    _trim(ret)
    h = reach_vector(P, j)
    den = _to_z(det, D)
    out: Dict[int, PassagePgf] = {}
    for k, cs in zip(others + [jj], nums + [ret]):
        out[k + 1] = PassagePgf(source=k + 1, target=j,
                                pgf=RationalFunction(_to_z(cs, D), den),
                                reach_mass=h[k], defective=h[k] < 1)
    return out


def solve_pgf(P: StochasticMatrix, i: int, j: int) -> PassagePgf:
    """Closed-form PGF of the first passage (or first return, if i = j)."""
    P.check_state(i)
    return solve_all_for_target(P, j)[i]


def pgf_3state_closed_form(P: StochasticMatrix, i: int, j: int) -> PassagePgf:
    """Direct 3-state closed form, used as an independent cross-check.

    For a 3-state chain with (i, j) relabeled to (1, 3) and the remaining
    state as 2, the PGF is
        (p13*z + (p12*p23 - p13*p22)*z^2)
        / (1 - (p11 + p22)*z + (p11*p22 - p12*p21)*z^2).
    Only i != j is covered.
    """
    if P.n != 3:
        raise ValueError("closed form requires exactly 3 states")
    P.check_state(i)
    P.check_state(j)
    if i == j:
        raise ValueError("closed form covers only i != j")
    mid = next(s for s in (1, 2, 3) if s not in (i, j))
    p = lambda a, b: P.rows[a - 1][b - 1]
    p11, p12, p13 = p(i, i), p(i, mid), p(i, j)
    p21, p22, p23 = p(mid, i), p(mid, mid), p(mid, j)
    num = Polynomial([0, p13, p12 * p23 - p13 * p22])
    den = Polynomial([1, -(p11 + p22), p11 * p22 - p12 * p21])
    h = reach_vector(P, j)[i - 1]
    return PassagePgf(source=i, target=j, pgf=RationalFunction(num, den),
                      reach_mass=h, defective=h < 1)
