"""Closed-form first-passage PGFs from the marked-path linear system.

For a fixed target j the unknowns are the generating functions from every
other source, coupled by psi_i = z*p_ij + sum_{k != j} p_ik * z * psi_k.
Rearranged, that is (I - zQ)psi = z*b where Q drops row/column j.

The system is solved over the integers.  With D the lcm of all entry
denominators of P and A = D*P, the substitution w = z/D turns it into
(I - wA_Q)psi = w*A_b, whose coefficients are integers.  The library's one
elimination kernel, the fraction-free (Bareiss) elimination in exact, then
runs on integer coefficient lists: every pivot is a leading principal minor
of I - wA, so its constant term is 1, no row is swapped, and the exact
division by the previous pivot runs from the low-degree end with no integer
division at all.

One pair (solve_pair) takes one forward elimination of the n x n matrix
I - wA, with the states ordered (others..., i, j).  Row i then holds
det(I - wA_Q) on the diagonal and minus the Cramer numerator of psi_ij in
column j, and the target row ends in det(I - wA).  Since
det(I - zP) = det(I - zQ) * (1 - F_jj(z)), the return PGF is
F_jj = (det_Q - det_M) / det_Q, from the same elimination.  Every source at
once (solve_all_for_target) takes Gauss-Jordan on the target's
system instead.  Coefficient k of each result is divided by D^k once, at
the end, and the single quotient is reduced to a canonical rational
function; exact.poly_gcd proves most such pairs coprime mod a prime before
falling back to Euclid over Q.  The reach mass is that canonical PGF at
z = 1, with no second solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Dict, List, Optional, Tuple

from .exact import Polynomial, RationalFunction, _bareiss, _trim
from .markov import StochasticMatrix, reach_vector  # noqa: F401 (re-export)


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


def _to_z(cs: List[int], D: int) -> Polynomial:
    """Undo w = z/D: coefficient k of a polynomial in w is divided by D^k."""
    return Polynomial([Fraction(c, D ** k) for k, c in enumerate(cs)])


def _integer_matrix(P: StochasticMatrix) -> Tuple[int, List[List[int]]]:
    """D, the lcm of all entry denominators, and the integer matrix A = D*P."""
    D = lcm(*(e.denominator for row in P.rows for e in row))
    return D, [[e.numerator * (D // e.denominator) for e in row] for row in P.rows]


def _passage(i: int, j: int, num: List[int], den: List[int], D: int) -> PassagePgf:
    """The canonical PGF num/den, mapped back from w to z, and its reach
    mass F(1).  A canonical PGF of a law of mass at most 1 has no pole at 1,
    as its power series converges there."""
    pgf = RationalFunction(_to_z(num, D), _to_z(den, D))
    h = pgf.eval(1)
    return PassagePgf(source=i, target=j, pgf=pgf, reach_mass=h, defective=h < 1)


def solve_all_for_target(P: StochasticMatrix, j: int) -> Dict[int, PassagePgf]:
    """One elimination yields the passage PGFs from every source to j.

    The elimination is Gauss-Jordan in w = z/D over the integers (see the
    module docstring).  The return-time PGF (source = j) is recovered in the
    same w domain by substituting the solved functions back into the
    target's own one-step equation psi_jj = z*p_jj + sum_{k != j} p_jk * z *
    psi_kj, which keeps the eliminated system at size n-1.  Each result is
    mapped back to z once, at the end.
    """
    P.check_state(j)
    jj = j - 1
    D, A = _integer_matrix(P)
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
    return {k + 1: _passage(k + 1, j, cs, det, D)
            for k, cs in zip(others + [jj], nums + [ret])}


def solve_pair(P: StochasticMatrix, i: int, j: int, with_return: bool = False
               ) -> Tuple[PassagePgf, Optional[PassagePgf]]:
    """The passage PGF from i to j by one forward elimination.

    The states are ordered (others..., i, j) and I - wA is eliminated
    forward only.  Row i then holds det(I - wA_Q) on the diagonal and minus
    the Cramer numerator of psi_ij in column j; the target row, eliminated
    only when the return PGF is wanted, ends in det(I - wA).  The second
    result is the return PGF of j, det(I - zP) = det(I - zQ) * (1 - F_jj)
    giving F_jj = (det_Q - det_M) / det_Q; it is None when with_return is
    not set and i != j.  For i = j both results are the return PGF.
    """
    P.check_state(i)
    P.check_state(j)
    n, ii, jj = P.n, i - 1, j - 1
    D, A = _integer_matrix(P)
    order = [k for k in range(n) if k not in (ii, jj)] + [ii] * (ii != jj) + [jj]
    full = with_return or ii == jj
    aug = [[_trim([int(r == c), -A[r][c]]) for c in order]
           for r in (order if full else order[:-1])]
    _bareiss(aug, forward=True)
    det_q = aug[n - 2][n - 2] if n > 1 else [1]
    ret = None
    if full:
        det_m = aug[n - 1][n - 1]
        num = [a - b for a, b in zip_longest(det_q, det_m, fillvalue=0)]
        ret = _passage(j, j, _trim(num), det_q, D)
    if ii == jj:
        return ret, ret
    return _passage(i, j, [-c for c in aug[n - 2][n - 1]], det_q, D), ret


def solve_pgf(P: StochasticMatrix, i: int, j: int) -> PassagePgf:
    """Closed-form PGF of the first passage (or first return, if i = j)."""
    return solve_pair(P, i, j)[0]
