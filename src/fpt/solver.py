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

Both solvers eliminate the same n x n matrix I - wA, with the states
ordered (others..., i, j) and the target last.  After the elimination the
row of a source r holds det(I - wA_Q) on the diagonal and minus the Cramer
numerator of psi_rj in the target column, and the target row ends in
det(I - wA).  Since det(I - zP) = det(I - zQ) * (1 - F_jj(z)), the return
PGF is F_jj = (det_Q - det_M) / det_Q, from the same elimination.  One pair
(solve_pair) needs only a forward elimination, and the target row only when
the return PGF is wanted; every source at once (solve_all_for_target) takes
Gauss-Jordan on all n rows.  Coefficient k of each result is divided by D^k
once, at the end, and the single quotient is reduced to a canonical
rational function; exact.poly_gcd proves most such pairs coprime mod a
prime before falling back to Euclid over Q.  The reach mass is that
canonical PGF at z = 1, with no second solve.
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


def _passage(i: int, j: int, num: List[int], den: List[int], D: int) -> PassagePgf:
    """The canonical PGF num/den, mapped back from w to z, and its reach
    mass F(1).  A canonical PGF of a law of mass at most 1 has no pole at 1,
    as its power series converges there."""
    pgf = RationalFunction(_to_z(num, D), _to_z(den, D))
    h = pgf.eval(1)
    return PassagePgf(source=i, target=j, pgf=pgf, reach_mass=h, defective=h < 1)


def _eliminate(P: StochasticMatrix, i: int, j: int, full: bool, forward: bool
               ) -> Tuple[int, List[int], List[List[List[int]]], List[int]]:
    """Fraction-free elimination of I - wA with the states ordered
    (others..., i, j); i = j gives (others..., j).

    D is the lcm of all entry denominators and A = D*P.  The target row is
    left out unless full is set.  Returns D, the order, the eliminated rows
    and det(I - wA_Q), the pivot of the last row before the target's.
    """
    P.check_state(i)
    P.check_state(j)
    n, ii, jj = P.n, i - 1, j - 1
    D = lcm(*[e.denominator for row in P.rows for e in row])
    A = [[e.numerator * (D // e.denominator) for e in row] for row in P.rows]
    order = [k for k in range(n) if k not in (ii, jj)] + [ii] * (ii != jj) + [jj]
    aug = [[_trim([int(r == c), -A[r][c]]) for c in order]
           for r in (order if full else order[:-1])]
    _bareiss(aug, forward=forward)
    return D, order, aug, aug[n - 2][n - 2] if n > 1 else [1]


def _return_pgf(j: int, det_q: List[int], det_m: List[int], D: int) -> PassagePgf:
    """F_jj = (det_Q - det_M) / det_Q, from det(I - zP) = det(I - zQ) * (1 - F_jj)."""
    num = [a - b for a, b in zip_longest(det_q, det_m, fillvalue=0)]
    return _passage(j, j, _trim(num), det_q, D)


def solve_all_for_target(P: StochasticMatrix, j: int) -> Dict[int, PassagePgf]:
    """The passage PGFs from every source to j, by one Gauss-Jordan
    elimination of all n rows of I - wA (see the module docstring)."""
    D, order, aug, det_q = _eliminate(P, j, j, full=True, forward=False)
    out = {k + 1: _passage(k + 1, j, [-c for c in row[-1]], det_q, D)
           for k, row in zip(order, aug[:-1])}
    out[j] = _return_pgf(j, det_q, aug[-1][-1], D)
    return out


def solve_pair(P: StochasticMatrix, i: int, j: int, with_return: bool = False
               ) -> Tuple[PassagePgf, Optional[PassagePgf]]:
    """The passage PGF from i to j by one forward elimination of I - wA
    (see the module docstring), and the return PGF of j, which is None
    unless with_return is set or i = j.  For i = j both are the return PGF.
    """
    full = with_return or i == j
    D, _, aug, det_q = _eliminate(P, i, j, full=full, forward=True)
    ret = _return_pgf(j, det_q, aug[-1][-1], D) if full else None
    if i == j:
        return ret, ret
    return _passage(i, j, [-c for c in aug[P.n - 2][-1]], det_q, D), ret


def solve_pgf(P: StochasticMatrix, i: int, j: int) -> PassagePgf:
    """Closed-form PGF of the first passage (or first return, if i = j)."""
    return solve_pair(P, i, j)[0]
