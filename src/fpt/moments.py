"""Passage-time moments from the differentiated system, and r-th passage
laws as products of passage and return PGFs.

Differentiating the one-step system once and setting z = 1 gives
mu_i = 1 + sum_{k != j} p_ik * mu_k; differentiating twice gives
s_i = sum_{k != j} p_ik * (2*mu_k + s_k) for the second factorial moment
s = E(X(X-1)).  Both are first-step systems on the same matrix I - Q as
the reach probabilities, with other right-hand sides, and all three go
through markov.first_step_solve and the one exact elimination kernel.
Solving them avoids ever forming the PGF, which is the cheap route; the
PGF-derivative route is kept as an independent cross-check in the tests.

Infinite moments (target not reached with certainty) are reported by an
explicit flag, never a sentinel number.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact import RationalFunction
from .markov import PmfPrefix, StochasticMatrix, first_step_solve, reach_vector
from .solver import PassagePgf, solve_pair


@dataclass(frozen=True)
class MomentReport:
    """Per-source passage-time moments toward one target.

    Vectors are indexed by source state minus 1.  Entries are None exactly
    where finite[] is False; the diagonal slot holds return-time moments.
    """
    target: int
    means: Tuple[Optional[Fraction], ...]
    second_factorial: Tuple[Optional[Fraction], ...]
    variances: Tuple[Optional[Fraction], ...]
    finite: Tuple[bool, ...]


@dataclass(frozen=True)
class RthPassagePgf:
    """PGF of the time of the r-th visit to target, starting from source.

    first is the first-passage result from source to target and ret the
    return-time result of target (None at order 1); the PGF is built from
    them, and so are the mass of the law and its defective flag.
    """
    source: int
    target: int
    order: int
    pgf: RationalFunction
    first: PassagePgf
    ret: Optional[PassagePgf] = None

    @property
    def mass(self) -> Fraction:
        """Probability that the r-th visit ever happens: h_ij * h_jj^(r-1)."""
        if self.ret is None:
            return self.first.reach_mass
        return self.first.reach_mass * self.ret.reach_mass ** (self.order - 1)

    @property
    def defective(self) -> bool:
        return self.mass < 1

    def pmf(self, depth: int) -> PmfPrefix:
        """P(r-th hit of target happens on step k) for k = 1..depth."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        values = tuple(self.pgf.series(depth + 1)[1:])
        return PmfPrefix(source=self.source, target=self.target, values=values,
                         mass=sum(values, Fraction(0)))


def _moments(P: StochasticMatrix, j: int, h: List[Fraction]
             ) -> Tuple[List[Optional[Fraction]], List[Optional[Fraction]]]:
    """Means and second factorial moments toward j, given its reach vector h.

    The sources S that hit j with probability 1 form a set closed under
    non-target transitions: if i hits j almost surely, so does every state i
    can step to without passing j.  So I - Q_S is nonsingular, and both
    moment systems live on S, with c = 1 for the means mu and c = 2(mu - 1)
    = 2 * sum_k p_ik * mu_k for the second factorial moments.  The return
    slot is finite exactly when h_j = 1, which puts every state j steps to
    in S as well.  Moments are None everywhere else.
    """
    jj = j - 1
    certain = [k for k in range(P.n) if k != jj and h[k] == 1]
    mu = first_step_solve(P, jj, certain, [Fraction(1)] * P.n)
    s = first_step_solve(P, jj, certain, [2 * (m - 1) for m in mu])
    finite = set(certain)
    if h[jj] == 1:
        finite.add(jj)
    return ([m if k in finite else None for k, m in enumerate(mu)],
            [v if k in finite else None for k, v in enumerate(s)])


def mean_first_passage(P: StochasticMatrix, j: int) -> List[Optional[Fraction]]:
    """Mean passage times mu[i-1] = E(steps from i to first hit of j).

    Sources that miss j with positive probability get None (infinite mean);
    the j slot is the mean return time.
    """
    P.check_state(j)
    return _moments(P, j, reach_vector(P, j))[0]


def second_factorial_moment(P: StochasticMatrix, j: int) -> List[Optional[Fraction]]:
    """s[i-1] = E(X(X-1)) for the passage time from i to j; None if infinite."""
    P.check_state(j)
    return _moments(P, j, reach_vector(P, j))[1]


def variance_first_passage(P: StochasticMatrix, j: int) -> List[Optional[Fraction]]:
    """Var(X) = s + mu - mu^2, exact; None wherever a moment is infinite."""
    return list(moment_report(P, j).variances)


def moment_report(P: StochasticMatrix, j: int) -> MomentReport:
    P.check_state(j)
    mu, s = _moments(P, j, reach_vector(P, j))
    var = [None if m is None else sk + m - m * m for m, sk in zip(mu, s)]
    finite = tuple([m is not None for m in mu])
    return MomentReport(target=j, means=tuple(mu), second_factorial=tuple(s),
                        variances=tuple(var), finite=finite)


def rth_passage_pgf(P: StochasticMatrix, i: int, j: int, r: int) -> RthPassagePgf:
    """PGF of the r-th hit of j from i: the passage PGF times r-1 copies of
    the return PGF, since the hit times between visits are independent by
    the Markov property.
    """
    if r < 1:
        raise ValueError("order must be >= 1")
    first, ret = solve_pair(P, i, j, with_return=r > 1)
    pgf = first.pgf
    if r > 1:
        pgf = pgf * ret.pgf ** (r - 1)
    return RthPassagePgf(source=i, target=j, order=r, pgf=pgf, first=first, ret=ret)


def rth_passage_pmf(P: StochasticMatrix, i: int, j: int, r: int,
                    depth: int) -> PmfPrefix:
    """P(r-th hit of j happens on step k) for k = 1..depth."""
    return rth_passage_pgf(P, i, j, r).pmf(depth)
