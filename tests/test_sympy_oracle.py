"""solve_all_for_target against sympy, a third oracle that shares neither
the library's elimination nor its gcd: (I - zQ)psi = z*b is solved
symbolically by Cramer's rule, the return PGF comes from the target's
one-step equation, and every result is cancelled by sympy and scaled to a
denominator with constant term 1.
"""
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from fpt import StochasticMatrix, solve_all_for_target  # noqa: E402
from fpt.markov import parse_matrix  # noqa: E402

from conftest import PAPER_CSV, fresh_rng, random_stochastic  # noqa: E402

z = sympy.Symbol("z")


def sympy_pgfs(P, j):
    """{source: PGF into j} as sympy quotients of expanded polynomials, by
    Cramer's rule on (I - zQ)psi = z*b."""
    p = [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in P.rows]
    jj = j - 1
    others = [k for k in range(P.n) if k != jj]
    m = len(others)
    M = sympy.Matrix(m, m, lambda a, b: int(a == b) - z * p[others[a]][others[b]])
    b = sympy.Matrix([z * p[k][jj] for k in others])

    def det(A):
        return sympy.expand(A.det(method="berkowitz")) if A.rows else sympy.Integer(1)

    den = det(M)
    nums = []
    for a in range(m):
        Ma = M.copy()
        Ma[:, a] = b
        nums.append(det(Ma))
    out = {k + 1: num / den for k, num in zip(others, nums)}
    # psi_jj = z*p_jj + sum_k z*p_jk*psi_kj, over the common denominator
    ret = z * p[jj][jj] * den + sum(z * p[jj][k] * num for k, num in zip(others, nums))
    out[j] = sympy.expand(ret) / den
    return out


def canonical(expr):
    """(numerator, denominator) coefficient tuples, lowest degree first, of
    the cancelled quotient with denominator constant term 1."""
    num, den = (sympy.Poly(e, z) for e in sympy.fraction(sympy.cancel(expr)))
    c0 = den.coeff_monomial(1)

    def coeffs(poly):
        cs = [c / c0 for c in reversed(poly.all_coeffs())]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(Fraction(int(c.p), int(c.q)) for c in cs)

    return coeffs(num), coeffs(den)


def chains():
    rng = fresh_rng(4242)
    out = [parse_matrix(PAPER_CSV),
           StochasticMatrix([[1]]),
           StochasticMatrix([[1, 0], ["1/2", "1/2"]]),
           StochasticMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 1]])]
    for n in (2, 2, 3, 3, 3, 4, 4, 4):
        out.append(random_stochastic(rng, n))
    return out


@pytest.mark.parametrize("P", chains(), ids=lambda P: f"n{P.n}")
def test_canonical_pgfs_match_sympy(P):
    for j in range(1, P.n + 1):
        ours = solve_all_for_target(P, j)
        theirs = sympy_pgfs(P, j)
        assert sorted(ours) == sorted(theirs) == list(range(1, P.n + 1))
        for i, expr in theirs.items():
            pgf = ours[i].pgf
            assert (pgf.numerator.coeffs, pgf.denominator.coeffs) == canonical(expr), \
                (i, j)
