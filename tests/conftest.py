import random
from fractions import Fraction

import pytest

from fpt import PassagePgf, Polynomial, RationalFunction, StochasticMatrix, reach_vector
from fpt.cli import random_stochastic_matrix
from fpt.exact import _check_exponent

PAPER_CSV = ".2,.4,.4\n.3,.3,.4\n.5,.4,.1\n"


def reference_as_fraction(text):
    """The reference for as_fraction on any string: the exponent cap, then
    Fraction(str)."""
    _check_exponent(text)
    return Fraction(text)


def outcome(convert, *args, **kw):
    """convert(...), or the type and text of the ValueError or
    ZeroDivisionError it raised."""
    try:
        return convert(*args, **kw)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)

# psi13 / psi23 numerator and denominator as displayed in the 3-state
# worked example; NOTE they share the factor (1 + z/10), so the canonical
# reduced form is (2/5 z)/(1 - 3/5 z).
PSI13_NUM = Polynomial([0, Fraction(2, 5), Fraction(1, 25)])
PSI13_DEN = Polynomial([1, Fraction(-1, 2), Fraction(-3, 50)])
PSI33_NUM = Polynomial([0, Fraction(1, 10), Fraction(31, 100), Fraction(3, 100)])


@pytest.fixture
def paper_chain():
    return StochasticMatrix([
        ["0.2", "0.4", "0.4"],
        ["0.3", "0.3", "0.4"],
        ["0.5", "0.4", "0.1"],
    ])


@pytest.fixture
def psi13():
    return RationalFunction(PSI13_NUM, PSI13_DEN)


@pytest.fixture
def psi33():
    return RationalFunction(PSI33_NUM, PSI13_DEN)


def random_fraction(rng, span=9, maxden=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, maxden))


def random_polynomial(rng, max_degree=5, span=9):
    return Polynomial([random_fraction(rng, span)
                       for _ in range(rng.randint(0, max_degree + 1))])


def random_stochastic(rng, n, allow_zero=True):
    """The CLI's generator; allow_zero=False draws weights 1..6 instead of
    0..6, so every entry is positive."""
    if allow_zero:
        return random_stochastic_matrix(rng, n)
    rows = [[rng.randint(1, 6) for _ in range(n)] for _ in range(n)]
    return StochasticMatrix([[Fraction(x, sum(w)) for x in w] for w in rows])


def random_irreducible(rng, n):
    # strictly positive entries force irreducibility
    return random_stochastic(rng, n, allow_zero=False)


def fresh_rng(seed):
    return random.Random(seed)


def pgf_3state_closed_form(P, i, j):
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


def rth_passage_oracle(P, i, j, r, depth):
    """P(the r-th visit to j, starting from i, happens at step k) for
    k = 1..depth, by a step recurrence over (state, visits so far).  The
    start at i does not count as a visit.  Independent of the PGF solver."""
    jj = j - 1
    dist = {(i - 1, 0): Fraction(1)}
    out = []
    for _ in range(depth):
        new, hit = {}, Fraction(0)
        for (s, v), mass in dist.items():
            for t, p in enumerate(P.rows[s]):
                if not p:
                    continue
                w = v + (t == jj)
                if w == r:
                    hit += mass * p
                else:
                    new[t, w] = new.get((t, w), Fraction(0)) + mass * p
        dist = new
        out.append(hit)
    return out
