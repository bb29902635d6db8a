from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpt import (Polynomial, RationalFunction, StochasticMatrix, build_system,
                 first_passage_table, reach_vector, solve_all_for_target,
                 solve_pair, solve_pgf)
from conftest import fresh_rng, pgf_3state_closed_form, random_stochastic

F = Fraction


def poly(*cs):
    return Polynomial(cs)


def cofactor_det(m):
    """Independent determinant oracle: recursive cofactor expansion."""
    k = len(m)
    if k == 0:
        return Polynomial([1])
    if k == 1:
        return m[0][0]
    acc = Polynomial()
    for c in range(k):
        minor = [[row[x] for x in range(k) if x != c] for row in m[1:]]
        term = m[0][c] * cofactor_det(minor)
        acc = acc + term if c % 2 == 0 else acc - term
    return acc


class TestBuildSystem:
    def test_paper_system_for_target_3(self, paper_chain):
        sys3 = build_system(paper_chain, 3)
        assert sys3.sources == (1, 2)
        assert sys3.matrix == ((poly(1, "-0.2"), poly(0, "-0.4")),
                               (poly(0, "-0.3"), poly(1, "-0.3")))
        assert sys3.rhs == (poly(0, "0.4"), poly(0, "0.4"))

    def test_two_state_scalar_system(self):
        m = StochasticMatrix([["0.3", "0.7"], ["0.6", "0.4"]])
        sys2 = build_system(m, 2)
        assert sys2.matrix == ((poly(1, "-0.3"),),)
        assert sys2.rhs == (poly(0, "0.7"),)

    def test_structural_invariants_on_random_chains(self):
        rng = fresh_rng(19)
        for _ in range(10):
            m = random_stochastic(rng, 5)
            for j in range(1, 6):
                s = build_system(m, j)
                for a, row in enumerate(s.matrix):
                    for b, p in enumerate(row):
                        assert p.degree <= 1
                        assert p.coeff(0) == (1 if a == b else 0)
                det = cofactor_det([list(r) for r in s.matrix])
                assert det.coeff(0) == 1


class TestSolvePgf:
    def test_golden_psi13_and_psi23(self, paper_chain, psi13):
        assert solve_pgf(paper_chain, 1, 3).pgf == psi13
        assert solve_pgf(paper_chain, 2, 3).pgf == psi13

    def test_golden_psi33(self, paper_chain, psi33):
        assert solve_pgf(paper_chain, 3, 3).pgf == psi33

    def test_deterministic_one_step_passage(self):
        m = StochasticMatrix([[0, 1], [1, 0]])
        res = solve_pgf(m, 1, 2)
        assert res.pgf == RationalFunction(poly(0, 1))
        assert res.reach_mass == 1 and not res.defective

    def test_singleton_chain_return(self):
        m = StochasticMatrix([[1]])
        assert solve_pgf(m, 1, 1).pgf == RationalFunction(poly(0, 1))

    def test_numerator_constant_term_is_zero(self):
        rng = fresh_rng(29)
        for _ in range(15):
            m = random_stochastic(rng, rng.randint(2, 6))
            for j in range(1, m.n + 1):
                for res in solve_all_for_target(m, j).values():
                    assert res.pgf.numerator.coeff(0) == 0

    def test_series_equals_oracle_on_random_chains(self):
        rng = fresh_rng(37)
        K = 20
        for _ in range(25):
            m = random_stochastic(rng, rng.randint(2, 6))
            for j in range(1, m.n + 1):
                table = first_passage_table(m, j, K)
                pgfs = solve_all_for_target(m, j)
                for i in range(1, m.n + 1):
                    series = pgfs[i].pgf.series(K + 1)
                    assert series[1:] == [table[k][i - 1] for k in range(K)]

    def test_denominator_divides_system_determinant(self, paper_chain):
        rng = fresh_rng(43)
        chains = [paper_chain] + [random_stochastic(rng, rng.randint(2, 5))
                                  for _ in range(10)]
        for m in chains:
            for j in range(1, m.n + 1):
                det = cofactor_det([list(r) for r in build_system(m, j).matrix])
                for res in solve_all_for_target(m, j).values():
                    den = res.pgf.denominator
                    q, r = divmod(det, den)
                    assert r.is_zero()

    def test_certain_reach_means_unit_mass_at_one(self):
        rng = fresh_rng(47)
        for _ in range(10):
            m = random_stochastic(rng, rng.randint(2, 5), allow_zero=False)
            for j in range(1, m.n + 1):
                for res in solve_all_for_target(m, j).values():
                    assert res.reach_mass == 1
                    assert res.pgf.eval(1) == 1

    def test_defective_target_flagged_not_fatal(self):
        m = StochasticMatrix([[1, 0], ["0.5", "0.5"]])
        res = solve_pgf(m, 1, 2)
        assert res.defective and res.reach_mass == 0
        assert res.pgf == RationalFunction(Polynomial())
        res21 = solve_pgf(m, 2, 1)
        assert not res21.defective
        assert res21.pgf == RationalFunction(poly(0, "0.5"), poly(1, "-0.5"))

    def test_index_errors(self, paper_chain):
        with pytest.raises(IndexError):
            solve_pgf(paper_chain, 4, 1)
        with pytest.raises(IndexError):
            solve_pgf(paper_chain, 1, 0)


# pairwise coprime, so the lcm D of a chain's entry denominators is large
ROW_DENOMINATORS = (7, 9, 11, 13, 16, 17, 19)


@st.composite
def coprime_denominator_chains(draw):
    """Chains of 1..7 states whose row r has entries in multiples of
    1/ROW_DENOMINATORS[r], spread over a random support so that sparse,
    reducible chains are common."""
    n = draw(st.integers(1, len(ROW_DENOMINATORS)))
    rows = []
    for den in ROW_DENOMINATORS[:n]:
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(support) - 1,
                                    max_size=len(support) - 1)))
        row = [F(0)] * n
        for k, lo, hi in zip(support, [0] + cuts, cuts + [den]):
            row[k] += F(hi - lo, den)
        rows.append(row)
    return StochasticMatrix(rows)


class TestIntegerKernel:
    def test_inexact_division_detected(self):
        from fpt.exact import _div_exact
        assert _div_exact([1, 3, 2], [1, 1]) == [1, 2]
        # divisor of higher degree than the quotient
        assert _div_exact([0, 2, 2, 2, 2], [1, 1, 1, 1]) == [0, 2]
        for a in ([1, 3, 3], [1, 2], [5]):
            with pytest.raises(ArithmeticError, match="inexact"):
                _div_exact(a, [1, 1])

    def test_division_by_non_unit_constant_term(self):
        from fpt.exact import _div_exact
        assert _div_exact([6], [3]) == [2]
        assert _div_exact([2, 6, 4], [2, 2]) == [1, 2]
        assert _div_exact([-6, -3, 3], [-2, 1]) == [3, 3]
        with pytest.raises(ArithmeticError, match="inexact"):
            _div_exact([7], [3])

    def test_pivot_degree_drop(self):
        # a sparse 10-state chain whose target-4 elimination divides by a
        # pivot of higher degree than the quotient
        m = StochasticMatrix([row.split(",") for row in (
            "0,2/17,2/17,0,4/17,0,2/17,3/17,3/17,1/17",
            "6/25,0,0,0,1/5,2/25,0,1/25,1/5,6/25",
            "1/7,5/28,1/28,3/28,1/7,0,1/28,1/14,3/28,5/28",
            "1/36,1/6,1/9,1/18,1/9,1/6,1/18,1/9,1/36,1/6",
            "4/33,1/33,1/33,2/11,2/33,2/11,1/33,2/11,1/11,1/11",
            "1/8,3/20,1/20,1/10,1/8,1/20,3/20,1/40,1/8,1/10",
            "4/33,0,4/33,0,2/33,5/33,1/11,4/33,5/33,2/11",
            "4/37,6/37,1/37,6/37,4/37,4/37,2/37,5/37,0,5/37",
            "1/5,1/25,0,0,1/25,1/25,3/25,2/25,6/25,6/25",
            "1/30,1/30,1/30,1/5,1/6,2/15,1/6,1/30,0,1/5")])
        K = 15
        table = first_passage_table(m, 4, K)
        pgfs = solve_all_for_target(m, 4)
        for i in range(1, m.n + 1):
            assert pgfs[i].pgf.series(K + 1)[1:] == [table[k][i - 1] for k in range(K)]

    @given(coprime_denominator_chains())
    @settings(max_examples=80, deadline=None)
    def test_series_equals_oracle_with_large_lcm(self, m):
        K = 12
        for j in range(1, m.n + 1):
            table = first_passage_table(m, j, K)
            pgfs = solve_all_for_target(m, j)
            for i in range(1, m.n + 1):
                series = pgfs[i].pgf.series(K + 1)
                assert series[1:] == [table[k][i - 1] for k in range(K)]


class TestPairSolve:
    """solve_pair eliminates I - wA forward only; solve_all_for_target runs
    Gauss-Jordan on the target's system.  They must agree exactly."""

    @given(st.integers(1, 7), st.integers(0, 2 ** 32), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_solve_all_for_target(self, n, seed, absorbing):
        rng = fresh_rng(seed)
        m = random_stochastic(rng, n)
        if absorbing:
            a = rng.randrange(n)
            rows = [list(row) for row in m.rows]
            rows[a] = [F(int(k == a)) for k in range(n)]
            m = StochasticMatrix(rows)
        for j in range(1, n + 1):
            every = solve_all_for_target(m, j)
            for i in range(1, n + 1):
                alone, none = solve_pair(m, i, j)
                first, ret = solve_pair(m, i, j, with_return=True)
                assert alone == first == every[i]
                assert ret == every[j]
                assert none is None or i == j

    def test_reach_mass_is_pgf_at_one(self):
        m = StochasticMatrix([[1, 0, 0], ["0.5", 0, "0.5"], [0, "0.25", "0.75"]])
        for j in range(1, 4):
            for i in range(1, 4):
                res = solve_pair(m, i, j)[0]
                assert res.reach_mass == res.pgf.eval(1) == reach_vector(m, j)[i - 1]
                assert res.defective == (res.reach_mass < 1)

    def test_forward_kernel_leaves_leading_minors(self):
        from fpt.exact import _bareiss

        def system():
            return [[[2], [1], [1], [1]], [[1], [3], [2], []], [[1], [], [4], [2]]]

        aug = system()
        last, det = _bareiss(aug, forward=True)
        assert aug[0] == system()[0]                     # never updated
        assert aug[1][1:] == [[5], [3], [-1]]            # minors of rows 1, 2
        assert det == aug[2][2] == [19] and aug[2][3] == [7]
        assert last == [[1], [-1], [7]]
        # Gauss-Jordan goes on to clear the rows above: x = (10, -8, 7) / 19
        assert _bareiss(system()) == ([[10], [-8], [7]], [19])


class TestClosedForm:
    def test_matches_general_solver_on_paper_chain(self, paper_chain, psi13):
        assert pgf_3state_closed_form(paper_chain, 1, 3).pgf == psi13
        assert pgf_3state_closed_form(paper_chain, 2, 3).pgf == psi13

    def test_equals_general_solver_on_random_3_state(self):
        rng = fresh_rng(53)
        for _ in range(30):
            m = random_stochastic(rng, 3)
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    assert (pgf_3state_closed_form(m, i, j).pgf
                            == solve_pgf(m, i, j).pgf)

    def test_wrong_size_rejected(self):
        m = StochasticMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="3 states"):
            pgf_3state_closed_form(m, 1, 2)

    def test_return_time_rejected(self, paper_chain):
        with pytest.raises(ValueError, match="i != j"):
            pgf_3state_closed_form(paper_chain, 3, 3)
