import time
from fractions import Fraction

import pytest

import fpt.moments as moments
from fpt import (RationalFunction, StochasticMatrix, first_passage_pmf_oracle,
                 first_passage_table, mean_first_passage, moment_report,
                 reach_vector, rth_passage_pgf, rth_passage_pmf,
                 second_factorial_moment, solve_all_for_target, solve_pgf,
                 variance_first_passage)
from fpt.exact import Polynomial

from conftest import (PSI13_DEN, PSI13_NUM, PSI33_NUM, fresh_rng, random_irreducible,
                      random_stochastic, rth_passage_oracle)

F = Fraction


def tail_bounds(P, j, blocks):
    """Exact geometric tail bounds for sum k*f(k) and sum k(k-1)*f(k)
    beyond depth blocks*n, from the uniform n-step hitting probability."""
    n = P.n
    table = first_passage_table(P, j, n)
    delta = min(sum(table[k][i] for k in range(n)) for i in range(n))
    assert delta > 0
    x = 1 - delta
    M = blocks
    mean_tail = n * x ** M * ((M + 1) / delta + x / delta ** 2)
    second_tail = n * n * x ** M * ((M + 1) ** 2 / delta
                                    + 2 * (M + 1) * x / delta ** 2
                                    + x * (1 + x) / delta ** 3)
    return n * M, mean_tail, second_tail


class TestMeans:
    def test_paper_means(self, paper_chain):
        mu = mean_first_passage(paper_chain, 3)
        assert mu[0] == F(5, 2) and mu[1] == F(5, 2)

    def test_paper_return_time(self, paper_chain):
        assert mean_first_passage(paper_chain, 3)[2] == F(13, 4)

    def test_deterministic_two_cycle(self):
        m = StochasticMatrix([[0, 1], [1, 0]])
        mu = mean_first_passage(m, 2)
        assert mu == [F(1), F(2)]

    def test_matches_pgf_derivative_and_truncated_sum(self):
        rng = fresh_rng(61)
        for _ in range(6):
            m = random_irreducible(rng, 5)
            for j in range(1, 6):
                mu = mean_first_passage(m, j)
                pgfs = solve_all_for_target(m, j)
                for i in range(1, 6):
                    assert mu[i - 1] == pgfs[i].pgf.derivative().eval(1)
                K, mean_tail, _ = tail_bounds(m, j, 40)
                pmf = first_passage_pmf_oracle(m, 1, j, K)
                partial = sum(k * v for k, v in enumerate(pmf.values, start=1))
                assert partial <= mu[0] <= partial + mean_tail

    def test_reducible_chains_match_pgf_at_one(self):
        # sparse chains, half with one state made absorbing: most pairs are
        # defective there, so the finite flags and the return slot are hit
        rng = fresh_rng(73)
        for t in range(16):
            m = random_stochastic(rng, rng.randint(2, 5))
            if t % 2:
                a = rng.randrange(m.n)
                rows = [list(row) for row in m.rows]
                rows[a] = [F(int(k == a)) for k in range(m.n)]
                m = StochasticMatrix(rows)
            for j in range(1, m.n + 1):
                h = reach_vector(m, j)
                rep = moment_report(m, j)
                pgfs = solve_all_for_target(m, j)
                for i in range(1, m.n + 1):
                    pgf = pgfs[i].pgf
                    assert h[i - 1] == pgf.eval(1)
                    assert rep.finite[i - 1] == (h[i - 1] == 1)
                    if rep.finite[i - 1]:
                        d1 = pgf.derivative()
                        assert rep.means[i - 1] == d1.eval(1)
                        assert rep.second_factorial[i - 1] == d1.derivative().eval(1)

    def test_all_finite_means_at_least_one(self):
        rng = fresh_rng(67)
        for _ in range(10):
            m = random_irreducible(rng, rng.randint(2, 5))
            for j in range(1, m.n + 1):
                for v in mean_first_passage(m, j):
                    assert v is not None and v >= 1

    def test_unreachable_target_gives_infinite_mean(self):
        m = StochasticMatrix([[1, 0], ["0.5", "0.5"]])
        assert mean_first_passage(m, 2) == [None, None]


class TestSecondFactorialAndVariance:
    def test_paper_chain_against_second_derivative(self, paper_chain):
        s = second_factorial_moment(paper_chain, 3)
        psi13 = solve_pgf(paper_chain, 1, 3).pgf
        assert s[0] == psi13.derivative().derivative().eval(1)

    def test_one_step_passage_has_zero_second_factorial(self):
        m = StochasticMatrix([[0, 1], [0, 1]])
        assert solve_pgf(m, 1, 2).pgf == RationalFunction(Polynomial([0, 1]))
        assert second_factorial_moment(m, 2)[0] == 0
        assert variance_first_passage(m, 2)[0] == 0

    def test_matches_truncated_series_with_tail_bound(self):
        rng = fresh_rng(71)
        for _ in range(5):
            m = random_irreducible(rng, 4)
            for j in range(1, 5):
                s = second_factorial_moment(m, j)
                K, _, second_tail = tail_bounds(m, j, 40)
                pmf = first_passage_pmf_oracle(m, 2, j, K)
                partial = sum(k * (k - 1) * v
                              for k, v in enumerate(pmf.values, start=1))
                assert partial <= s[1] <= partial + second_tail

    def test_geometric_chain_moments(self):
        # passage 1 -> 2 is geometric(1/2): mean 2, variance 2
        m = StochasticMatrix([["0.5", "0.5"], [0, 1]])
        assert mean_first_passage(m, 2)[0] == 2
        assert variance_first_passage(m, 2)[0] == 2

    def test_paper_variance_via_series(self, paper_chain):
        var = variance_first_passage(paper_chain, 3)
        K, mean_tail, second_tail = tail_bounds(paper_chain, 3, 40)
        pmf = first_passage_pmf_oracle(paper_chain, 1, 3, K)
        mu = mean_first_passage(paper_chain, 3)[0]
        partial_sq = sum(k * k * v for k, v in enumerate(pmf.values, start=1))
        # sum k^2 f(k) = s + mu, tails add
        lower = partial_sq - mu * mu
        upper = partial_sq + mean_tail + second_tail - mu * mu
        assert lower <= var[0] <= upper

    def test_moment_report_assembles_consistently(self, paper_chain):
        rep = moment_report(paper_chain, 3)
        assert rep.finite == (True, True, True)
        for m, s, v in zip(rep.means, rep.second_factorial, rep.variances):
            assert v == s + m - m * m

    def test_report_computes_reach_vector_once(self, paper_chain, monkeypatch):
        calls = []
        real = moments.reach_vector

        def counted(P, j):
            calls.append(j)
            return real(P, j)

        monkeypatch.setattr(moments, "reach_vector", counted)
        rep = moment_report(paper_chain, 3)
        assert calls == [3]
        assert list(rep.means) == mean_first_passage(paper_chain, 3)
        assert list(rep.second_factorial) == second_factorial_moment(paper_chain, 3)

    def test_infinite_flags_for_defective_target(self):
        m = StochasticMatrix([[1, 0], ["0.5", "0.5"]])
        rep = moment_report(m, 2)
        assert rep.finite == (False, False)
        assert rep.means == (None, None)
        assert rep.variances == (None, None)


class TestRthPassage:
    def test_paper_second_passage_pgf(self, paper_chain):
        rp = rth_passage_pgf(paper_chain, 1, 3, 2)
        expect = RationalFunction(PSI13_NUM * PSI33_NUM, PSI13_DEN * PSI13_DEN)
        assert rp.pgf == expect

    def test_paper_second_passage_pmf(self, paper_chain):
        pmf = rth_passage_pmf(paper_chain, 1, 3, 2, 5)
        assert [str(v) for v in pmf.values] == \
            ["0", "1/25", "21/125", "117/625", "513/3125"]
        assert pmf.values[3] == F(1872, 10 ** 4)

    def test_order_one_is_first_passage(self, paper_chain):
        for i in range(1, 4):
            assert (rth_passage_pgf(paper_chain, i, 3, 1).pgf
                    == solve_pgf(paper_chain, i, 3).pgf)

    def test_numerator_valuation_at_least_order(self, paper_chain):
        for r in range(1, 5):
            num = rth_passage_pgf(paper_chain, 1, 3, r).pgf.numerator
            for k in range(r):
                assert num.coeff(k) == 0

    def test_deterministic_two_cycle_second_visit(self):
        m = StochasticMatrix([[0, 1], [1, 0]])
        pmf = rth_passage_pmf(m, 1, 2, 2, 4)
        assert pmf.values == (F(0), F(0), F(1), F(0))

    def test_convolution_identity(self):
        rng = fresh_rng(73)
        K = 15
        for _ in range(5):
            m = random_irreducible(rng, 3)
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            ret = first_passage_pmf_oracle(m, j, j, K).values
            for r in (2, 3):
                lower = rth_passage_pmf(m, i, j, r - 1, K).values
                conv = [sum(lower[a - 1] * ret[k - a - 1] for a in range(1, k))
                        for k in range(1, K + 1)]
                assert list(rth_passage_pmf(m, i, j, r, K).values) == conv

    def test_triple_convolution_of_oracle_pmfs(self):
        rng = fresh_rng(79)
        K = 12
        m = random_irreducible(rng, 3)
        first = first_passage_pmf_oracle(m, 2, 1, K).values
        ret = first_passage_pmf_oracle(m, 1, 1, K).values

        def conv(a, b):
            return [sum(a[x - 1] * b[k - x - 1] for x in range(1, k))
                    for k in range(1, K + 1)]

        expect = conv(conv(list(first), list(ret)), list(ret))
        assert list(rth_passage_pmf(m, 2, 1, 3, K).values) == expect

    def test_mean_additivity(self, paper_chain):
        mu = mean_first_passage(paper_chain, 3)
        for r in (1, 2, 3):
            rp = rth_passage_pgf(paper_chain, 1, 3, r)
            assert rp.pgf.derivative().eval(1) == mu[0] + (r - 1) * mu[2]

    def test_pmf_values_nonnegative(self):
        rng = fresh_rng(83)
        for _ in range(8):
            m = random_irreducible(rng, rng.randint(2, 4))
            pmf = rth_passage_pmf(m, 1, m.n, rng.randint(1, 3), 20)
            for v in pmf.values:
                assert v >= 0

    def test_high_order_matches_visit_recurrence(self, paper_chain):
        # order 200: the pmf starts at step 200, so check 20 steps past it
        rng = fresh_rng(97)
        K = 220
        for m, i, j in ((paper_chain, 1, 3), (random_irreducible(rng, 3), 2, 1)):
            start = time.perf_counter()
            values = rth_passage_pmf(m, i, j, 200, K).values
            assert time.perf_counter() - start < 10
            assert list(values) == rth_passage_oracle(m, i, j, 200, K)
            assert values[198] == 0 and values[199] > 0

    def test_law_mass_is_product_of_reach_masses(self):
        # reducible chains, half with one state made absorbing, where the
        # return to j can fail even when the first passage to j cannot
        rng = fresh_rng(101)
        chains = [StochasticMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 1]])]
        for t in range(16):
            m = random_stochastic(rng, rng.randint(2, 4))
            if t % 2:
                a = rng.randrange(m.n)
                rows = [list(row) for row in m.rows]
                rows[a] = [F(int(k == a)) for k in range(m.n)]
                m = StochasticMatrix(rows)
            chains.append(m)
        sure_first_unsure_return = 0
        for m in chains:
            for j in range(1, m.n + 1):
                h = reach_vector(m, j)
                for i in range(1, m.n + 1):
                    sure_first_unsure_return += h[i - 1] == 1 > h[j - 1]
                    for r in (1, 2, 3):
                        rp = rth_passage_pgf(m, i, j, r)
                        assert rp.mass == h[i - 1] * h[j - 1] ** (r - 1) == rp.pgf.eval(1)
                        assert rp.defective == (rp.mass < 1)
        assert sure_first_unsure_return >= 2

    def test_bad_order_rejected(self, paper_chain):
        with pytest.raises(ValueError, match="order"):
            rth_passage_pgf(paper_chain, 1, 3, 0)
        with pytest.raises(ValueError, match="depth"):
            rth_passage_pmf(paper_chain, 1, 3, 1, 0)
