"""Acceptance suite: every criterion is exercised at its stated tolerance
(exact equality throughout) and prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
import random
import time
from fractions import Fraction

from fpt import (RationalFunction, StochasticMatrix, first_passage_pmf_oracle,
                 first_passage_table, mean_first_passage, moment_report,
                 rth_passage_pmf, solve_all_for_target, solve_pgf,
                 variance_first_passage)
from fpt.cli import random_stochastic_matrix
from fpt.exact import Polynomial

from conftest import PSI13_DEN, PSI13_NUM, PSI33_NUM, pgf_3state_closed_form

F = Fraction


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_golden_pgfs(paper_chain):
    start = time.perf_counter()
    expect_13 = RationalFunction(PSI13_NUM, PSI13_DEN)
    expect_33 = RationalFunction(PSI33_NUM, PSI13_DEN)
    assert solve_pgf(paper_chain, 1, 3).pgf == expect_13
    assert solve_pgf(paper_chain, 2, 3).pgf == expect_13
    assert solve_pgf(paper_chain, 3, 3).pgf == expect_33
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"golden PGFs reproduced structurally in {elapsed * 1e3:.1f} ms")


def test_criterion_2_golden_series(paper_chain):
    series = solve_pgf(paper_chain, 1, 3).pgf.series(8)
    expect = [F(s) for s in ["0.4", "0.24", "0.144", "0.0864",
                             "0.05184", "0.031104", "0.0186624"]]
    assert series[1:8] == expect
    _passed(2, "series indices 1-7 match exactly")


def test_criterion_3_golden_means(paper_chain):
    mu = mean_first_passage(paper_chain, 3)
    assert mu[0] == F(5, 2)
    assert mu[1] == F(5, 2)
    _passed(3, "mean passage times to state 3 are exactly 5/2")


def test_criterion_4_golden_second_passage(paper_chain):
    pmf = rth_passage_pmf(paper_chain, 1, 3, 2, 5)
    expect = [F(s) for s in ["0.04", "0.168", "0.1872", "0.16416"]]
    assert list(pmf.values[1:5]) == expect
    assert pmf.values[3] == F("0.1872")
    _passed(4, "second-passage pmf indices 2-5 match exactly")


def _corpus(count, seed=2024):
    rng = random.Random(seed)
    return [random_stochastic_matrix(rng, rng.randint(2, 6)) for _ in range(count)]


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    depth = 25
    matrices = _corpus(200)
    checked = 0
    for m in matrices:
        for j in range(1, m.n + 1):
            table = first_passage_table(m, j, depth)
            pgfs = solve_all_for_target(m, j)
            for i in range(1, m.n + 1):
                series = pgfs[i].pgf.series(depth + 1)
                assert series[1:] == [table[k][i - 1] for k in range(depth)]
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(5, f"{checked} ordered pairs over 200 matrices agree with the "
               f"oracle to depth {depth} in {elapsed:.1f} s")


def test_criterion_6_closed_form_equivalence():
    rng = random.Random(99)
    for _ in range(100):
        m = random_stochastic_matrix(rng, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert (pgf_3state_closed_form(m, i, j).pgf
                            == solve_pgf(m, i, j).pgf)
    _passed(6, "3-state closed form equals the general solver on 100 matrices")


def test_criterion_7_moment_consistency():
    checked = 0
    for m in _corpus(60, seed=77):
        for j in range(1, m.n + 1):
            mu = mean_first_passage(m, j)
            var = variance_first_passage(m, j)
            pgfs = solve_all_for_target(m, j)
            for i in range(1, m.n + 1):
                if mu[i - 1] is None:
                    continue
                assert mu[i - 1] == pgfs[i].pgf.derivative().eval(1)
                if var[i - 1] is not None:
                    assert var[i - 1] >= 0
                checked += 1
    assert checked > 0
    _passed(7, f"system means equal PGF-derivative means on {checked} "
               f"finite cases; variances nonnegative")


def test_criterion_8_defective_case():
    # target 2 is unreachable from state 1
    m = StochasticMatrix([[1, 0], ["1/2", "1/2"]])
    res = solve_pgf(m, 1, 2)
    assert res.reach_mass == 0
    assert res.defective
    assert res.pgf == RationalFunction(Polynomial())
    pmf = first_passage_pmf_oracle(m, 1, 2, 20)
    assert all(v == 0 for v in pmf.values)
    rep = moment_report(m, 2)
    assert rep.finite[0] is False
    assert rep.means[0] is None and rep.variances[0] is None
    _passed(8, "unreachable target handled: zero mass, infinite moments, no error")
