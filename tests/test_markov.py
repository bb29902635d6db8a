import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpt import (StochasticMatrix, first_passage_pmf_oracle,
                 first_passage_table, parse_matrix, reach_probability,
                 reach_vector, render_matrix, solve_pgf)

from conftest import (PAPER_CSV, fresh_rng, outcome, random_stochastic,
                      reference_as_fraction)

F = Fraction


class TestParsing:
    def test_csv(self):
        m = parse_matrix(PAPER_CSV, fmt="csv")
        assert m.n == 3
        assert m.p(1, 2) == F(2, 5)

    def test_whitespace(self):
        m = parse_matrix(".2 .4 .4\n.3 .3 .4\n.5 .4 .1\n", fmt="whitespace")
        assert m == parse_matrix(PAPER_CSV, fmt="csv")

    def test_json_object_with_labels(self):
        text = json.dumps({"n": 2, "rows": [["1/2", "1/2"], [0, 1]],
                           "labels": ["up", "down"]})
        m = parse_matrix(text, fmt="json")
        assert m.labels == ("up", "down")
        assert m.p(1, 1) == F(1, 2)

    def test_json_floats_read_exactly(self):
        # 0.4 must become 2/5, not the binary double closest to it
        m = parse_matrix('{"rows": [[0.2, 0.4, 0.4], [0.3, 0.3, 0.4], [0.5, 0.4, 0.1]]}')
        assert m.p(1, 2) == F(2, 5)

    def test_json_bare_list(self):
        m = parse_matrix("[[0.5, 0.5], [0.5, 0.5]]", fmt="json")
        assert m.n == 2

    def test_autodetect(self):
        assert parse_matrix(PAPER_CSV).n == 3
        assert parse_matrix("0.5 0.5\n0.5 0.5").n == 2
        assert parse_matrix('{"rows": [[1]]}').n == 1

    def test_singleton(self):
        m = parse_matrix("1", fmt="whitespace")
        assert m.n == 1 and m.p(1, 1) == 1

    def test_mixed_entry_spellings(self):
        m = parse_matrix("2/5,0.6\n1,0\n", fmt="csv")
        assert m.p(1, 1) == F(2, 5) and m.p(1, 2) == F(3, 5)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            parse_matrix("0.5,0.5\n1\n", fmt="csv")

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(1,1\).*outside"):
            parse_matrix("1.5,-0.5\n0,1\n", fmt="csv")

    def test_row_sum_error_names_row(self):
        with pytest.raises(ValueError, match="row 1 sums to 9/10"):
            parse_matrix(".2,.4,.3\n.3,.3,.4\n.5,.4,.1\n", fmt="csv")

    def test_normalize_rows(self):
        m = parse_matrix("2,1\n0,5\n", fmt="csv", normalize_rows=True)
        assert m.row_normalized
        assert m.p(1, 1) == F(2, 3)
        assert m.p(2, 2) == 1

    def test_normalize_rows_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 2.*cannot"):
            parse_matrix("0.5,0.5\n0,0\n", fmt="csv", normalize_rows=True)

    def test_json_declared_n_mismatch(self):
        with pytest.raises(ValueError, match="declared n"):
            parse_matrix('{"n": 3, "rows": [[1]]}', fmt="json")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown matrix format"):
            parse_matrix("1", fmt="tsv")

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            parse_matrix('{"rows": [[1]], "labels": ["a", "b"]}')


def reference_matrix(cells, normalize_rows=False, first=()):
    """(rows, row_normalized) of a square grid of entry strings: entries
    read by Fraction(str), ranges and row sums checked in Fraction
    arithmetic.  The reference for StochasticMatrix's integer checks.  The
    entries in `first` are read before all others, as JSON numbers are
    while the text is loaded."""
    for c in first:
        reference_as_fraction(c)
    grid = [tuple(reference_as_fraction(c) for c in row) for row in cells]
    for idx, row in enumerate(grid, start=1):
        for jdx, e in enumerate(row, start=1):
            if e < 0 or (not normalize_rows and e > 1):
                raise ValueError(f"entry ({idx},{jdx}) = {e} outside [0, 1]")
    rescaled = False
    for idx, row in enumerate(grid, start=1):
        s = sum(row)
        if normalize_rows and s == 0:
            raise ValueError(f"row {idx} sums to 0 and cannot be normalized")
        if s != 1:
            if not normalize_rows:
                raise ValueError(f"row {idx} sums to {s}, expected 1")
            rescaled = True
            grid[idx - 1] = tuple(e / s for e in row)
    return tuple(grid), rescaled


JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def matrix_text(cells, fmt, bare):
    """(text, numbers): cells as csv, whitespace or json text, and the
    entries written as JSON numbers.  json writes an entry as a number
    where it is one and bare[i][j] is set, else as a string."""
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in cells), []
    if fmt == "whitespace":
        return "".join(" ".join(row) + "\n" for row in cells), []
    numbers = [c for row, brow in zip(cells, bare) for c, b in zip(row, brow)
               if b and JSON_NUMBER.fullmatch(c)]
    return "[" + ", ".join(
        "[" + ", ".join(c if b and JSON_NUMBER.fullmatch(c) else json.dumps(c)
                        for c, b in zip(row, brow)) + "]"
        for row, brow in zip(cells, bare)) + "]", numbers


@st.composite
def entry_grids(draw):
    """Square grids of entry strings: rows of weights w/t that sum to 1,
    spelled as p/q, as decimals or scaled, mixed with arbitrary entries."""
    n = draw(st.integers(1, 3))
    odd = st.from_regex(r"\A[+-]?[0-9٣_]{1,3}([./][0-9_]{0,3})?([eE][+-]?[0-9]{1,4})?\Z")
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        total = sum(weights) or 1
        row = []
        for w in weights:
            k = draw(st.sampled_from([1, 1, 2, 10]))
            spelled = draw(st.sampled_from(["frac", "decimal", "odd"]))
            x = Fraction(w, total)
            if spelled == "decimal" and 10 ** 6 % x.denominator == 0:
                q = x.numerator * 10 ** 6 // x.denominator
                row.append(f"{q // 10 ** 6}.{q % 10 ** 6:06d}")
            elif spelled == "odd" and draw(st.booleans()):
                row.append(draw(odd))
            else:
                row.append(f"{w * k}/{total * k}")
        rows.append(row)
    return rows


class TestIntegerValidationAgainstFraction:
    @settings(max_examples=300, deadline=None)
    @given(entry_grids(), st.sampled_from(["csv", "whitespace", "json"]),
           st.booleans(), st.data())
    def test_same_matrix_or_same_error(self, cells, fmt, normalize_rows, data):
        bare = [[data.draw(st.booleans()) for _ in row] for row in cells]
        text, numbers = matrix_text(cells, fmt, bare)

        def parsed():
            m = parse_matrix(text, fmt=fmt, normalize_rows=normalize_rows)
            return m.rows, m.row_normalized

        assert outcome(parsed) == outcome(reference_matrix, cells, normalize_rows, numbers)


class TestRoundTrip:
    def test_parse_render_parse_identity(self, paper_chain):
        assert parse_matrix(render_matrix(paper_chain)) == paper_chain

    def test_random_matrices_round_trip(self):
        rng = fresh_rng(31)
        for _ in range(20):
            m = random_stochastic(rng, rng.randint(1, 6))
            assert parse_matrix(render_matrix(m)) == m
            assert parse_matrix(render_matrix(m, decimal=True)) == m


class TestOracle:
    def test_paper_first_two_terms(self, paper_chain):
        pmf = first_passage_pmf_oracle(paper_chain, 1, 3, 2)
        assert pmf.values == (F(2, 5), F(6, 25))

    def test_absorbing_self_loop(self):
        m = StochasticMatrix([[1]])
        pmf = first_passage_pmf_oracle(m, 1, 1, 5)
        assert pmf.values == (F(1), F(0), F(0), F(0), F(0))
        assert pmf.mass == 1

    def test_return_time_cross_checks_solver_series(self, paper_chain):
        # the oracle recursion and the solved PGF are independent routes
        pmf = first_passage_pmf_oracle(paper_chain, 3, 3, 12)
        series = solve_pgf(paper_chain, 3, 3).pgf.series(13)
        assert list(pmf.values) == series[1:]
        # numerator coefficients of psi33 are 0.1, 0.31, 0.03; the pmf picks
        # up denominator feedback from step 2 onward
        assert pmf.values[:3] == (F(1, 10), F(9, 25), F(27, 125))

    def test_mass_monotone_and_bounded_by_reach(self):
        rng = fresh_rng(41)
        for _ in range(15):
            m = random_stochastic(rng, rng.randint(2, 5))
            i = rng.randint(1, m.n)
            j = rng.randint(1, m.n)
            reach = reach_probability(m, i, j)
            prev = F(0)
            for depth in (1, 3, 7, 15):
                mass = first_passage_pmf_oracle(m, i, j, depth).mass
                assert prev <= mass <= reach
                prev = mass

    def test_index_errors(self, paper_chain):
        with pytest.raises(IndexError):
            first_passage_pmf_oracle(paper_chain, 0, 3, 2)
        with pytest.raises(IndexError):
            first_passage_pmf_oracle(paper_chain, 1, 4, 2)
        with pytest.raises(ValueError):
            first_passage_table(paper_chain, 1, 0)


class TestReachProbability:
    def test_irreducible_chain_reaches_everything(self, paper_chain):
        for i in range(1, 4):
            for j in range(1, 4):
                assert reach_probability(paper_chain, i, j) == 1
                # agrees with evaluating the solved PGF at z = 1
                assert solve_pgf(paper_chain, i, j).pgf.eval(1) == 1

    def test_unreachable_target(self):
        m = StochasticMatrix([[1, 0], ["0.5", "0.5"]])
        assert reach_probability(m, 1, 2) == 0

    def test_defective_value_within_tail_bounded_partial_sum(self):
        # from state 1 the chain leaves toward the absorbing trap 3 half
        # the time, so state 2 is hit with probability 1/2
        m = StochasticMatrix([[0, "0.5", "0.5"], [0, 1, 0], [0, 0, 1]])
        reach = reach_probability(m, 1, 2)
        assert reach == F(1, 2)
        K = 30
        mass = first_passage_pmf_oracle(m, 1, 2, K).mass
        alive = _alive_in_reaching_set(m, 1, 2, K)
        assert mass <= reach <= mass + alive

    def test_tail_bound_on_slow_defective_chain(self):
        # state 1 loops with probability 2/3, escapes to the trap or the
        # target with probability 1/6 each
        m = StochasticMatrix([["2/3", "1/6", "1/6"], [0, 1, 0], [0, 0, 1]])
        reach = reach_probability(m, 1, 2)
        assert reach == F(1, 2)
        for K in (5, 20, 60):
            mass = first_passage_pmf_oracle(m, 1, 2, K).mass
            alive = _alive_in_reaching_set(m, 1, 2, K)
            assert mass <= reach <= mass + alive

    def test_return_probability_of_transient_state(self):
        m = StochasticMatrix([["0.5", "0.5"], [0, 1]])
        assert reach_probability(m, 1, 1) == F(1, 2)


def _alive_in_reaching_set(m, i, j, depth):
    """P(target not hit within depth steps and the chain sits in a state
    that can still reach it): an exact upper bound on the missing mass."""
    h = reach_vector(m, j)
    v = [F(0)] * m.n
    v[i - 1] = F(1)
    jj = j - 1
    for _ in range(depth):
        nxt = [F(0)] * m.n
        for a in range(m.n):
            if a == jj or v[a] == 0:
                continue
            for b in range(m.n):
                nxt[b] += v[a] * m.rows[a][b]
        v = nxt
    return sum(v[a] for a in range(m.n) if a != jj and h[a] > 0)
