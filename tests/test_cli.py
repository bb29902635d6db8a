import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

import fpt.cli as cli
import fpt.exact as exact
import fpt.moments as moments
import fpt.solver as solver
from fpt import RationalFunction
from fpt.exact import Polynomial
from fpt.markov import first_passage_table, parse_matrix

from conftest import PAPER_CSV, rth_passage_oracle

F = Fraction


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.csv"
    path.write_text(PAPER_CSV)
    return str(path)


def run(argv):
    return cli.main(argv)


# A valid chain whose exact pmf outgrows Python's default limit of 4300
# digits for int <-> str conversion within 100 steps.
TINY_CSV = ("99999999999999999999999999999999999999999999999999/"
            "100000000000000000000000000000000000000000000000000,1e-50\n"
            "1/2,1/2\n")


@contextmanager
def int_digits_unlimited():
    """Lift the int <-> str digit limit for the body only (a no-op on a
    Python without the limit)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_CSV)
    return str(path)


class TestPgfCommand:
    def test_decimal_output(self, paper_file, capsys):
        assert run(["pgf", "--matrix", paper_file, "--from", "1", "--to", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "(0.4*z) / (1 - 0.6*z)"

    def test_exact_output(self, paper_file, capsys):
        assert run(["pgf", "--matrix", paper_file, "--from", "3", "--to", "3",
                    "--exact"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "(1/10*z + 3/10*z^2) / (1 - 3/5*z)"

    def test_index_error_exit_code(self, paper_file, capsys):
        assert run(["pgf", "--matrix", paper_file, "--from", "9", "--to", "3"]) \
            == cli.EXIT_INDEX_ERROR
        assert "out of range" in capsys.readouterr().err


class TestSeriesCommand:
    def test_single_term_line(self, paper_file, capsys):
        assert run(["series", "--matrix", paper_file, "--from", "1", "--to", "3",
                    "--terms", "1"]) == 0
        assert capsys.readouterr().out == "1 0.4\n"

    def test_exact_lines_round_trip(self, paper_file, capsys):
        assert run(["series", "--matrix", paper_file, "--from", "1", "--to", "3",
                    "--terms", "7", "--exact"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [F(line.split()[1]) for line in lines]
        assert values == [F(s) for s in
                          ["0.4", "0.24", "0.144", "0.0864",
                           "0.05184", "0.031104", "0.0186624"]]

    def test_bad_terms_rejected(self, paper_file, capsys):
        assert run(["series", "--matrix", paper_file, "--from", "1", "--to", "3",
                    "--terms", "0"]) == cli.EXIT_PARSE_ERROR

    def test_exact_values_past_the_int_digit_limit(self, tiny_file, capsys):
        assert run(["series", "--matrix", tiny_file, "--from", "1", "--to", "2",
                    "--terms", "100", "--exact"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 100
        k, text = lines[-1].split()
        assert k == "100" and len(text) > 4300
        expected = first_passage_table(parse_matrix(TINY_CSV), 2, 100)[99][0]
        with int_digits_unlimited():
            assert Fraction(text) == expected


class TestMomentsCommand:
    def test_paper_target(self, paper_file, capsys):
        assert run(["moments", "--matrix", paper_file, "--to", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split() == ["1", "2.5", "7.5", "3.75"]
        assert lines[2].split() == ["2", "2.5", "7.5", "3.75"]

    def test_defective_target_prints_inf_and_warns(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0.5,0.5\n")
        assert run(["moments", "--matrix", str(path), "--to", "2"]) \
            == cli.EXIT_DEFECTIVE
        captured = capsys.readouterr()
        assert "1 inf inf inf" in captured.out
        assert "infinite" in captured.err


    def test_hint_of_a_value_beyond_the_float_range(self, tmp_path, capsys):
        # the mean from 1 is 1/p_12 = 10^400/3, past the largest float
        path = tmp_path / "huge.csv"
        path.write_text("0." + "9" * 399 + "7,3e-400\n1/2,1/2\n")
        assert run(["moments", "--matrix", str(path), "--to", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        hints = re.findall(r"\(~([^)]*)\)", lines[1])
        assert hints[0] == "3.33333e+399"
        assert len(hints) == 3


class TestPassageCommand:
    def test_paper_second_passage(self, paper_file, capsys):
        assert run(["passage", "--matrix", paper_file, "--from", "1", "--to", "3",
                    "--order", "2", "--terms", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "(0.04*z^2 + 0.12*z^3) / (1 - 1.2*z + 0.36*z^2)"
        assert lines[1:] == ["1 0", "2 0.04", "3 0.168", "4 0.1872", "5 0.16416"]

    def test_defective_passage_warns_but_prints(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n0.5,0.5\n")
        assert run(["passage", "--matrix", str(path), "--from", "1", "--to", "2",
                    "--order", "2", "--terms", "2"]) == cli.EXIT_DEFECTIVE
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["(0) / (1)", "1 0", "2 0"]
        assert "probability 0 < 1" in captured.err

    def test_system_is_solved_once(self, paper_file, monkeypatch):
        pairs, eliminations = [], []
        real_pair, real_kernel = solver.solve_pair, exact._bareiss

        def counted_pair(P, i, j, **kw):
            pairs.append((i, j))
            return real_pair(P, i, j, **kw)

        def counted_kernel(aug, forward=False):
            eliminations.append((len(aug), forward))
            return real_kernel(aug, forward)

        monkeypatch.setattr(moments, "solve_pair", counted_pair)
        for module in (exact, solver):
            monkeypatch.setattr(module, "_bareiss", counted_kernel)
        assert run(["passage", "--matrix", paper_file, "--from", "1", "--to", "3",
                    "--order", "3"]) == 0
        # one pair solve: one forward elimination of the 3 x 3 matrix I - wA
        assert pairs == [(1, 3)]
        assert eliminations == [(3, True)]

    def test_impossible_return_makes_the_law_defective(self, tmp_path, capsys):
        # 1 reaches 2 surely in one step, but 2 never returns to itself
        path = tmp_path / "c.csv"
        path.write_text("0,1,0\n0,0,1\n0,0,1\n")
        assert run(["passage", "--matrix", str(path), "--from", "1", "--to", "2",
                    "--order", "2", "--terms", "2"]) == cli.EXIT_DEFECTIVE
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["(0) / (1)", "1 0", "2 0"]
        assert "reached 2 times from 1 with probability 0 < 1" in captured.err
        assert run(["passage", "--matrix", str(path), "--from", "1", "--to", "2",
                    "--order", "1", "--terms", "2"]) == 0

    def test_pgf_past_the_int_digit_limit(self, tiny_file, capsys):
        assert run(["passage", "--matrix", tiny_file, "--from", "1", "--to", "2",
                    "--order", "90", "--terms", "1", "--exact"]) == 0
        pgf, pmf = capsys.readouterr().out.splitlines()
        assert max(map(len, re.findall(r"\d+", pgf))) > 4300
        oracle = rth_passage_oracle(parse_matrix(TINY_CSV), 1, 2, 90, 1)
        assert pmf == f"1 {oracle[0]}"

    def test_bad_order(self, paper_file):
        assert run(["passage", "--matrix", paper_file, "--from", "1", "--to", "3",
                    "--order", "0"]) == cli.EXIT_PARSE_ERROR


class TestCheckCommand:
    def test_given_matrix_passes(self, paper_file, capsys):
        assert run(["check", "--matrix", paper_file, "--terms", "15"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_seeded_random_corpus_passes(self, capsys):
        assert run(["check", "--terms", "10", "--seed", "42", "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS 5")

    @pytest.mark.parametrize("option, value", [
        ("--count", "-3"), ("--count", "0"), ("--max-states", "1")])
    def test_empty_corpus_rejected(self, option, value, capsys):
        assert run(["check", option, value]) == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err

    def test_seed_is_reproducible(self):
        rng_a = cli.random.Random(7)
        rng_b = cli.random.Random(7)
        a = cli.random_stochastic_matrix(rng_a, 4)
        b = cli.random_stochastic_matrix(rng_b, 4)
        assert a == b

    def test_mismatch_is_fatal(self, paper_file, capsys, monkeypatch):
        real = cli.solve_all_for_target

        def corrupted(P, j):
            out = dict(real(P, j))
            bad = out[1]
            wrong = RationalFunction(Polynomial([0, 1]))
            out[1] = type(bad)(source=bad.source, target=bad.target, pgf=wrong,
                               reach_mass=bad.reach_mass, defective=bad.defective)
            return out

        monkeypatch.setattr(cli, "solve_all_for_target", corrupted)
        assert run(["check", "--matrix", paper_file, "--terms", "5"]) \
            == cli.EXIT_CHECK_FAILED
        assert capsys.readouterr().out.startswith("FAIL")


class TestErrorsAndOptions:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.4\n0.5,0.5\n")
        assert run(["pgf", "--matrix", str(path), "--from", "1", "--to", "2"]) \
            == cli.EXIT_PARSE_ERROR
        assert "row 1 sums" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["pgf", "--matrix", "/nonexistent.csv", "--from", "1",
                    "--to", "2"]) == cli.EXIT_PARSE_ERROR

    def test_normalize_rows_flag(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("2,2\n1,3\n")
        assert run(["pgf", "--matrix", str(path), "--from", "1", "--to", "2",
                    "--normalize-rows"]) == 0
        captured = capsys.readouterr()
        assert "rescaled" in captured.err
        assert captured.out.strip() == "(0.5*z) / (1 - 0.5*z)"

    def test_defective_pgf_warns_but_prints(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("1,0\n0.5,0.5\n")
        assert run(["pgf", "--matrix", str(path), "--from", "1", "--to", "2"]) \
            == cli.EXIT_DEFECTIVE
        captured = capsys.readouterr()
        assert captured.out.strip() == "(0) / (1)"
        assert "defective" in captured.err

    def test_json_input(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"n": 2, "rows": [[0.5, 0.5], [1, 0]]}')
        assert run(["series", "--matrix", str(path), "--from", "2",
                    "--to", "1", "--terms", "2"]) == 0
        assert capsys.readouterr().out == "1 1\n2 0\n"


class TestCaps:
    """An option or a matrix past its cap exits 2 before any work, with a
    message that names the cap; the cap itself is accepted."""

    @pytest.fixture
    def one_state(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1\n")
        return str(path)

    @staticmethod
    def identity_file(tmp_path, n):
        path = tmp_path / f"identity{n}.csv"
        path.write_text("".join(",".join("1" if i == k else "0" for k in range(n)) + "\n"
                                for i in range(n)))
        return str(path)

    @pytest.mark.parametrize("argv, cap", [
        (["series", "--from", "1", "--to", "1", "--terms"], "MAX_TERMS"),
        (["passage", "--from", "1", "--to", "1", "--terms"], "MAX_TERMS"),
        (["passage", "--from", "1", "--to", "1", "--order"], "MAX_ORDER"),
        (["check", "--terms"], "MAX_TERMS"),
    ])
    def test_option_past_its_cap(self, one_state, capsys, argv, cap):
        limit = getattr(cli, cap)
        assert run(argv[:1] + ["--matrix", one_state] + argv[1:] + [str(limit)]) \
            in (cli.EXIT_OK, cli.EXIT_DEFECTIVE)
        capsys.readouterr()
        assert run(argv[:1] + ["--matrix", one_state] + argv[1:] + [str(limit + 1)]) \
            == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{argv[-1]} must be <= {limit} ({cap})" in captured.err

    def test_check_max_states_past_its_cap(self, capsys):
        assert run(["check", "--max-states", str(cli.MAX_CHECK_STATES + 1)]) \
            == cli.EXIT_PARSE_ERROR
        assert "MAX_CHECK_STATES" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cap", [
        (["pgf", "--from", "1", "--to", "2"], "MAX_STATES"),
        (["check", "--terms", "1"], "MAX_CHECK_STATES"),
    ])
    def test_matrix_past_its_cap(self, tmp_path, capsys, command, cap):
        limit = getattr(cli, cap)
        ok = run([command[0], "--matrix", self.identity_file(tmp_path, limit)] + command[1:])
        assert ok in (cli.EXIT_OK, cli.EXIT_DEFECTIVE)
        capsys.readouterr()
        assert run([command[0], "--matrix", self.identity_file(tmp_path, limit + 1)]
                   + command[1:]) == cli.EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the matrix has {limit + 1} states; at most {limit} are allowed ({cap})" \
            in captured.err


class TestParserReuse:
    """main() parses with one parser per process, and each call still starts
    from a fresh namespace."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_parser_is_built_once(self, builds, paper_file, capsys):
        for _ in range(3):
            assert run(["pgf", "--matrix", paper_file, "--from", "1", "--to", "3"]) == 0
        assert len(builds) == 1
        assert cli.build_parser() is not cli.build_parser()

    def test_exact_does_not_carry_over(self, builds, paper_file, capsys):
        argv = ["pgf", "--matrix", paper_file, "--from", "3", "--to", "3"]
        assert run(argv + ["--exact"]) == 0
        assert run(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "(1/10*z + 3/10*z^2) / (1 - 3/5*z)", "(0.1*z + 0.3*z^2) / (1 - 0.6*z)"]
        assert len(builds) == 1

    def test_normalize_rows_does_not_carry_over(self, builds, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("0.5,0.25\n0.5,0.5\n")
        argv = ["pgf", "--matrix", str(path), "--from", "1", "--to", "2"]
        assert run(argv + ["--normalize-rows"]) == 0
        capsys.readouterr()
        assert run(argv) == cli.EXIT_PARSE_ERROR
        assert "row 1 sums to 3/4, expected 1" in capsys.readouterr().err
        assert len(builds) == 1

    def test_usage_error_does_not_break_the_next_call(self, builds, paper_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["pgf", "--matrix", paper_file, "--from", "x", "--to", "3"])
        assert exc.value.code == 2
        assert run(["pgf", "--matrix", paper_file, "--from", "1", "--to", "3"]) == 0
        assert capsys.readouterr().out == "(0.4*z) / (1 - 0.6*z)\n"
        assert len(builds) == 1


class TestBadMatrixInput:
    """Malformed matrix files exit with EXIT_PARSE_ERROR, never a traceback
    or exit 1 (which belongs to `check`)."""

    @pytest.mark.parametrize("text, message", [
        pytest.param('{"rows": [[null]]}', "not an exact number", id="null-entry"),
        pytest.param('{"rows": 5}', "rows must be a list", id="rows-not-list"),
        pytest.param('{"rows": [["1"]], "labels": 7}', "labels must be a list",
                     id="labels-not-list"),
        pytest.param('{"rows": [[true]]}', "not an exact number", id="true-entry"),
        pytest.param('{"rows": [[0.5, 0.5], [false, true]]}', "not an exact number",
                     id="false-entry"),
        pytest.param('{"rows": [[0.5, 0.5], [1, 0]], "labels": "ab"}',
                     "labels must be a list", id="labels-string"),
        pytest.param('{"n": true, "rows": [[1]]}', "declared n", id="n-true"),
        pytest.param('{"rows": [[1e999999999]]}', "exponent", id="json-huge-exponent"),
        pytest.param("1e-999999999,1\n0,1\n", "exponent", id="csv-huge-exponent"),
    ])
    def test_exits_with_parse_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert run(["pgf", "--matrix", str(path), "--from", "1", "--to", "1"]) \
            == cli.EXIT_PARSE_ERROR
        assert message in capsys.readouterr().err
