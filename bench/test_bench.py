"""Self-tests of the benchmark: corpus determinism, the oracles, tracer
accounting and failure counting.

    PYTHONPATH=src python3 -m pytest bench
"""
import os
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

import fpt.cli  # noqa: E402
import fpt.exact  # noqa: E402
import fpt.markov  # noqa: E402
import fpt.solver  # noqa: E402

F = Fraction


def _rounds(workload, seed, workdir, count=2):
    workdir.mkdir()
    ops = [op for rnd in islice(corpus.rounds(workload, seed, str(workdir)), count)
           for op in rnd]
    files = {os.path.basename(op.chain.path): Path(op.chain.path).read_text() for op in ops}
    return [op.digest_argv() for op in ops], files


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_deterministic_per_seed(tmp_path, workload):
    first = _rounds(workload, 5, tmp_path / "a")
    assert first == _rounds(workload, 5, tmp_path / "b")
    assert first != _rounds(workload, 6, tmp_path / "c")


def test_oracle_reproduces_paper_chain():
    table = checks.first_passage(corpus.PAPER_ROWS, 3, 3)
    assert [row[0] for row in table[1:]] == [F("0.4"), F("0.24"), F("0.144")]
    rth = checks.rth_passage(corpus.PAPER_ROWS, 1, 3, 2, 3)
    assert list(rth[1][1:]) == [F("0.4"), F("0.24"), F("0.144")]
    # second visit: 1 -> 3 -> 3 at step 2, then the return paths of length 2
    assert rth[2][2] == F("0.4") * F("0.1")


def test_certainty_of_hitting():
    rows = ((F(1), F(0)), (F(1, 2), F(1, 2)))
    assert checks.certain(rows, 2) == (False, False)
    assert checks.certain(rows, 1) == (True, True)


def _paper_ops(tmp_path):
    path = tmp_path / "paper.csv"
    path.write_text(corpus.matrix_text(corpus.PAPER_ROWS, "csv"))
    chain = corpus.Chain(corpus.PAPER_ROWS, str(path))
    return [corpus.make_op("passage", chain, 1, 3, terms=6, order=3, exact=True),
            corpus.make_op("series", chain, 2, 3, terms=5),
            corpus.make_op("moments", chain, target=3),
            corpus.make_op("pgf", chain, 3, 3, exact=True)]


def test_checks_accept_the_program_and_count_corrupted_output(tmp_path):
    ops = _paper_ops(tmp_path)
    phase = run.Phase()
    run.run_ops(fpt.cli.main, ops, phase)
    assert phase.failures == []

    def corrupting_main(argv):
        rc = fpt.cli.main(argv)
        print("1 1/3")  # one extra, wrong pmf or moments line
        return rc

    phase = run.Phase()
    run.run_ops(corrupting_main, ops, phase)
    assert len(phase.failures) == len(ops)


def test_corrupted_digit_fails_the_check(tmp_path):
    op = _paper_ops(tmp_path)[1]
    _, rc, out, error = run.execute(fpt.cli.main, op)
    assert error is None and checks.check(op, rc, out) is None
    assert checks.check(op, rc, out.replace("0.144", "0.145")) is not None


def test_time_cap_counts_as_failed(tmp_path):
    op = _paper_ops(tmp_path)[0]

    def stuck_main(argv):
        time.sleep(5)
        return 0

    elapsed, rc, _, error = run.execute(stuck_main, op, cap=0.05)
    assert "cap" in error and elapsed < 1


def test_spent_run_budget_fails_the_remaining_calls(tmp_path):
    phase = run.Phase(deadline=0.0)
    run.run_ops(lambda argv: pytest.fail("called after the deadline"),
                _paper_ops(tmp_path), phase)
    assert len(phase.failures) == 4 and phase.busy == 4 * run.CAP_S


def test_tracer_self_times_add_up_and_originals_return(tmp_path):
    originals = (fpt.cli.main, fpt.solver.reach_vector, fpt.markov.reach_vector,
                 fpt.exact.RationalFunction.__init__)
    tracer = Tracer()
    phase = run.Phase()
    tracer.install()
    try:
        assert fpt.solver.reach_vector is not originals[1]
        run.run_ops(lambda argv: fpt.cli.main(argv), _paper_ops(tmp_path), phase, tracer)
    finally:
        tracer.uninstall()
    assert phase.failures == []
    assert (fpt.cli.main, fpt.solver.reach_vector, fpt.markov.reach_vector,
            fpt.exact.RationalFunction.__init__) == originals
    metrics = tracer.metrics()
    root = metrics["cli.main.total_s"][0]
    self_sum = sum(metrics[f"{name}.self_s"][0] for name in tracer.stats)
    # the only gap is the tracer's own counting, kept out of every self time
    assert root * 0.9 <= self_sum <= root * (1 + 1e-9)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["moments.rth_passage_pgf.calls"][0] > 0
    assert metrics["exact.poly_gcd.degree_cancelled"][0] > 0  # the 1 + z/10 factor
    assert tracer.absent_layers() == []


def test_tracer_reports_missing_names_as_absent():
    tracer = Tracer(layers=("cli.main", "exact.no_such_function", "no_such_module.f",
                            "exact.RationalFunction.no_such_method"))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_layers() == ["exact.no_such_function", "no_such_module.f",
                                      "exact.RationalFunction.no_such_method"]
    assert "exact.no_such_function.calls" in tracer.metrics()


def test_call_times_are_scaled_by_the_calibration_loop_nearby():
    ref = run.REFERENCE_CAL_S
    phase = run.Phase(calibrate=True, starts=[0.0, 100.0], latencies=[0.01, 0.02])
    # loops at the reference speed around the first call, twice as slow
    # around the second, which is too far away to see the first ones
    phase.calibrations = [(t, ref) for t in (0.0, 0.05)] + [(t, 2 * ref) for t in (100.0, 100.05)]
    assert phase.scaled() == pytest.approx([0.01, 0.01])
