#!/usr/bin/env python3
"""Benchmark of the fpt command line, driven in-process.

    python3 bench/run.py --workload pgf-large --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all

One client calls `fpt.cli.main(argv)` in a closed loop (the next call starts
when the previous one returns), in one process and one thread, on a corpus
generated from --seed.  Every output is checked by bench/checks.py, and the
outputs of a fixed warm-up corpus at seed 0 must hash to the digest recorded
in bench/digests.json.  See bench/README.md for the workloads and metrics.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced replay.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  It exits 2
without a result when fpt cannot be imported from src/ next to bench/.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 0
# Per-operation time cap.  The slowest operation of the corpus takes about
# 1 s at most on the seed code; a call that runs past the cap counts as
# failed and the run goes on.
CAP_S = 15.0
# The warm-up replays these many rounds at DEFAULT_SEED before timing (the
# first pass runs slow) and hashes them against bench/digests.json.
WARMUP_ROUNDS = {"pgf-large": 2, "rth-passage": 2, "small-requests": 3}
# The measured ops run PASSES times, seconds apart, and each op counts its
# fastest pass: the host slows down in bursts and in phases of seconds, and
# the fastest of spread-out repeats is the steadiest estimate of an op's cost.
# pgf-large makes fewer, longer passes: its calls last long enough to average
# out short bursts, and a run needs more of its costly rounds to average
# over chains.
PASSES = {"pgf-large": 3, "rth-passage": 4, "small-requests": 4}
# Host speed.  The host runs faster or slower in phases of seconds to
# minutes, and the fast times of all CPU-bound code rise and fall together.
# So a fixed loop of Fraction arithmetic is timed between the measured
# calls, and each call's time is scaled by REFERENCE_CAL_S over the tenth
# percentile of the loop's times within CAL_WINDOW_S of the call: the
# end-to-end times read as on a host where the loop takes REFERENCE_CAL_S.
CAL_TERMS = 400
CAL_EVERY_S = 0.1
CAL_BATCH = 3
CAL_WINDOW_S = 1.5
REFERENCE_CAL_S = 1.2e-3
# set-up launches per sample point; set-up is sampled before, between and
# after the passes, and each launch times SETUP_CAL_LOOPS calibration loops
# after the import and scales by the second fastest
SETUP_LAUNCHES = 2
SETUP_CAL_LOOPS = 10
# Past this many seconds after the start, a run starts no more calls and
# counts the rest as failed, so that a slowed-down program still gets a
# result, inside the 180 s a run may take.
RUN_BUDGET_S = 120.0
DIGESTS = HERE / "digests.json"
OK_EXIT_CODES = (0, 4)


class OpTimeout(BaseException):
    """Raised by SIGALRM inside a call that exceeds CAP_S.  A BaseException,
    so that the CLI's own error handlers cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


@dataclass
class Phase:
    """Timings, failures and output hashes of the calls of one phase.  It
    keeps no ops or outputs, so the harness does not grow with the number
    of calls a faster program makes."""
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    outputs: List[bytes] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    rounds: int = 0
    deadline: float = math.inf
    # with calibrate set, the start time of each call and the (time,
    # seconds) samples of the calibration loop
    calibrate: bool = False
    starts: List[float] = field(default_factory=list)
    calibrations: List[Tuple[float, float]] = field(default_factory=list)

    def tick(self) -> None:
        """Time a batch of the calibration loop, if one is due."""
        if self.calibrate and (not self.calibrations
                               or perf_counter() - self.calibrations[-1][0] >= CAL_EVERY_S):
            for _ in range(CAL_BATCH):
                self.calibrations.append((perf_counter(), calibration_loop()))

    def scaled(self) -> List[float]:
        """Each call's time at the reference host speed."""
        times = [t for t, _ in self.calibrations]
        loops = [c for _, c in self.calibrations]
        out = []
        for start, latency in zip(self.starts, self.latencies):
            lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(times, start + latency + CAL_WINDOW_S)
            near = sorted(loops[lo:hi] or loops)
            out.append(latency * REFERENCE_CAL_S / near[len(near) // 10])
        return out

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def calibration_loop() -> float:
    """Seconds taken by a fixed sum of Fractions."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, CAL_TERMS):
        total += Fraction(1, i)
    return perf_counter() - t0


def execute(main: Callable, op: corpus.Op, cap: float = CAP_S) -> Tuple[float, Optional[int], str, Optional[str]]:
    """Call main(argv) with stdout captured and a time cap.

    Returns (seconds, exit code, stdout, error), error being None unless
    the call raised, ran past the cap or gave an exit code other than 0/4.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except OpTimeout:
        error = f"ran past the {cap:g} s cap"
    except SystemExit as exc:
        error = f"exited with {exc.code!r}: {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # any crash of the program is a failed op
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if error is None and rc not in OK_EXIT_CODES:
        error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    return elapsed, rc, out.getvalue(), error


def run_ops(main: Callable, ops: Iterable[corpus.Op], phase: Phase,
            tracer: Optional[Tracer] = None, expected: Optional[List[bytes]] = None) -> None:
    """Run each op and record it in phase.  Its output is checked against
    the oracles or, given the output hashes of an earlier pass over the same
    ops, must hash the same.  Checking is not timed."""
    for op in ops:
        idx = len(phase.latencies)
        phase.starts.append(perf_counter())
        if perf_counter() < phase.deadline:
            elapsed, rc, out, error = execute(main, op)
        else:
            elapsed, rc, out, error = CAP_S, None, "", "not run: the run's time budget is spent"
        if tracer is not None:
            tracer.end_op()
        record = json.dumps([op.digest_argv(), rc, out]).encode()
        output = hashlib.sha256(record).digest()
        if error is None:
            if expected is None:
                error = checks.check(op, rc, out)
            elif output != expected[idx]:
                error = "output differs from the first pass"
        phase.latencies.append(elapsed)
        phase.outputs.append(output)
        phase.digest.update(record + b"\n")
        if error is not None:
            phase.failures.append(f"{' '.join(op.digest_argv())}: {error}")
        phase.tick()


def first_pass(main: Callable, stream, seconds: float, deadline: float,
               calibrate: bool = False) -> Phase:
    """Whole rounds until the calls have taken `seconds`."""
    phase = Phase(deadline=deadline, calibrate=calibrate)
    while phase.busy < seconds and perf_counter() < deadline:
        run_ops(main, next(stream), phase)
        phase.rounds += 1
    return phase


def replay(main: Callable, stream, earlier: Phase, tracer: Optional[Tracer] = None) -> Phase:
    """The calls of `earlier` again, from a fresh stream of the same
    workload and seed."""
    phase = Phase(deadline=earlier.deadline, calibrate=earlier.calibrate)
    for ops in islice(stream, earlier.rounds):
        run_ops(main, ops, phase, tracer, expected=earlier.outputs)
    return phase


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_cli():
    """fpt.cli from src/ next to bench/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import fpt.cli as cli
    except ImportError as exc:
        die(f"cannot import fpt from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        die(f"fpt was imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(launches: int) -> List[float]:
    """Seconds to `import fpt.cli` in fresh interpreters, one per launch,
    each scaled to the reference host speed by the calibration loop timed
    in the same interpreter right after the import."""
    code = ("import sys, time\nt = time.perf_counter()\nimport fpt.cli\n"
            "seconds = time.perf_counter() - t\n"
            f"sys.path.insert(0, {str(HERE)!r})\nfrom run import calibration_loop\n"
            f"loops = sorted(calibration_loop() for _ in range({SETUP_CAL_LOOPS}))\n"
            "print(seconds)\nprint(loops[1])\nprint(fpt.cli.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, loop, path = proc.stdout.split("\n")[:3]
        if not Path(path).resolve().is_relative_to(SRC):
            die(f"the set-up launch imported {path}")
        times.append(float(seconds) * REFERENCE_CAL_S / float(loop))
    return times


def recorded_digest(workload: str) -> Optional[str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]]) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def bench_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    deadline = perf_counter() + RUN_BUDGET_S
    cli = load_cli()
    setup: List[float] = []
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        if not trace:
            measure_setup(1)  # writes the bytecode caches; not counted
            setup += measure_setup(SETUP_LAUNCHES)
        warm = Phase(deadline=deadline)
        run_ops(cli.main, [op for rnd in islice(corpus.rounds(workload, DEFAULT_SEED, workdir),
                                                 WARMUP_ROUNDS[workload]) for op in rnd], warm)
        digest, want = warm.digest.hexdigest(), recorded_digest(workload)
        gc.collect()

        def stream():
            return corpus.rounds(workload, seed, workdir)

        if not trace:
            passes = [first_pass(cli.main, stream(), seconds / PASSES[workload], deadline,
                                 calibrate=True)]
            for _ in range(PASSES[workload] - 1):
                setup += measure_setup(SETUP_LAUNCHES)
                passes.append(replay(cli.main, stream(), passes[0]))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup += measure_setup(SETUP_LAUNCHES)
            phases = [warm, *passes]
        else:
            # an untraced pass, then the same ops again under the tracer
            plain = first_pass(cli.main, stream(), seconds / 2, deadline)
            tracer = Tracer()
            tracer.install()
            try:
                # look cli.main up at each call, so that its wrapper is used
                traced = replay(lambda argv: cli.main(argv), stream(), plain, tracer)
            finally:
                tracer.uninstall()
            phases = [warm, plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    print(f"workload {workload}, seed {seed}: {attempted} ops checked "
          f"({len(warm.latencies)} warm-up at seed {DEFAULT_SEED}), {len(failures)} failed")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    if digest == want:
        print(f"warm-up digest {digest[:16]} matches")
    else:
        print(f"warm-up digest mismatch: got {digest}, recorded {want}")
    correct = not failures and digest == want

    if not trace:
        best = [min(times) for times in zip(*(p.scaled() for p in passes))]
        raw = [min(times) for times in zip(*(p.latencies for p in passes))]
        loops = sorted(c for p in passes for _, c in p.calibrations)
        n = len(best)
        runs = n * len(passes)
        failed = sum(len(p.failures) for p in passes)
        metrics = {
            "throughput_ops_s": (n / sum(best), "ops/s"),
            "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "latency_p90_ms": (percentile(best, 90) * 1e3, "ms"),
            "ok_ratio": (1 - failed / runs, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        counts = {"ok_ratio": f"{runs} calls", "peak_rss_mb": "1 process",
                  "setup_s": f"{len(setup)} launches"}
        for name, (value, unit) in metrics.items():
            count = counts.get(name, f"{n} ops, fastest of {len(passes)} passes")
            print(f"  {name:18} {value:12.6g} {unit:6} (n={count})")
        print(f"  {'failed_ratio':18} {failed / runs:12.6g} {'ratio':6} (n={runs} calls)")
        print(f"  unscaled: {len(raw) / sum(raw):.6g} ops/s, p50 {statistics.median(raw) * 1e3:.6g} ms, "
              f"p90 {percentile(raw, 90) * 1e3:.6g} ms; calibration loop tenth percentile "
              f"{loops[len(loops) // 10] * 1e3:.4g} ms, median {statistics.median(loops) * 1e3:.4g} ms "
              f"(n={len(loops)})")
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (traced.busy / plain.busy, "ratio")
        root = metrics["cli.main.total_s"][0] or 1.0
        print(f"  traced {tracer.ops} ops; overhead ratio "
              f"{metrics['trace.overhead_ratio'][0]:.4f}; self time share of cli.main:")
        absent = tracer.absent_layers()
        for name in sorted(tracer.stats, key=lambda k: -metrics[f"{k}.self_s"][0]):
            if name in absent:
                print(f"    {name:32} absent")
                continue
            print(f"    {name:32} {100 * metrics[f'{name}.self_s'][0] / root:6.2f}%  "
                  f"calls/op {metrics[f'{name}.calls'][0]:9.3f}")
    emit(correct, attempted, len(failures), metrics)


def bench_all(seed: int, seconds: float, trace: bool) -> None:
    """Every workload, each in its own fresh process."""
    combined: Dict[str, Tuple[float, str]] = {}
    correct, attempted, failed = True, 0, 0
    for workload in corpus.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            die(f"workload {workload} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            combined[f"{workload}.{name}"] = (m["value"], m["unit"])
    emit(correct, attempted, failed, combined)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="least time the calls of the measured passes add up to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        bench_all(args.seed, args.seconds, bool(args.trace))
    else:
        bench_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
