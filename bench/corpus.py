"""Seeded input corpus for the fpt CLI benchmark.

The corpus is generated here and written to matrix files here, without
calling into fpt, so that it does not move when the library changes.  The
program under test receives only the files and the argv lists.

A workload is an endless stream of rounds.  Every round has the same shape
(chain sizes, orders, and commands but for pgf-large's pick between two of
equal cost); only the random entries and the (source, target) pairs change
with the seed, so runs of different seeds do comparable work.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

Rows = Tuple[Tuple[Fraction, ...], ...]

# The worked example of the paper; passage 1 -> 3 carries the 1 + z/10
# factor that canonicalisation must cancel.
PAPER_ROWS: Rows = tuple(tuple(Fraction(x) for x in row.split(","))
                         for row in (".2,.4,.4", ".3,.3,.4", ".5,.4,.1"))

EXTENSIONS = {"csv": "csv", "whitespace": "txt", "json": "json"}
FORMATS = tuple(EXTENSIONS)


def random_chain(rng: random.Random, n: int) -> Rows:
    """Rows of integer weights randint(0, 6) scaled to sum 1.

    Zero weights are common, so reducible chains and defective targets
    occur; an all-zero row gets a single weight of 1.
    """
    rows = []
    for _ in range(n):
        weights = [rng.randint(0, 6) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return tuple(rows)


def tenths_chain(rng: random.Random, n: int) -> Rows:
    """Rows in tenths: ten units, each put on a random entry of the row.

    Every row has denominator 10, as in the paper chain, so the coefficient
    sizes, and with them the cost of a high-order passage call, vary far
    less between chains than with randint(0, 6) weights: at order 8 most
    calls fall within a factor of 3 of each other, instead of 30.  Zero
    entries still occur.
    """
    rows = []
    for _ in range(n):
        units = [0] * n
        for _ in range(10):
            units[rng.randrange(n)] += 1
        rows.append(tuple(Fraction(u, 10) for u in units))
    return tuple(rows)


def _entry(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_text(rows: Rows, fmt: str) -> str:
    """Matrix file text in one of the formats the CLI reads."""
    if fmt == "csv":
        return "".join(",".join(_entry(x) for x in row) + "\n" for row in rows)
    if fmt == "whitespace":
        return "".join(" ".join(_entry(x) for x in row) + "\n" for row in rows)
    if fmt == "json":
        return json.dumps({"n": len(rows),
                           "rows": [[_entry(x) for x in row] for row in rows]}) + "\n"
    raise ValueError(f"unknown matrix format {fmt!r}")


@dataclass(frozen=True)
class Chain:
    rows: Rows
    path: str

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Op:
    """One CLI call.  Fields other than argv are what the checks need."""
    kind: str
    chain: Chain
    argv: Tuple[str, ...]
    source: Optional[int] = None
    target: Optional[int] = None
    terms: Optional[int] = None
    order: Optional[int] = None
    exact: bool = False

    def digest_argv(self) -> List[str]:
        """argv with the matrix path reduced to its file name, so that the
        digest does not depend on where the corpus was written."""
        return [os.path.basename(a) if a == self.chain.path else a for a in self.argv]


def make_op(kind: str, chain: Chain, source: Optional[int] = None,
            target: Optional[int] = None, terms: Optional[int] = None,
            order: Optional[int] = None, exact: bool = False) -> Op:
    argv = [kind, "--matrix", chain.path]
    if source is not None:
        argv += ["--from", str(source)]
    if target is not None:
        argv += ["--to", str(target)]
    if order is not None:
        argv += ["--order", str(order)]
    if terms is not None:
        argv += ["--terms", str(terms)]
    if exact:
        argv.append("--exact")
    return Op(kind, chain, tuple(argv), source, target, terms, order, exact)


Writer = Callable[[Rows, str], Chain]


def _pair(rng: random.Random, n: int) -> Tuple[int, int]:
    return rng.randint(1, n), rng.randint(1, n)


def pgf_large_round(rng: random.Random, write: Writer) -> List[Op]:
    """pgf --exact or series --terms 25 on one chain of each size 8..12.

    Both commands cost the same elimination, so every round has the same
    cost profile, and a round is short enough that a pass of whole rounds
    ends close to its time target.
    """
    sizes = list(range(8, 13))
    rng.shuffle(sizes)
    ops = []
    for n in sizes:
        chain = write(random_chain(rng, n), rng.choice(FORMATS))
        s, t = _pair(rng, n)
        if rng.random() < 0.5:
            ops.append(make_op("pgf", chain, s, t, exact=True))
        else:
            ops.append(make_op("series", chain, s, t, terms=25))
    return ops


def rth_passage_round(rng: random.Random, write: Writer) -> List[Op]:
    """passage --terms 20 --exact at orders 1..8 twice, each on its own
    random 3-state chain in tenths, and at orders 1..16 on the paper chain
    from 1 to 3.

    At order 8 one random chain can cost several times another, so every
    call gets a fresh chain: a run then averages over many chains, and runs
    of different seeds do comparable work.
    """
    ops = []
    for r in [*range(1, 9), *range(1, 9)]:
        chain = write(tenths_chain(rng, 3), rng.choice(FORMATS))
        s, t = _pair(rng, 3)
        ops.append(make_op("passage", chain, s, t, terms=20, order=r, exact=True))
    paper = write(PAPER_ROWS, "csv")
    ops += [make_op("passage", paper, 1, 3, terms=20, order=r, exact=True)
            for r in range(1, 17)]
    return ops


def small_requests_round(rng: random.Random, write: Writer) -> List[Op]:
    """moments for every target on one chain of each size 3..10, alternating
    exact and decimal output, a series on the chains of size 6 (exact) and
    10 (decimal), one per 4 chains, and a check on the chain of size 5.

    The sizes that get a series or a check are fixed, so that every round
    costs about the same."""
    sizes = list(range(3, 11))
    rng.shuffle(sizes)
    ops = []
    for n in sizes:
        chain = write(random_chain(rng, n), rng.choice(FORMATS))
        ops += [make_op("moments", chain, target=j, exact=(j + n) % 2 == 0)
                for j in range(1, n + 1)]
        if n in (6, 10):
            s, t = _pair(rng, n)
            ops.append(make_op("series", chain, s, t, terms=10, exact=n == 6))
        if n == 5:
            ops.append(make_op("check", chain, terms=25))
    return ops


WORKLOADS = {
    "pgf-large": pgf_large_round,
    "rth-passage": rth_passage_round,
    "small-requests": small_requests_round,
}


def rounds(workload: str, seed: int, workdir: str) -> Iterator[List[Op]]:
    """Endless stream of rounds; each round's matrix files are written to
    workdir when the round is generated."""
    make_round = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    counter = 0

    def write(rows: Rows, fmt: str) -> Chain:
        nonlocal counter
        path = os.path.join(workdir, f"s{seed}-m{counter:05d}.{EXTENSIONS[fmt]}")
        counter += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(matrix_text(rows, fmt))
        return Chain(rows, path)

    while True:
        yield make_round(rng, write)
