"""Seeded inputs and output checks for the benchmark workloads.

Each workload turns a seed into a batch: a list of argument lists for
``scoreplay.cli.main`` and a checker for the batch's captured results.
The program only ever sees the generated arguments.  A checker returns
``(attempted, failed)`` counted in the workload's own items; a call whose
exit status is wrong fails every item it was meant to produce.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# (exit status or None when main raised, captured stdout)
CallResult = tuple[int | None, str]


@dataclass(frozen=True)
class Batch:
    argvs: list[list[str]]
    check: Callable[[list[CallResult]], tuple[int, int]]


# ---------------------------------------------------------------------------
# family_scan: every subtraction set over {1..7}, swept to n=500

FAMILY_CSV = HERE / "expected" / "family_scan.csv"
# Frozen from the first benchmarked commit; every row is ok, certified and
# not a counterexample.
FAMILY_CSV_SHA256 = "a5d14ee067b3fd9daa103d24866bbdfa0d1ed46c08e3b75ce129c3e09aee35db"
FAMILY_CALLS = 16
_FAMILY_SETS = [c for k in range(1, 8) for c in itertools.combinations(range(1, 8), k)]


def family_scan(seed: int, workdir: Path) -> Batch:
    # The 127 sets are dealt in seed-shuffled order into 16 scan specs of
    # `instance:` lines.  Scan instances are independent, so the 16 calls
    # sweep what one scan of `subtraction-family: 1-7` sweeps, and each call
    # is short enough to be timed against the reference loop around it.  The
    # seed also sets each spec's `seed:` line and the order of each set's
    # elements, neither of which changes a row.
    rng = random.Random(seed)
    sets = list(_FAMILY_SETS)
    rng.shuffle(sets)
    argvs, names = [], []
    for call in range(FAMILY_CALLS):
        chunk = sets[call::FAMILY_CALLS]
        lines = [f"seed: {seed}", "max-n: 500"]
        for amounts in chunk:
            spelled = list(amounts)
            rng.shuffle(spelled)
            lines.append("instance: sub:" + ",".join(map(str, spelled)))
        spec = workdir / f"family_scan-seed{seed}-{call:02d}.spec"
        spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argvs.append(["scan", "--spec", str(spec)])
        names.append(sorted("sub" + "".join(map(str, amounts)) for amounts in chunk))
    return Batch(argvs, lambda results: check_family_scan(names, results))


def check_family_scan(names: list[list[str]], results: list[CallResult]) -> tuple[int, int]:
    """Each call must print the header and exactly its instances' frozen rows,
    sorted by name; a wrong row fails, and so does every row of a call with
    a wrong exit status, header, or extra, repeated or reordered rows."""
    expected_text = FAMILY_CSV.read_text(encoding="utf-8")
    if hashlib.sha256(expected_text.encode("utf-8")).hexdigest() != FAMILY_CSV_SHA256:
        raise RuntimeError(f"{FAMILY_CSV} does not match its frozen sha256")
    header, *rows = expected_text.splitlines()
    frozen = {row.split(",", 1)[0]: row for row in rows}
    failed = 0
    for chunk, (code, out) in zip(names, results, strict=True):
        lines = out.splitlines()
        if code != 0 or not lines or lines[0] != header:
            failed += len(chunk)
            continue
        got = {line.split(",", 1)[0]: line for line in lines[1:]}
        wrong = sum(got.get(name) != frozen[name] for name in chunk)
        if wrong == 0 and out != "\n".join([header] + [frozen[name] for name in chunk]) + "\n":
            wrong = len(chunk)
        failed += wrong
    return len(rows), failed


# ---------------------------------------------------------------------------
# heap_oracle: evaluator against expanded trees on the 33 criterion-4 rulesets

ORACLE_MAX_TOTAL = 11
_SUBSETS = [c for k in range(1, 6) for c in itertools.combinations(range(1, 6), k)]


def heap_oracle(seed: int, workdir: Path) -> Batch:
    # One oracle call per ruleset, so the batch is timed in short calls; the
    # oracle checks each ruleset on its own, so this is the work of a single
    # call over all 33.  The seed picks how each ruleset is spelled and the
    # call order; every seed does the same work.
    rng = random.Random(seed)
    calls = []  # (name the oracle reports, spelling passed to it)
    for subset in _SUBSETS:
        name = "sub" + "".join(map(str, subset))
        if rng.random() < 0.5:
            calls.append((name, name))
        else:
            shuffled = list(subset)
            rng.shuffle(shuffled)
            calls.append((name, "sub:" + ",".join(map(str, shuffled))))
    calls += [("o3333p2", "o3333p2"), ("o26", "o26")]
    rng.shuffle(calls)
    argvs = [["oracle", f"--rules={ref}", "--max-total", str(ORACLE_MAX_TOTAL)] for _, ref in calls]
    names = [name for name, _ in calls]
    return Batch(argvs, lambda results: check_heap_oracle(names, results))


def _multiset_count(max_total: int) -> int:
    """Number of heap multisets with total at most ``max_total``."""
    ways = [1] + [0] * max_total  # partitions of each total
    for part in range(1, max_total + 1):
        for total in range(part, max_total + 1):
            ways[total] += ways[total - part]
    return sum(ways)


def check_heap_oracle(names: list[str], results: list[CallResult]) -> tuple[int, int]:
    """A call without exactly its ruleset's passing summary and verdict fails
    all of that ruleset's positions."""
    per_ruleset = _multiset_count(ORACLE_MAX_TOTAL)
    failed = 0
    for name, (code, out) in zip(names, results, strict=True):
        want = f"ruleset {name}: positions={per_ruleset} pass\noracle: pass (rulesets=1, positions={per_ruleset})\n"
        failed += per_ruleset * (code != 0 or out != want)
    return per_ruleset * len(names), failed


# ---------------------------------------------------------------------------
# game_algebra: random impartial games, alone and summed with the identity

ALGEBRA_GAMES = 60
IDENTITY = "{{0|0|0}|0|{0|0|0}}"
# Tree shapes come from this fixed stream and scores from the run's seed, so
# every seed does the same amount of tree work.
_SHAPE_SEED = 20120221

# A game is (score, left options, right options).
Tree = tuple[Fraction, list, list]


def random_impartial(shapes: random.Random, scores: random.Random, depth: int = 4,
                     branch: int = 3, bound: int = 4) -> Tree:
    """Impartial at every node: each right option mirrors a left option
    about the node's score, as in ``scoreplay.games.generate_impartial``."""

    def score() -> Fraction:
        den = scores.choice((1, 1, 2, 3))
        return Fraction(scores.randint(-bound * den, bound * den), den)

    def mirror(node: Tree, about: Fraction) -> Tree:
        s, left, right = node
        return (2 * about - s, [mirror(c, about) for c in right], [mirror(c, about) for c in left])

    def build(level: int) -> Tree:
        s = score()
        width = shapes.randint(0, branch) if level > 0 else 0
        left = [build(level - 1) for _ in range(width)]
        return (s, left, [mirror(option, s) for option in left])

    return build(depth)


def format_score(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def game_text(node: Tree) -> str:
    s, left, right = node
    if not left and not right:
        return format_score(s)
    return "{" + ",".join(map(game_text, left)) + "|" + format_score(s) + "|" + ",".join(map(game_text, right)) + "}"


def final_scores(node: Tree) -> tuple[Fraction, Fraction]:
    """Minimax final scores (Left first, Right first), computed independently."""
    s, left, right = node
    sl = max(final_scores(c)[1] for c in left) if left else s
    sr = min(final_scores(c)[0] for c in right) if right else s
    return sl, sr


def outcome(sl: Fraction, sr: Fraction) -> str:
    a = (sl > 0) - (sl < 0)
    b = (sr > 0) - (sr < 0)
    if a >= 0 and b >= 0:
        return "Tie" if a == b == 0 else "L"
    if a <= 0 and b <= 0:
        return "R"
    return "N" if a > 0 else "P"


def eval_line(sl: Fraction, sr: Fraction) -> str:
    return f"sl={format_score(sl)} sr={format_score(sr)} outcome={outcome(sl, sr)} impartial=true"


def game_algebra(seed: int, workdir: Path) -> Batch:
    shapes, scores = random.Random(_SHAPE_SEED), random.Random(seed)
    trees = [random_impartial(shapes, scores) for _ in range(ALGEBRA_GAMES)]
    argvs = []
    for tree in trees:
        # --game=TEXT, because argparse reads "--game -3/2" as a missing value
        text = game_text(tree)
        argvs.append(["eval", f"--game={text}"])
        argvs.append(["sum", f"--game={text}", f"--game={IDENTITY}", "--eval"])
    expected = [eval_line(*final_scores(tree)) for tree in trees]
    return Batch(argvs, lambda results: check_game_algebra(expected, results))


def check_game_algebra(expected: list[str], results: list[CallResult]) -> tuple[int, int]:
    """The paper's neutrality check: G and G+I have the same final scores,
    and both are impartial."""
    failed = 0
    for i, want in enumerate(expected):
        (eval_code, eval_out), (sum_code, sum_out) = results[2 * i], results[2 * i + 1]
        sum_lines = sum_out.splitlines()
        ok = (
            eval_code == 0
            and sum_code == 0
            and eval_out.splitlines() == [want]
            and len(sum_lines) == 2
            and sum_lines[0].startswith("{")
            and sum_lines[1] == want
        )
        failed += not ok
    return len(expected), failed


WORKLOADS: dict[str, Callable[[int, Path], Batch]] = {
    "family_scan": family_scan,
    "heap_oracle": heap_oracle,
    "game_algebra": game_algebra,
}
