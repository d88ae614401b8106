"""Shared helpers for the test suite.

The minimax oracle here is deliberately independent of the library's
evaluator: straight recursion over option lists, no shared caches, so the
two implementations can check each other.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from hypothesis import strategies as st

from scoreplay.games import Game, number
from scoreplay.octal import OctalRules


# Depth at which two sibling chains that differ only at the leaf can no
# longer be ordered.  3.10 and 3.11 count the C comparisons, two per game
# level, against sys.getrecursionlimit() (1,000); 3.12 gives them a C
# recursion limit of their own (1,500 in 3.12.1), so it needs far more.
ALIKE_TOO_DEEP = 500 if sys.version_info < (3, 12) else 10_000


def naive_final_scores(game: Game, memo: dict | None = None) -> tuple[Fraction, Fraction]:
    """(Left-first, Right-first) final scores by direct recursion."""
    if memo is None:
        memo = {}
    cached = memo.get(game)
    if cached is not None:
        return cached
    if game.left:
        sl = max(naive_final_scores(option, memo)[1] for option in game.left)
    else:
        sl = game.score
    if game.right:
        sr = min(naive_final_scores(option, memo)[0] for option in game.right)
    else:
        sr = game.score
    memo[game] = (sl, sr)
    return sl, sr


def naive_sl(game: Game) -> Fraction:
    return naive_final_scores(game)[0]


def naive_sr(game: Game) -> Fraction:
    return naive_final_scores(game)[1]


def greedy_nim_value(heaps) -> Fraction:
    """Alternating sum of the heap sizes in descending order.

    The value of scoring nim where each move empties the largest heap:
    the first player takes the biggest heap, the opponent the next, and
    so on, so sizes alternate sign from largest to smallest.
    """
    total = Fraction(0)
    for index, size in enumerate(sorted(heaps, reverse=True)):
        total += size if index % 2 == 0 else -size
    return total


scores = st.one_of(
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from([2, 3, 4])),
)


def _shallow_games(children):
    options = st.lists(children, max_size=3).map(tuple)
    return st.builds(Game, scores, options, options)


games = st.recursive(scores.map(number), _shallow_games, max_leaves=12)


# Fractional and negative point awards, some of them common edge values.
awards = st.one_of(
    st.sampled_from([Fraction(-7, 2), Fraction(1, 3), Fraction(0)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
# Rulesets named "h" whose digits never split a heap: emptying-only and
# surviving moves, with the awards above.
non_splitting_rules = st.lists(
    st.tuples(st.integers(0, 3), awards), min_size=1, max_size=6
).filter(lambda moves: any(d for d, _ in moves)).map(
    lambda moves: OctalRules("h", [d for d, _ in moves], [p for _, p in moves])
)
