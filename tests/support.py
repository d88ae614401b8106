"""Shared helpers for the test suite.

The minimax oracle, the move generator and the heap expansion here are
deliberately independent of the library's: straight recursion, no shared
caches, so the two implementations can check each other.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from hypothesis import strategies as st

from scoreplay.games import Game
from scoreplay.octal import MoveOutcome, OctalRules, Position, UnknownRulesetError


# int() refuses a decimal string longer than this many digits; 0 means no limit.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
NINES = "9" * 5000  # more digits than int() converts


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


def ref_replace_heap(position, heap, parts):
    heaps = list(position)
    heaps.remove(heap)
    heaps.extend((heap[0], part) for part in parts)
    return Position(tuple(heaps))


def ref_legal_moves(position, rules):
    """Move generation as it was written in Fraction points: a dict keyed
    on (points, heaps) merges equal moves, then a sort on that key."""
    by_name = {ruleset.name: ruleset for ruleset in rules}
    found = {}
    for heap in set(position):
        ruleset_id, size = heap
        ruleset = by_name.get(ruleset_id)
        if ruleset is None:
            raise UnknownRulesetError(f"position references unknown ruleset {ruleset_id!r}")
        for take in range(1, min(size, len(ruleset.digits)) + 1):
            digit = ruleset.digits[take - 1]
            award = ruleset.points[take - 1]
            rest = size - take
            parts = []
            if digit & 1 and rest == 0:
                parts.append(())
            if digit & 2 and rest >= 1:
                parts.append((rest,))
            if digit & 4 and rest >= 2:
                parts.extend((small, rest - small) for small in range(1, rest // 2 + 1))
            for split in parts:
                move = MoveOutcome(award, ref_replace_heap(position, heap, split))
                found[move.points, move.next] = move
    return [found[key] for key in sorted(found)]


def ref_to_game(position, rules) -> Game:
    """A position's play tree, one node per position and running score.

    Left's points add to the running score and Right's subtract, from zero
    at the root.  Recursion over :func:`ref_legal_moves`, with a memo only
    on (position, running score): no classes of positions.
    """
    memo = {}

    def expand(pos, score):
        key = (pos, score)
        if key not in memo:
            moves = ref_legal_moves(pos, rules)
            memo[key] = Game(
                score,
                [expand(move.next, score + move.points) for move in moves],
                [expand(move.next, score - move.points) for move in moves],
            )
        return memo[key]

    return expand(position, Fraction(0))


def first_repeated_window(values, span, start):
    """Smallest n >= start with ``values[n - span:n] == values[m - span:m]``
    for some m in start..n - 1, or None."""
    seen = set()
    for n in range(start, len(values) + 1):
        window = tuple(values[n - span : n])
        if window in seen:
            return n
        seen.add(window)
    return None


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


games = st.recursive(scores.map(Game), _shallow_games, max_leaves=12)


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
