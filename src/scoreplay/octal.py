"""Heap games ruled by removal digits, scored by per-removal point awards.

A ruleset pairs each removal size k with an octal digit and a rational
award.  Digit bits say what may remain of the heap afterwards: 1 - nothing
(the move took the whole heap), 2 - a single smaller heap, 4 - two nonempty
heaps.  The evaluator computes the first player's optimal score differential
with both players maximizing what they collect.
"""

from __future__ import annotations

__all__ = [
    "RulesError", "UnknownRulesetError", "BudgetExceededError", "ExpansionLimitError",
    "OctalRules", "subtraction_rules", "standard_nim", "PRESETS", "parse_rules_document",
    "rules_from_name", "resolve_rules_ref", "Position", "parse_position", "render_position",
    "MoveOutcome", "legal_moves", "GrundySolver", "iter_heap_multisets",
]

import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, partial
from operator import sub
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from scoreplay.games import Game, Score, _post_order, as_score, format_score, parse_score

_ZERO = Fraction(0)


class RulesError(ValueError):
    """Malformed or inconsistent ruleset definition."""


class UnknownRulesetError(RulesError):
    """A position referenced a ruleset id that is not loaded."""


class BudgetExceededError(RuntimeError):
    """The evaluator hit its position-count budget."""


class ExpansionLimitError(RuntimeError):
    """A position was too large to expand into an explicit game tree."""


_BAD_NAME_RE = re.compile(r"[\s,@|]")


@dataclass(frozen=True)
class OctalRules:
    """Digits and point awards for one heap game.

    ``digits[k-1]`` governs removing k beans, ``points[k-1]`` is the award.
    Digits above 7 would allow splits into three or more heaps and are
    rejected; 0..7 covers take-and-break into at most two heaps.
    """

    name: str
    digits: tuple[int, ...]
    points: tuple[Score, ...]

    def __post_init__(self):
        if not self.name or _BAD_NAME_RE.search(self.name):
            raise RulesError(
                f"ruleset name must be nonempty without spaces, commas, '@' or '|': {self.name!r}"
            )
        digits = tuple(int(d) for d in self.digits)
        points = tuple(as_score(p) for p in self.points)
        if not digits:
            raise RulesError("digit list must be nonempty")
        if len(digits) != len(points):
            raise RulesError(f"{len(digits)} digits but {len(points)} point entries")
        bad = [d for d in digits if d < 0 or d > 7]
        if bad:
            raise RulesError(f"digits must lie in 0..7, got {bad}")
        if not any(digits):
            raise RulesError("at least one digit must be nonzero")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "points", points)

    @property
    def splits_heaps(self) -> bool:
        """True when some digit allows breaking a heap in two."""
        return any(d & 4 for d in self.digits)

    @property
    def digest(self) -> str:
        payload = "{}|{}|{}".format(
            self.name,
            ",".join(map(str, self.digits)),
            ",".join(map(format_score, self.points)),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


_MAX_TAKE = 2**20  # largest removal a generated ruleset allows


def subtraction_rules(amounts: Iterable[int]) -> OctalRules:
    """Remove exactly s beans for s in the set; the mover scores s points.

    Named ``sub45`` while every amount is below 10, else ``sub-1-10``.
    An amount above ``2**20`` is refused: the rules hold one digit per size.
    """
    cleaned = sorted(set(int(a) for a in amounts))
    if not cleaned or cleaned[0] < 1:
        raise RulesError(f"subtraction amounts must be positive integers: {cleaned}")
    top = cleaned[-1]
    if top > _MAX_TAKE:
        raise RulesError(f"subtraction amount {top} is above the limit {_MAX_TAKE}")
    joiner = "" if top <= 9 else "-"
    name = "sub" + "".join(joiner + str(a) for a in cleaned)
    digits = tuple(3 if k in cleaned else 0 for k in range(1, top + 1))
    points = tuple(Fraction(k) if k in cleaned else _ZERO for k in range(1, top + 1))
    return OctalRules(name, digits, points)


def standard_nim(max_take: int) -> OctalRules:
    """Take any number of beans up to ``max_take``, at most ``2**20``, one point per bean."""
    if max_take < 1:
        raise RulesError("max_take must be at least 1")
    if max_take > _MAX_TAKE:
        raise RulesError(f"max_take {max_take} is above the limit {_MAX_TAKE}")
    return OctalRules(
        f"nim{max_take}",
        tuple(3 for _ in range(max_take)),
        tuple(Fraction(k) for k in range(1, max_take + 1)),
    )


PRESETS = {r.name: r for r in (
    OctalRules("o3333p2", (3, 3, 3, 3), (2, 2, 2, 2)),
    OctalRules("o26", (2, 6), (1, 2)),
)}


def _tokens(value: str) -> list[str]:
    stripped = value.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        stripped = stripped[1:-1]
    return [tok for tok in re.split(r"[,\s]+", stripped) if tok]


def parse_rules_document(text: str) -> OctalRules:
    """Parse a ``name:/digits:/points:`` rules document.

    One ruleset per document; ``#`` starts a comment and ``;`` works as a
    line break so documents can be passed inline.
    """
    entries: dict[str, str] = {}
    for raw in text.replace(";", "\n").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise RulesError(f"malformed rules line (expected 'key: value'): {raw.strip()!r}")
        key = key.strip().lower()
        if key in entries:
            raise RulesError(f"duplicate rules field {key!r}")
        entries[key] = value.strip()
    keys = {field.name for field in fields(OctalRules)}
    unknown = sorted(set(entries) - keys)
    if unknown:
        raise RulesError(f"unknown rules fields: {', '.join(unknown)}")
    missing = sorted(keys - set(entries))
    if missing:
        raise RulesError(f"missing rules fields: {', '.join(missing)}")
    try:
        digits = tuple(int(tok) for tok in _tokens(entries["digits"]))
    except ValueError as exc:
        raise RulesError(f"bad digit in rules document: {exc}") from None
    points = tuple(parse_score(tok) for tok in _tokens(entries["points"]))
    return OctalRules(entries["name"], digits, points)


def rules_from_name(name: str) -> OctalRules | None:
    """The ruleset named ``name``: a preset, or a generated name like ``sub45``, ``sub-1-10`` or ``nim9``.

    Any other spelling of a set, such as ``sub54``, names no ruleset.
    """
    match = re.fullmatch(r"nim(\d+)|sub([1-9]+)|sub((?:-\d+)+)", name)
    if match is None:
        return PRESETS.get(name)
    nim, run, dashed = match.groups()
    rules = standard_nim(int(nim)) if nim else subtraction_rules(run or dashed.split("-")[1:])
    return rules if rules.name == name else None


def resolve_rules_ref(ref: str) -> OctalRules:
    """Resolve a rules reference to a ruleset.

    Tries, in order: an existing file path, ``sub:4,5`` / ``nim:9``
    shorthand, a preset or generated name, an inline document.
    """
    ref = ref.strip()
    if not ref:
        raise RulesError("empty rules reference")
    if os.path.isfile(ref):
        with open(ref, "r", encoding="utf-8") as handle:
            return parse_rules_document(handle.read())
    if ref.startswith("sub:"):
        try:
            amounts = [int(tok) for tok in _tokens(ref[4:])]
        except ValueError:
            raise RulesError(f"bad subtraction amounts in {ref!r}") from None
        return subtraction_rules(amounts)
    if ref.startswith("nim:"):
        try:
            max_take = int(ref[4:])
        except ValueError:
            raise RulesError(f"bad heap bound in {ref!r}") from None
        return standard_nim(max_take)
    named = rules_from_name(ref)
    if named is not None:
        return named
    if ":" in ref:
        return parse_rules_document(ref)
    raise RulesError(f"cannot resolve rules reference {ref!r}")


class Position(tuple):
    """A multiset of heaps: the sorted tuple of its ``(ruleset id, size)`` pairs.

    Zero-size heaps are dropped, so equal multisets always compare equal.
    Heaps under different rulesets may share one position.  A position
    hashes and compares as its heap tuple, and only the constructor
    canonicalizes.
    """

    __slots__ = ()

    def __new__(cls, heaps: Iterable[tuple[str, int]] = ()) -> Position:
        cleaned = []
        for ruleset, size in heaps:
            size = int(size)
            if size < 0:
                raise ValueError(f"heap size cannot be negative: {size}")
            if size:
                cleaned.append((str(ruleset), size))
        return super().__new__(cls, sorted(cleaned))

    def __repr__(self) -> str:
        return f"Position({tuple(self)!r})"

    @property
    def total(self) -> int:
        return sum(size for _, size in self)

    def add_heap(self, ruleset: str, size: int) -> Position:
        return Position(self + ((ruleset, size),))


def parse_position(text: str, known: Collection[str] | None = None) -> Position:
    """Parse ``size@ruleset`` terms separated by commas; ``-`` is empty.

    When exactly one ruleset is known, a bare size is accepted.  Unknown
    ruleset ids raise when ``known`` is given.
    """
    stripped = text.strip()
    if stripped in ("", "-"):
        return Position()
    heaps = []
    for index, term in enumerate(stripped.split(","), start=1):
        term = term.strip()
        match = re.fullmatch(r"(\d+)\s*@\s*(\S+)", term)
        if match:
            digits, name = match.groups()
        elif re.fullmatch(r"\d+", term) and known is not None and len(known) == 1:
            digits, name = term, next(iter(known))
        else:
            raise ValueError(f"bad heap term {term!r}; expected size@ruleset")
        try:
            size = int(digits)
        except ValueError:  # more digits than int() converts
            raise ValueError(
                f"size of heap term {index} has more than {sys.get_int_max_str_digits()} digits"
            ) from None
        if known is not None and name not in known:
            raise UnknownRulesetError(f"position references unknown ruleset {name!r}")
        heaps.append((name, size))
    return Position(heaps)


def render_position(position: Position) -> str:
    """Canonical literal for a position; the empty position renders as ``-``."""
    if not position:
        return "-"
    return ",".join(f"{size}@{name}" for name, size in position)


class MoveOutcome(NamedTuple):
    """One legal move: the points awarded to the mover and the position left."""

    points: Score
    next: Position


def _require_position(position) -> None:
    if not isinstance(position, Position):
        raise TypeError(f"expected a Position, got {type(position).__name__}")


def _next_moves(
    position: Position,
    rules: Mapping[str, OctalRules],
    awards: Mapping[str, Sequence],
    limit: int | None = None,
) -> list | None:
    """All distinct ``(award, next position)`` pairs from a position, sorted.

    ``awards[name][k-1]`` is the award for removing k beans from a heap of
    ruleset ``name``, in whatever units the caller counts points.  The
    heaps are canonical already, so each next position is sorted here and
    built once, without the constructor's checks.  Anything but a
    :class:`Position` is refused: a plain tuple may not be canonical.

    Distinct moves reach distinct positions: the heaps left say which heap
    was taken from, how many beans and how it split.  With a ``limit``,
    returns None once the moves provably number more than ``limit``, so one
    huge heap is refused before its splits are built.
    """
    _require_position(position)
    make = tuple.__new__
    found = set()
    for index, (ruleset_id, size) in enumerate(position):
        if index and position[index - 1] == (ruleset_id, size):
            continue  # an equal heap has the same moves
        ruleset = rules.get(ruleset_id)
        if ruleset is None:
            raise UnknownRulesetError(f"position references unknown ruleset {ruleset_id!r}")
        others = position[:index] + position[index + 1 :]
        for take, (digit, award) in enumerate(zip(ruleset.digits[:size], awards[ruleset_id]), start=1):
            rest = size - take
            if digit & 1 and rest == 0:
                found.add((award, make(Position, others)))
            if digit & 2 and rest:
                found.add((award, make(Position, sorted(others + ((ruleset_id, rest),)))))
            if digit & 4:
                if limit is not None and len(found) + rest // 2 > limit:
                    return None  # the splits below are new and distinct
                for small in range(1, rest // 2 + 1):
                    found.add((award, make(Position, sorted(others + ((ruleset_id, small), (ruleset_id, rest - small))))))
            if limit is not None and len(found) > limit:
                return None
    return sorted(found)


def legal_moves(position: Position, rules: OctalRules | Iterable[OctalRules]) -> list[MoveOutcome]:
    """All distinct moves from a position, in canonical order.

    Moves that award the same points and reach the same position are merged,
    e.g. taking either of two equal heaps.
    """
    rules = _normalize_rules(rules)
    points = {name: ruleset.points for name, ruleset in rules.items()}
    return [MoveOutcome(*move) for move in _next_moves(position, rules, points)]


class GrundySolver:
    """Memoized evaluator for the first player's optimal score differential.

    ``rules`` is one ruleset or an iterable of them.  The value of a
    position is the best over all moves of the award minus the value of the
    position left behind; positions without moves are worth zero.  One memo
    table serves every query, so sweeps share work.  The ``budget`` is
    cumulative per solver, not per query: it caps the memo and the sweep
    tables together.  None means no cap; a negative budget is refused.  A
    position with more moves than the budget has room for is refused
    before its moves are built, as every one of them would be held.
    Not thread-safe: give each worker its own solver (values do not depend
    on evaluation order).

    The solver computes in ints: every award, value and running score is
    kept multiplied by ``scale``, the LCM of the award denominators over all
    loaded rulesets, which is exact.  Each ruleset's awards are scaled once,
    when the solver is built.  Many values come back as those ints:
    :meth:`sweep` returns each value times ``scale``.  One value or move
    comes back as a Fraction: :meth:`value`, :meth:`best_moves` and the
    scores of :meth:`to_game`, one Fraction per distinct value.
    :meth:`to_game` generates each position's moves once and expands one
    node per class of positions and running score; it and :meth:`value`
    each drop a position's moves as soon as they are done with them.
    """

    def __init__(self, rules: OctalRules | Iterable[OctalRules], budget: int | None = None):
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        self.rules = _normalize_rules(rules)
        self.budget = budget
        self.scale = math.lcm(*(p.denominator for r in self.rules.values() for p in r.points))
        self._awards = {
            name: tuple(p.numerator * self.scale // p.denominator for p in r.points)
            for name, r in self.rules.items()
        }
        self._values: dict[Position, int] = {}
        # single-heap values of non-splitting rulesets (see sweep)
        self._tables: dict[str, list[int]] = {}
        # to_game's expansion: each position's class id, each class's id by
        # its shape and its shape by id, and one node per class and running score
        self._class_of: dict[Position, int] = {}
        self._class_ids: dict[frozenset[tuple[int, int]], int] = {}
        self._class_moves: list[frozenset[tuple[int, int]]] = []
        self._games: dict[tuple[int, int], Game] = {}
        # a scaled int x as Fraction(x, scale), built once per x
        self._as_fraction = cache(partial(Fraction, denominator=self.scale))

    @property
    def positions_evaluated(self) -> int:
        """Positions memoized by :meth:`value`, plus single-heap table entries."""
        return len(self._values) + sum(map(len, self._tables.values()))

    def clear_cache(self) -> None:
        self._values.clear()
        self._tables.clear()
        self._class_of.clear()
        self._class_ids.clear()
        self._class_moves.clear()
        self._games.clear()
        self._as_fraction.cache_clear()

    def value(self, position: Position) -> Score:
        """Optimal score differential for the player to move."""
        return self._as_fraction(self._scaled_value(position))

    def _scaled_value(self, position: Position) -> int:
        values = self._values
        budget = self.budget
        rules, awards = self.rules, self._awards
        tabled = sum(map(len, self._tables.values()))  # the tables do not change in here
        # Every next position of a position is valued before it, so a
        # position with more than ``budget - tabled`` moves exceeds the
        # budget anyway: it is refused before its moves are built.
        room = None if budget is None else budget - tabled
        # each list lives only until its position is valued: keeping them
        # all would hold every move of every position reached
        pending_moves: dict[Position, list[tuple[int, Position]]] = {}

        def next_positions(pos: Position) -> list[Position]:
            moves = pending_moves[pos] = _next_moves(pos, rules, awards, room)
            if moves is None or budget is not None and tabled + len(values) + len(pending_moves) > budget:
                raise self._budget_error(position)
            return [nxt for _, nxt in moves]

        for pos in _post_order(position, values, next_positions):
            values[pos] = max((award - values[nxt] for award, nxt in pending_moves.pop(pos)), default=0)
        return values[position]

    def best_moves(self, position: Position) -> list[MoveOutcome]:
        """Moves achieving the optimal value, in canonical order."""
        moves = _next_moves(position, self.rules, self._awards)
        if not moves:
            raise ValueError(f"no legal moves from {render_position(position)}")
        results = [award - self._scaled_value(nxt) for award, nxt in moves]
        best = max(results)
        as_fraction = self._as_fraction
        return [
            MoveOutcome(as_fraction(award), nxt)
            for (award, nxt), result in zip(moves, results)
            if result == best
        ]

    def sweep(self, max_n: int, var: str | None = None, base: Position = Position()) -> list[int]:
        """Values of ``base`` plus one growing heap, for sizes 0..max_n, each times ``scale``.

        Entry n is an int, the value times :attr:`scale`, so
        ``Fraction(entry, solver.scale)`` is the exact value; equal values
        are equal ints.  Entry 0 is the value of the base alone.  Work
        persists across entries and across sweeps.

        With an empty base and a ruleset that never splits a heap, every
        position reached is a single heap of that ruleset, so the sweep runs
        the recurrence ``v[n] = max(points[k] - v[n - k])`` over a flat table
        of scaled ints.  The table is kept per ruleset, a longer sweep
        extends it, and it counts toward ``positions_evaluated`` and the
        budget.  Every other sweep evaluates each entry as :meth:`value`
        does.  The values are the same either way.
        """
        _require_position(base)
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        var = self._resolve_var(var)
        rules = self.rules[var]
        if base or rules.splits_heaps:
            return [self._scaled_value(base.add_heap(var, n)) for n in range(max_n + 1)]
        return self._single_heap_table(rules, max_n)[: max_n + 1]

    def _single_heap_table(self, rules: OctalRules, max_n: int) -> list[int]:
        """Scaled values of single heaps 0..max_n or more, extending the table."""
        table = self._tables.setdefault(rules.name, [])
        stop = max_n + 1
        if self.budget is not None:
            # the entry that would take the count past the budget is not computed
            stop = min(stop, len(table) + max(self.budget - self.positions_evaluated, 0))
        digits = rules.digits
        awards = self._awards[rules.name]
        keeps = [(take, awards[take - 1]) for take, d in enumerate(digits, start=1) if d & 2]
        for n in range(len(table), min(stop, len(digits) + 1)):
            options = [award - table[n - take] for take, award in keeps if take < n]
            if n and digits[n - 1] & 1:
                options.append(awards[n - 1])  # take the whole heap; nothing is left
            table.append(max(options, default=0))
        # past len(digits) beans every move leaves a heap, and table[-take] is v[n - take]
        if keeps:
            kept_awards = [award for _, award in keeps]
            back = [-take for take, _ in keeps]
            entry = table.__getitem__
            for _ in range(len(table), stop):
                table.append(max(map(sub, kept_awards, map(entry, back))))
        else:  # no move leaves a heap, so these heaps have no move at all
            table.extend([0] * (stop - len(table)))
        if len(table) <= max_n:
            raise self._budget_error(Position(((rules.name, len(table)),)))
        return table

    def _budget_error(self, position: Position) -> BudgetExceededError:
        return BudgetExceededError(
            f"position budget exceeded ({self.budget} positions) "
            f"evaluating {render_position(position)}"
        )

    def to_game(self, position: Position, max_total: int = 16) -> Game:
        """Expand the full play tree as an explicit game, root score zero.

        Left's awards add to the running score and Right's subtract, so the
        final scores of the expansion match the evaluator's value and its
        negation.  ``max_total`` bounds the beans in play; the budget does
        not apply here.

        Nodes are keyed by a position's class and the running score.  A
        class is interned from a position's shape, the set of ``(award,
        class of next position)`` over its moves, so dead heaps and heaps
        with the same moves fall into one class.  Each key is one node and
        each node one key, by induction on the longest play from a class:

        - Two positions of one class expand to the same node at every
          running score s.  Both nodes score s, and their left options are
          the nodes of the same ``(award, class)`` pairs at ``s + award``,
          which are equal by induction; the right options likewise.
        - Two different keys expand to different nodes.  A node's score is
          its running score, so keys with different scores give different
          nodes.  At one score s, each left option scores ``s + award``,
          which gives back its award, and by induction the option gives
          back its class.  So a node at s gives back its shape, hence its
          class.
        """
        _require_position(position)
        if position.total > max_total:
            raise ExpansionLimitError(
                f"position has {position.total} beans, expansion bound is {max_total}"
            )
        root = self._classify(position)
        games = self._games
        class_moves = self._class_moves
        as_fraction = self._as_fraction

        def options(key: tuple[int, int]) -> list[tuple[int, int]]:
            cls, offset = key
            return [(nxt, offset + sign * award) for award, nxt in class_moves[cls] for sign in (1, -1)]

        for key in _post_order((root, 0), games, options):
            cls, offset = key
            moves = class_moves[cls]
            games[key] = Game(
                as_fraction(offset),
                [games[nxt, offset + award] for award, nxt in moves],
                [games[nxt, offset - award] for award, nxt in moves],
            )
        return games[root, 0]

    def _classify(self, position: Position) -> int:
        """The class id of ``position``, after classing every position under it.

        Each position's moves are generated once, and dropped as soon as
        its class is known.
        """
        class_of, class_ids, class_moves = self._class_of, self._class_ids, self._class_moves
        rules, awards = self.rules, self._awards
        pending_moves: dict[Position, list[tuple[int, Position]]] = {}

        def next_positions(pos: Position) -> list[Position]:
            moves = pending_moves[pos] = _next_moves(pos, rules, awards)
            return [nxt for _, nxt in moves]

        for pos in _post_order(position, class_of, next_positions):
            shape = frozenset([(award, class_of[nxt]) for award, nxt in pending_moves.pop(pos)])
            cls = class_of[pos] = class_ids.setdefault(shape, len(class_ids))
            if cls == len(class_moves):
                class_moves.append(shape)
        return class_of[position]

    def _resolve_var(self, var: str | None) -> str:
        if var is None:
            if len(self.rules) != 1:
                raise ValueError("several rulesets loaded; specify which heap varies")
            return next(iter(self.rules))
        if var not in self.rules:
            raise UnknownRulesetError(f"unknown ruleset {var!r}")
        return var


def _normalize_rules(rules: OctalRules | Iterable[OctalRules]) -> dict[str, OctalRules]:
    """One ruleset or an iterable of them, keyed by name."""
    if isinstance(rules, OctalRules):
        rules = (rules,)
    out: dict[str, OctalRules] = {}
    for item in rules:
        if not isinstance(item, OctalRules):
            raise TypeError(f"expected OctalRules, got {type(item).__name__}")
        if item.name in out and out[item.name] != item:
            raise RulesError(f"conflicting rulesets named {item.name!r}")
        out[item.name] = item
    if not out:
        raise RulesError("no rulesets given")
    return out


def iter_heap_multisets(max_total: int) -> Iterator[tuple[int, ...]]:
    """Every multiset of positive heap sizes with total at most ``max_total``.

    Yields weakly decreasing tuples, the empty one first; deterministic
    order.  A negative ``max_total`` is refused before anything is yielded.
    """
    if max_total < 0:
        raise ValueError("max_total must be nonnegative")

    def parts(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        yield ()
        for first in range(min(remaining, cap), 0, -1):
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    return parts(max_total, max_total)
