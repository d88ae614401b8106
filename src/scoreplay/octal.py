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
    "MoveOutcome", "legal_moves", "SweepTable", "GrundySolver", "iter_heap_multisets",
]

import hashlib
import math
import operator
import os
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import islice
from operator import sub
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from scoreplay.games import _DIGITS, _INTEGER, Game, Score, _intern, _post_order, as_score, format_score, parse_score

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
    Digits are integers (``operator.index``, else TypeError) in 0..7, which
    covers take-and-break into at most two heaps; above 7 is rejected.
    """

    name: str
    digits: tuple[int, ...]
    points: tuple[Score, ...]

    def __post_init__(self):
        if not self.name or _BAD_NAME_RE.search(self.name):
            raise RulesError(
                f"ruleset name must be nonempty without spaces, commas, '@' or '|': {self.name!r}"
            )
        digits = tuple(map(operator.index, self.digits))
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

# A single-heap sweep hashes its lookback windows modulo this prime, then
# compares windows whose hashes match exactly; any modulus gives the same values.
_WINDOW_HASH_MODULUS = 2**61 - 1
_WINDOW_HASH_BASE = 1_000_003


def subtraction_rules(amounts: Iterable[int]) -> OctalRules:
    """Remove exactly s beans for s in the set; the mover scores s points.

    Named ``sub45`` while every amount is below 10, else ``sub-1-10``.
    Amounts are integers (``operator.index``, else TypeError); one above
    ``2**20`` is refused: the rules hold one digit per size.
    """
    taken = set(map(operator.index, amounts))
    cleaned = sorted(taken)
    if not cleaned or cleaned[0] < 1:
        raise RulesError(f"subtraction amounts must be positive integers: {cleaned}")
    top = cleaned[-1]
    if top > _MAX_TAKE:
        raise RulesError(f"subtraction amount {top} is above the limit {_MAX_TAKE}")
    joiner = "" if top <= 9 else "-"
    name = "sub" + "".join(joiner + str(a) for a in cleaned)
    digits = tuple(3 if k in taken else 0 for k in range(1, top + 1))
    points = tuple(Fraction(k) if k in taken else _ZERO for k in range(1, top + 1))
    return OctalRules(name, digits, points)


def standard_nim(max_take: int) -> OctalRules:
    """Take any number of beans up to ``max_take``, one point per bean.

    The bound is an integer (``operator.index``, else TypeError) from 1 to ``2**20``.
    """
    max_take = operator.index(max_take)
    if max_take < 1:
        raise RulesError("max_take must be at least 1")
    if max_take > _MAX_TAKE:
        raise RulesError(f"max_take {max_take} is above the limit {_MAX_TAKE}")
    points = tuple(Fraction(k) for k in range(1, max_take + 1))
    return OctalRules(f"nim{max_take}", (3,) * max_take, points)


PRESETS = {r.name: r for r in (
    OctalRules("o3333p2", (3, 3, 3, 3), (2, 2, 2, 2)),
    OctalRules("o26", (2, 6), (1, 2)),
)}


def _parse_int(token: str, what: str, shown: str, error: type[Exception] = ValueError) -> int:
    """An optional sign and ASCII digits as an int, else ``error``: ``bad {what} {shown}``.

    A digit string longer than int() converts is not echoed: its message
    is ``bad {what}: more than N digits``.
    """
    if not re.fullmatch(_INTEGER, token.strip()):
        raise error(f"bad {what} {shown}")
    try:
        return int(token)
    except ValueError:
        raise error(f"bad {what}: more than {sys.get_int_max_str_digits()} digits") from None


def _tokens(value: str) -> list[str]:
    stripped = value.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        stripped = stripped[1:-1]
    return [tok for tok in re.split(r"[,\s]+", stripped) if tok]


def _key_values(text: str, what: str, error: type[Exception] = ValueError) -> Iterator[tuple[int, str, str]]:
    """``(line number, lowercased key, value)`` of each ``key: value`` line; blank and ``#`` lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, sep, value = line.partition(":")
            if not sep:
                raise error(f"{what} line {lineno}: expected 'key: value', got {line!r}")
            yield lineno, key.strip().lower(), value.strip()


def parse_rules_document(text: str) -> OctalRules:
    """Parse a ``name:/digits:/points:`` rules document.

    One ruleset per document; ``#`` starts a comment and ``;`` works as a
    line break so documents can be passed inline.  A name that
    :func:`rules_from_name` resolves is refused unless the document holds
    that same ruleset, so a name names one ruleset.
    """
    entries: dict[str, str] = {}
    for _, key, value in _key_values(text.replace(";", "\n"), "rules document", RulesError):
        if key in entries:
            raise RulesError(f"duplicate rules field {key!r}")
        entries[key] = value
    keys = {field.name for field in fields(OctalRules)}
    unknown = sorted(set(entries) - keys)
    if unknown:
        raise RulesError(f"unknown rules fields: {', '.join(unknown)}")
    missing = sorted(keys - set(entries))
    if missing:
        raise RulesError(f"missing rules fields: {', '.join(missing)}")
    digits = tuple(_parse_int(tok, "digit in rules document", repr(tok), RulesError) for tok in _tokens(entries["digits"]))
    points = tuple(parse_score(tok) for tok in _tokens(entries["points"]))
    rules = OctalRules(entries["name"], digits, points)
    if rules_from_name(rules.name) not in (None, rules):
        raise RulesError(f"rules document claims the name {rules.name!r} of other rules")
    return rules


def rules_from_name(name: str) -> OctalRules | None:
    """The ruleset named ``name``: a preset, or a generated name like ``sub45``, ``sub-1-10`` or ``nim9``.

    Another spelling of a set (``sub54``) or a take the builders refuse (``nim0``) names no ruleset.
    """
    match = re.fullmatch(rf"nim({_DIGITS})|sub([1-9]+)|sub((?:-{_DIGITS})+)", name)
    if match is None:
        return PRESETS.get(name)
    nim, run, dashed = match.groups()
    try:  # int() refuses an over-long digit string, and the builders a zero or too large a take
        rules = standard_nim(int(nim)) if nim else subtraction_rules(map(int, run or dashed.split("-")[1:]))
    except ValueError:
        return None
    return rules if rules.name == name else None


def resolve_rules_ref(ref: str) -> OctalRules:
    """Resolve a rules reference to a ruleset.

    Tries, in order: ``sub:4,5`` / ``nim:9`` shorthand, a preset or generated
    name, a file path (``./sub45`` reads a file named sub45), an inline document.
    """
    ref = ref.strip()
    if not ref:
        raise RulesError("empty rules reference")
    if ref.startswith("sub:"):
        shown = f"in {ref!r}"
        return subtraction_rules(_parse_int(tok, "subtraction amounts", shown, RulesError) for tok in _tokens(ref[4:]))
    if ref.startswith("nim:"):
        return standard_nim(_parse_int(ref[4:], "heap bound", f"in {ref!r}", RulesError))
    named = rules_from_name(ref)
    if named is not None:
        return named
    if os.path.isfile(ref):
        with open(ref, "r", encoding="utf-8") as handle:
            return parse_rules_document(handle.read())
    if ":" in ref:
        return parse_rules_document(ref)
    raise RulesError(f"cannot resolve rules reference {ref!r}")


class Position(tuple):
    """A multiset of heaps: the sorted tuple of its ``(ruleset id, size)`` pairs.

    Sizes are integers (``operator.index``, else TypeError); zero-size heaps
    are dropped, so equal multisets always compare equal.  Heaps under
    different rulesets may share one position.  A position hashes and
    compares as its heap tuple, and only the constructor canonicalizes.
    """

    __slots__ = ()

    def __new__(cls, heaps: Iterable[tuple[str, int]] = ()) -> Position:
        cleaned = []
        for ruleset, size in heaps:
            size = operator.index(size)
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
        match = re.fullmatch(rf"({_DIGITS})(?:\s*@\s*(\S+))?", term)
        if match is None or match[2] is None and (known is None or len(known) != 1):
            raise ValueError(f"bad heap term {term!r}; expected size@ruleset")
        digits, name = match[1], match[2] or next(iter(known))
        size = _parse_int(digits, f"size of heap term {index}", repr(term))
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


def _require_position(position, rules: Collection[str]) -> None:
    """Refuse a non-Position and a heap of a ruleset not in ``rules``; a move
    keeps every heap's ruleset, so the root's check covers its whole walk."""
    if not isinstance(position, Position):
        raise TypeError(f"expected a Position, got {type(position).__name__}")
    for ruleset_id, _ in position:
        if ruleset_id not in rules:
            raise UnknownRulesetError(f"position references unknown ruleset {ruleset_id!r}")


def _next_moves(
    position: Position,
    rules: Mapping[str, OctalRules],
    awards: Mapping[str, Sequence],
    limit: int | None = None,
) -> list | None:
    """All distinct ``(award, next position)`` pairs from a position, sorted.

    ``awards[name][k-1]`` is the award for removing k beans from a heap of
    ruleset ``name``, in whatever units the caller counts points.  The
    entry points refuse anything but a :class:`Position` of known rulesets,
    so the heaps are canonical already: each next position is sorted here
    and built once, without the constructor's checks.

    Distinct moves reach distinct positions: the heaps left say which heap
    was taken from, how many beans and how it split.  With a ``limit``,
    returns None once the moves provably number more than ``limit``, so one
    huge heap is refused before its splits are built.
    """
    make = tuple.__new__
    found = set()
    for index, (ruleset_id, size) in enumerate(position):
        if index and position[index - 1] == (ruleset_id, size):
            continue  # an equal heap has the same moves
        ruleset = rules[ruleset_id]
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
    e.g. taking either of two equal heaps.  A plain tuple is refused.
    """
    rules = _normalize_rules(rules)
    _require_position(position, rules)
    points = {name: ruleset.points for name, ruleset in rules.items()}
    return [MoveOutcome(*move) for move in _next_moves(position, rules, points)]


class SweepTable(list):
    """A sweep's scaled values, as a list; ``proved`` is the ``(preperiod, period)``
    that the single-heap fill's repeated window proved, or None.

    It compares equal to the plain list of its values.
    """

    proved: tuple[int, int] | None = None


class _Fractions(dict):
    """``Fraction(x, scale)`` for each scaled int ``x``, built on its first lookup."""

    __slots__ = ("scale",)

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, x: int) -> Fraction:
        value = self[x] = Fraction(x, self.scale)
        return value


class GrundySolver:
    """Memoized evaluator for the first player's optimal score differential.

    ``rules`` is one ruleset or an iterable of them.  The value of a
    position is the best over all moves of the award minus the value of the
    position left behind; positions without moves are worth zero.  One memo
    serves every query, so queries share work.  The ``budget`` is
    cumulative per solver, not per query: it caps the memo plus the
    positions a walk is holding, or the table a sweep is building, and it
    bounds :meth:`to_game` as it bounds :meth:`value`.  None means no cap;
    otherwise the budget is an integer (``operator.index``, else
    TypeError), and a negative one is refused.  A position with more moves
    than the budget has room for is refused before its moves are built,
    as every one of them would be held.
    Not thread-safe: give each worker its own solver (values do not depend
    on evaluation order).

    The solver computes in ints: every award, value and running score is
    kept multiplied by ``scale``, the LCM of the award denominators over all
    loaded rulesets, which is exact.  Each ruleset's awards are scaled once,
    when the solver is built.  Many values come back as those ints:
    :meth:`sweep` returns each value times ``scale``.  One value or move
    comes back as a Fraction: :meth:`value`, :meth:`best_moves` and the
    scores of :meth:`to_game`, one Fraction per distinct value.

    :meth:`value` and :meth:`to_game` walk positions through one
    generator, which values each position it reaches and drops its moves
    as soon as the position is done.  :meth:`to_game` adds the position's
    class on top, so every classed position is valued: after
    :meth:`to_game`, :meth:`value` of any position it reached is a memo
    hit, and a caller of both in that order builds each position's moves
    once.  In the other order, :meth:`to_game` walks again the positions
    :meth:`value` did not class.  :meth:`to_game` expands one node per
    class of positions and running score; a class is its interned shape.
    Every entry point refuses anything but a :class:`Position` of loaded
    rulesets.
    """

    def __init__(self, rules: OctalRules | Iterable[OctalRules], budget: int | None = None):
        self.budget = budget if budget is None else operator.index(budget)
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        self.rules = _normalize_rules(rules)
        self.scale = math.lcm(*(p.denominator for r in self.rules.values() for p in r.points))
        self._awards = {
            name: tuple(p.numerator * self.scale // p.denominator for p in r.points)
            for name, r in self.rules.items()
        }
        self._values: dict[Position, int] = {}
        # to_game's expansion: each position's class, each class interned as
        # its shape, and one node per class and running score
        self._class_of: dict[Position, frozenset] = {}
        self._classes: dict[frozenset, frozenset] = {}
        self._games: dict[tuple[frozenset, int], Game] = {}
        self._as_fraction = _Fractions(self.scale)

    @property
    def positions_evaluated(self) -> int:
        """Positions in the value memo, which :meth:`value` and :meth:`to_game`
        both fill; a sweep's table is not kept."""
        return len(self._values)

    def value(self, position: Position) -> Score:
        """Optimal score differential for the player to move."""
        return self._as_fraction[self._scaled_value(position)]

    def _scaled_value(self, position: Position) -> int:
        _require_position(position, self.rules)
        for _ in self._expand(position, self._values):
            pass
        return self._values[position]

    def best_moves(self, position: Position) -> list[MoveOutcome]:
        """The legal moves that reach the position's value, in canonical order.

        Empty without moves.  Valuing the position first refuses one with
        more moves than the budget has room for before they are listed.
        """
        best = self.value(position)
        return [
            move for move in legal_moves(position, self.rules.values())
            if move.points - self.value(move.next) == best
        ]

    def _expand(
        self, root: Position, done: Collection[Position]
    ) -> Iterator[tuple[Position, list[tuple[int, Position]]]]:
        """``(position, moves)`` for each position under ``root`` not in ``done``, next positions first.

        Each position is valued into the memo before it is yielded, so
        ``done`` is the memo itself or a subset of it, and the caller adds
        each yielded position to ``done`` before asking for the next.  A
        position's moves are held only until it is yielded: keeping them
        all would hold every move of every position reached.

        The memo and the positions waiting on their next positions may
        number at most the budget, whichever ``done`` the walk skips on.
        Every next position of a position is valued before it, so a
        position with more moves than the budget exceeds it anyway, and it
        is refused before its moves are built.  A position valued but not
        in ``done`` counts twice while it waits, once in the memo.
        """
        rules, awards, values, room = self.rules, self._awards, self._values, self.budget
        pending: dict[Position, list[tuple[int, Position]]] = {}

        def next_positions(pos: Position) -> list[Position]:
            moves = pending[pos] = _next_moves(pos, rules, awards, room)
            if moves is None or room is not None and len(values) + len(pending) > room:
                raise self._budget_error(root)
            return [nxt for _, nxt in moves]

        for pos in _post_order(root, done, next_positions):
            moves = pending.pop(pos)
            values[pos] = max((award - values[nxt] for award, nxt in moves), default=0)
            yield pos, moves

    def sweep(self, max_n: int, var: str | None = None, base: Position = Position()) -> SweepTable:
        """Values of ``base`` plus one growing heap, for sizes 0..max_n, each times ``scale``.

        Entry n is an int, the value times :attr:`scale`, so
        ``Fraction(entry, solver.scale)`` is the exact value; equal values
        are equal ints.  Entry 0 is the value of the base alone.  ``max_n``
        is an integer (``operator.index``, else TypeError).

        With an empty base and a ruleset that never splits a heap, every
        position reached is a single heap of that ruleset, so the sweep runs
        the recurrence ``v[n] = max(points[k] - v[n - k])`` over a flat table
        of scaled ints.  Once the last f entries, f the digit count, equal
        an earlier such window, the rest of the table repeats the entries
        between the two windows, by the induction in
        :func:`scoreplay.periods.certify_period`.  That repeat is also the
        certificate of the heaps' eventual period: the returned table's
        ``proved`` is its ``(preperiod, period)``, which a scan row takes
        instead of searching the values again.  The table is the result
        and is not kept; while it is built it counts against the budget
        with the memo, so a table that cannot fit is refused before any
        entry is computed.  Every other sweep evaluates each entry as
        :meth:`value` does, and its ``proved`` is None.  The values are
        the same either way.
        """
        _require_position(base, self.rules)
        max_n = operator.index(max_n)
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        rules = _resolve_var(self.rules, var)
        var = rules.name
        if base or rules.splits_heaps:
            return SweepTable(self._scaled_value(base.add_heap(var, n)) for n in range(max_n + 1))
        held = len(self._values)
        if self.budget is not None and held + max_n + 1 > self.budget:
            raise self._budget_error(Position(((var, max(self.budget - held, 0)),)))
        return self._single_heap_table(rules, max_n)

    def _single_heap_table(self, rules: OctalRules, max_n: int) -> SweepTable:
        """Scaled values of single heaps 0..max_n, filled from a repeat as :meth:`sweep` says.

        Past the digit count f, Brent's cycle search compares the window of
        the last f entries with an anchor window, moved up at doubling
        distances: by a rolling hash, then exactly.  On the first exact
        match the table repeats the entries since the anchor.  Checking a
        window costs O(1) whatever f is, and the search holds two hashes.

        That match is the row's certificate, the table's ``proved`` pair;
        it stays None when no window repeats by ``max_n``.
        Past f every window is a fixed function of the one before, so
        windows run into a cycle, and an anchor that meets itself again
        lies on it: the distance λ is the cycle length, which is the least
        eventual period of the values.  The anchor window starts at
        s = anchor - f >= 1 and matches the window λ later, so by the
        induction in :func:`scoreplay.periods.certify_period` the period
        holds from s on; walking s down while v[s-1] = v[s-1+λ] gives the
        least preperiod.  :func:`scoreplay.periods.detect_certified_period`
        finds the same pair from the values, and stays as the fallback of a
        sweep without a repeat and as the oracle the tests check this against.
        """
        # a plain list while it is filled: appending to a list subclass is slower
        table: list[int] = []
        digits = rules.digits
        awards = self._awards[rules.name]
        keeps = [(take, awards[take - 1]) for take, d in enumerate(digits, start=1) if d & 2]
        for n in range(min(max_n, len(digits)) + 1):
            options = [award - table[n - take] for take, award in keeps if take < n]
            if n and digits[n - 1] & 1:
                options.append(awards[n - 1])  # take the whole heap; nothing is left
            table.append(max(options, default=0))
        if not keeps:  # no move leaves a heap, so these heaps have no move at all
            table.extend([0] * (max_n + 1 - len(table)))
        if len(table) > max_n:
            return SweepTable(table)
        # past len(digits) beans every move leaves a heap, and table[-take] is v[n - take]
        kept_awards = [award for _, award in keeps]
        back = [-take for take, _ in keeps]
        entry = table.__getitem__
        lookback = len(digits)
        modulus, base = _WINDOW_HASH_MODULUS, _WINDOW_HASH_BASE
        shift_out = pow(base, lookback, modulus)
        window = 0  # hash of the last lookback entries
        for value in table[-lookback:]:
            window = (window * base + value) % modulus
        # the entry that leaves the window as each entry comes in, read as the table grows
        leaving = islice(table, len(table) - lookback, None)
        stride = 1
        while len(table) <= max_n:
            anchor, anchor_window = len(table), window
            for old in islice(leaving, min(stride, max_n + 1 - anchor)):
                value = max(map(sub, kept_awards, map(entry, back)))
                window = (window * base + value - old * shift_out) % modulus
                table.append(value)
                if window == anchor_window and table[anchor - lookback : anchor] == table[-lookback:]:
                    period = len(table) - anchor
                    start = anchor - lookback
                    while start and table[start - 1] == table[start - 1 + period]:
                        start -= 1
                    block = table[anchor:]
                    whole, part = divmod(max_n + 1 - len(table), period)
                    table = SweepTable(table)
                    table.proved = (start, period)
                    table += block * whole
                    table += block[:part]
                    return table
            stride *= 2
        return SweepTable(table)

    def _budget_error(self, position: Position) -> BudgetExceededError:
        return BudgetExceededError(
            f"position budget exceeded ({self.budget} positions) "
            f"evaluating {render_position(position)}"
        )

    def to_game(self, position: Position, max_total: int = 16) -> Game:
        """Expand the full play tree as an explicit game, root score zero.

        Left's awards add to the running score and Right's subtract, so the
        final scores of the expansion match the evaluator's value and its
        negation.  ``max_total`` bounds the beans in play and is an integer
        (``operator.index``, else TypeError), checked first.  The walk that
        classes the positions values them too, so the budget bounds it as
        it bounds :meth:`value`, and what it holds counts in
        :attr:`positions_evaluated`; the nodes are not counted.

        Nodes are keyed by a position's class and the running score.  A
        class is a position's shape, interned: the set of ``(award, class
        of next position)`` over its moves, so dead heaps and heaps with
        the same moves fall into one class.  Each key is one node and
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
        _require_position(position, self.rules)
        if position.total > operator.index(max_total):
            raise ExpansionLimitError(
                f"position has {position.total} beans, expansion bound is {max_total}"
            )
        class_of, classes = self._class_of, self._classes
        for pos, moves in self._expand(position, class_of):
            shape = frozenset([(award, class_of[nxt]) for award, nxt in moves])
            class_of[pos] = classes.setdefault(shape, shape)
        root = class_of[position]
        games = self._games
        as_fraction = self._as_fraction

        def options(key: tuple[frozenset, int]) -> list[tuple[frozenset, int]]:
            cls, offset = key
            return [(nxt, offset + sign * award) for award, nxt in cls for sign in (1, -1)]

        for key in _post_order((root, 0), games, options):
            cls, offset = key
            score = as_fraction[offset]
            # distinct keys, so distinct nodes: each side is a set already
            games[key] = _intern(
                score.numerator,
                score.denominator,
                score,
                tuple(sorted([games[nxt, offset + award] for award, nxt in cls], key=id)),
                tuple(sorted([games[nxt, offset - award] for award, nxt in cls], key=id)),
            )
        return games[root, 0]


def _resolve_var(rules: Mapping[str, OctalRules], var: str | None) -> OctalRules:
    """The ruleset named ``var``, or the only one in ``rules`` when ``var`` is None."""
    if var is None:
        if len(rules) != 1:
            raise ValueError("several rulesets loaded; specify which heap varies")
        var = next(iter(rules))
    if var not in rules:
        raise UnknownRulesetError(f"unknown ruleset {var!r}")
    return rules[var]


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
    order.  ``max_total`` is an integer (``operator.index``, else
    TypeError), and a negative one is refused before anything is yielded.
    """
    max_total = operator.index(max_total)
    if max_total < 0:
        raise ValueError("max_total must be nonnegative")

    def parts(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        yield ()
        for first in range(min(remaining, cap), 0, -1):
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    return parts(max_total, max_total)
