"""Eventual-period analysis of exact value sequences, plus evidence scans.

Detection finds the smallest period and preperiod visible in a finite
sequence.  For single-heap games whose digits never split a heap,
:func:`certify_period` proves a detected period continues forever; its
docstring holds the argument.  Scanners only ever report evidence; nothing
here asserts a conjecture is true.
"""

from __future__ import annotations

__all__ = [
    "sequence_digest", "render_scaled", "PeriodReport", "verify_period", "detect_period",
    "certified_start", "certify_period", "detect_certified_period", "LemmaReport", "check_lemma",
    "ScanInstance", "ScanSpec", "ScanRow", "ScanReport", "parse_scan_spec", "scan_instance",
    "run_scan",
]

import hashlib
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from scoreplay.games import Score, format_score
from scoreplay.octal import (
    BudgetExceededError,
    GrundySolver,
    OctalRules,
    Position,
    _parse_int,
    parse_position,
    resolve_rules_ref,
    rules_from_name,
    subtraction_rules,
)


def sequence_digest(values: Sequence[Score | int], scale: int = 1) -> str:
    """Stable checksum of a value sequence under exact rational rendering.

    Entry ``x`` stands for the value ``x / scale``: a solver's scaled ints
    with its ``scale``, or exact values with the default 1.
    """
    payload = ",".join(render_scaled(values, scale))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def render_scaled(values: Sequence[Score | int], scale: int = 1) -> list[str]:
    """``format_score`` of each ``x / scale``, rendering each distinct ``x`` once.

    A sweep holds few distinct values, and ints hash far faster than
    Fractions, so the scaled ints make the cheapest keys.  A whole value
    needs no Fraction.
    """
    text = {x: format_score(x // scale if x % scale == 0 else Fraction(x, scale)) for x in set(values)}
    return list(map(text.__getitem__, values))


@dataclass(frozen=True)
class PeriodReport:
    """A period and its preperiod, integers (``operator.index``, else
    TypeError) with period >= 1 and preperiod >= 0."""

    preperiod: int
    period: int
    certified: bool = False

    def __post_init__(self) -> None:
        if operator.index(self.preperiod) < 0 or operator.index(self.period) < 1:
            raise ValueError(
                "period report needs preperiod >= 0 and period >= 1, "
                f"got preperiod={self.preperiod} period={self.period}"
            )


def verify_period(values: Sequence[Score | int], preperiod: int, period: int) -> bool:
    """Recheck v(n+period) == v(n) for every n from preperiod to the end; period >= 1."""
    if period < 1:
        raise ValueError(f"period must be at least 1, got {period}")
    return all(values[n + period] == values[n] for n in range(preperiod, len(values) - period))


def _check_window(count: int, min_window: int) -> None:
    """Refuse a window that ``count`` values cannot be searched with."""
    if min_window < 1:
        raise ValueError("min_window must be at least 1")
    if count < min_window:
        raise ValueError(f"sequence of length {count} is shorter than min_window={min_window}")


def _period_candidates(values: Sequence[Score | int], longest: int):
    """(preperiod, period) for each period 1 .. ``longest``, in ascending order.

    Each preperiod is the least one from which the period holds to the end
    of ``values``.  The scan runs down from the end and stops at the first
    mismatch, so it has compared every pair that :func:`verify_period`
    would.  Values are only compared with ``==``.
    """
    last = len(values) - 1
    for period in range(1, longest + 1):
        preperiod = 0
        for n in range(last - period, -1, -1):
            if values[n + period] != values[n]:
                preperiod = n + 1
                break
        yield preperiod, period


def detect_period(values: Sequence[Score | int], min_window: int = 3) -> PeriodReport | None:
    """Smallest period, then smallest preperiod, visible in ``values``.

    A period qualifies when the tail from its preperiod holds at least
    ``min_window`` copies of its block.  Purely empirical: a short run at
    the end can qualify (three trailing equal values admit period 1), so
    callers after an eventual period prefer :func:`detect_certified_period`.
    Returns None when nothing qualifies.  ``values`` may be exact scores or
    a solver's scaled ints; the report is the same.
    """
    count = len(values)
    _check_window(count, min_window)
    for preperiod, period in _period_candidates(values, count // min_window):
        if count - preperiod >= min_window * period:
            return PeriodReport(preperiod, period)
    return None


def certified_start(rules: OctalRules, report: PeriodReport) -> int:
    """First index the finite-lookback argument is applied from."""
    return max(report.preperiod, len(rules.digits) + 1)


def certify_period(rules: OctalRules, report: PeriodReport, values: Sequence[Score | int]) -> bool:
    """Prove a detected period of a single-heap sweep continues forever.

    Let f be the digit count, p the period and s = :func:`certified_start`,
    so s > f and s >= the preperiod.  The check is that v[n + p] = v[n] for
    the p + f indices n = s .. s + p + f - 1, which needs values through
    n = s + 2p + f - 1.

    Proof, valid only when no digit splits heaps.  A move takes k <= f
    beans, so for n > f every move leaves a single heap n - k >= 1: only
    digit bit 2 applies, and

        v[n] = F(v[n-1], ..., v[n-f]) = max over bit-2 k of points[k] - v[n-k]

    (0 when no digit has bit 2), one fixed function for every n > f.  Now
    suppose v[m + p] = v[m] for all m in s .. n - 1, with n >= s + f.  Then
    n > f and n + p > f, and each n - j for j = 1..f lies in s .. n - 1, so
    v[n + p] = F(v[n+p-1], ..., v[n+p-f]) = F(v[n-1], ..., v[n-f]) = v[n].
    By induction v[n + p] = v[n] for every n >= s.  The induction needs
    only f matches from any s >= 1, as n >= s + f > f.  A scan row's
    certificate is the single-heap sweep's first repeated window of f
    values (the ``proved`` pair of the
    :class:`~scoreplay.octal.SweepTable` it returns); when the sweep
    found none, :func:`detect_certified_period` checks the first
    max(preperiod, 1) + p + f values, and it is also the oracle the tests
    hold the sweep's certificate to.  This longer window stays as the
    independent check of a claimed report.  A sequence that matches for
    p + f - 1 indices and then differs does not certify.

    Splitting rules always return False (the report stays empirical): a
    split leaves two heaps, and the recurrence no longer looks back at
    single heaps alone.  The values must come from a sweep of these rules
    alone from an empty base.  Raises ValueError when ``values`` ends
    before the window does.
    """
    if rules.splits_heaps:
        return False
    needed = certified_start(rules, report) + 2 * report.period + len(rules.digits)
    if len(values) < needed:
        raise ValueError(
            f"certification window needs values through n={needed - 1}, "
            f"have up to n={len(values) - 1}"
        )
    return verify_period(values[:needed], certified_start(rules, report), report.period)


def detect_certified_period(
    rules: OctalRules,
    values: Sequence[Score | int],
    min_window: int = 3,
    base: Position = Position(),
) -> PeriodReport | None:
    """Detection that prefers a provable period over a shorter empirical one.

    With f the digit count, returns certified the first period p, in
    ascending order, whose least preperiod P has max(P, 1) + p + f <=
    len(values): the f values from max(P, 1) equal those p places later,
    so the induction in :func:`certify_period`'s docstring carries the
    period on forever.  That p is the tail's least period and P its least
    preperiod; a spurious short period, such as a constant run at the end,
    has too few values past it.  Otherwise the :func:`detect_period`
    answer is returned unmarked, or None; so it is for a nonempty ``base``
    or splitting rules, as the proof needs neither.  ``min_window`` gates
    only that empirical answer, kept from the same walk of the periods.
    ``values`` are as for :func:`detect_period`.
    """
    if base or rules.splits_heaps:
        return detect_period(values, min_window)
    count = len(values)
    _check_window(count, min_window)
    lookback = len(rules.digits)
    empirical = None
    for preperiod, period in _period_candidates(values, max(count - lookback, count // min_window)):
        if max(preperiod, 1) + period + lookback <= count:
            return PeriodReport(preperiod, period, certified=True)
        if empirical is None and count - preperiod >= min_window * period:
            empirical = PeriodReport(preperiod, period)
    return empirical


# ---------------------------------------------------------------------------
# Alternation identity for take-s-score-s subtraction games


@dataclass(frozen=True)
class LemmaReport:
    """Checked alternation identity for one subtraction set.

    With k the largest allowed removal, values at s+2ik must equal k minus
    the value one k-block earlier; residues r never exceed r on even blocks
    and never drop below k-r on odd blocks.  Failure entries are
    (s, i, lhs, rhs) and (r, i, value, bound, which) tuples.
    """

    subtraction_set: tuple[int, ...]
    k: int
    i_max: int
    identity_failures: tuple[tuple, ...]
    bound_failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.identity_failures and not self.bound_failures


def check_lemma(amounts: Iterable[int], i_max: int) -> LemmaReport:
    """Check the alternation identity and its residue bounds up to ``i_max``.

    ``i_max`` is an integer (``operator.index``, else TypeError).  The
    sweep runs under the default scan budget, ``ScanInstance.budget``
    positions, so too large an ``i_max`` raises
    :class:`~scoreplay.octal.BudgetExceededError` instead of exhausting memory.
    """
    rules = subtraction_rules(amounts)
    i_max = operator.index(i_max)
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    k = len(rules.digits)
    s_set = [take for take, digit in enumerate(rules.digits, start=1) if digit]
    solver = GrundySolver(rules, budget=ScanInstance.budget)
    # every award is a whole number of beans, so the scale is 1 and the
    # swept ints are the values themselves
    seq = solver.sweep(2 * (i_max + 1) * k)

    identity = []
    for s in s_set:
        for i in range(1, i_max + 1):
            lhs = seq[s + 2 * i * k]
            rhs = k - seq[s + (2 * i - 1) * k]
            if lhs != rhs:
                identity.append((s, i, Fraction(lhs), Fraction(rhs)))

    bounds = []
    for r in range(0, k + 1):
        for i in range(0, i_max + 1):
            even_value = seq[r + 2 * i * k]
            if even_value > r:
                bounds.append((r, i, Fraction(even_value), Fraction(r), "even-block value above residue"))
            odd_value = seq[r + (2 * i + 1) * k]
            if odd_value < k - r:
                bounds.append((r, i, Fraction(odd_value), Fraction(k - r), "odd-block value below k-r"))

    return LemmaReport(tuple(s_set), k, i_max, tuple(identity), tuple(bounds))


# ---------------------------------------------------------------------------
# Evidence scans


@dataclass(frozen=True)
class ScanInstance:
    """One sweep of a scan: a heap of ``rules`` grows beside the base
    ``fixed``, whose heaps of other rulesets follow ``extra_rules``.
    ``max_n``, ``min_window`` and a budget other than None are integers
    (``operator.index``, else TypeError), checked when the instance is
    built, before anything is swept."""

    rules: OctalRules
    extra_rules: tuple[OctalRules, ...] = ()
    fixed: Position = Position()
    max_n: int = 500
    min_window: int = 3
    budget: int | None = 1_000_000

    def __post_init__(self) -> None:
        for name in ("max_n", "min_window", "budget"):
            value = getattr(self, name)
            if value is not None:  # only the budget may be None
                object.__setattr__(self, name, operator.index(value))
        if self.max_n < 0 or not 1 <= self.min_window <= self.max_n + 1:
            raise ValueError(
                "scan instance needs max_n >= 0 and 1 <= min_window <= max_n + 1, "
                f"got max_n={self.max_n} min_window={self.min_window}"
            )
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"scan instance needs budget >= 0 or none, got budget={self.budget}")


@dataclass(frozen=True)
class ScanSpec:
    seed: int
    instances: tuple[ScanInstance, ...]
    digest: str


@dataclass(frozen=True)
class ScanRow:
    instance: str
    status: str  # ok | not-found | budget-exceeded
    preperiod: int | None
    period: int | None
    certified: bool
    certified_from: int | None
    conjectured_2k: int | None
    divides_2k: bool | None
    in_hypothesis: bool
    counterexample: bool
    max_n: int
    values_digest: str
    rules_digest: str


@dataclass(frozen=True)
class ScanReport:
    spec_digest: str
    seed: int
    rows: tuple[ScanRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(_ROW_FIELDS)]
        for row in self.rows:
            lines.append(",".join(_cell(getattr(row, name), "") for name in _ROW_FIELDS))
        return "\n".join(lines) + "\n"

    def to_detail(self) -> str:
        lines = [
            "scan-report",
            f"spec-digest: {self.spec_digest}",
            f"seed: {self.seed}",
            f"instances: {len(self.rows)}",
        ]
        for row in self.rows:
            lines.append("")
            for name in _DETAIL_FIELDS:
                lines.append(f"{name.replace('_', '-')}: {_cell(getattr(row, name), '-')}")
        return "\n".join(lines) + "\n"


_ROW_FIELDS = tuple(f.name for f in fields(ScanRow))
# the detail report lists max-n right after instance and status
_DETAIL_FIELDS = _ROW_FIELDS[:2] + ("max_n",) + tuple(n for n in _ROW_FIELDS[2:] if n != "max_n")


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cell(value, none: str) -> str:
    """One rendered ScanRow field; ``none`` stands for a missing value."""
    if value is None:
        return none
    return _bool(value) if isinstance(value, bool) else str(value)


def parse_scan_spec(text: str) -> ScanSpec:
    """Parse a scan spec: directives, one per line.

    ``seed:``, ``max-n:``, ``min-window:``, ``budget:`` set defaults for the
    instances that follow.  ``subtraction-family:`` enumerates every
    nonempty subset of a ground set (elements or ``a-b`` ranges) as
    take-s-score-s games.  ``instance:`` adds one ruleset reference with
    optional ``fixed=``, ``max-n=``, ``min-window=``, ``budget=`` settings.
    """
    seed = 0
    settings: dict[str, int | None] = {}  # by ScanInstance field; unset fields keep their defaults
    instances: dict[str, ScanInstance] = {}  # by ruleset name, in spec order

    def add_instance(inst: ScanInstance) -> None:
        name = inst.rules.name
        if name in instances:
            raise ValueError(f"duplicate scan instance {name!r}")
        instances[name] = inst

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"scan spec line {lineno}: expected 'key: value', got {raw.strip()!r}")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "seed":
                seed = _parse_setting(key, value)
            elif key in _SETTING_FIELDS:
                settings[_SETTING_FIELDS[key]] = _parse_setting(key, value)
            elif key == "subtraction-family":
                ground = _parse_ground_set(value)
                for subset in _nonempty_subsets(ground):
                    add_instance(ScanInstance(subtraction_rules(subset), **settings))
            elif key == "instance":
                add_instance(_parse_instance_line(value, settings))
            else:
                raise ValueError(f"unknown directive {key!r}")
        except ValueError as exc:
            raise ValueError(f"scan spec line {lineno}: {exc}") from None
    if not instances:
        raise ValueError("scan spec declares no instances")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return ScanSpec(seed, tuple(instances.values()), digest)


# spec key -> the ScanInstance field it sets
_SETTING_FIELDS = {"max-n": "max_n", "min-window": "min_window", "budget": "budget"}


def _parse_setting(key: str, value: str) -> int | None:
    """A ``seed``, ``max-n``, ``min-window`` or ``budget`` value; ``budget`` also takes ``none``."""
    if key == "budget" and value.lower() == "none":
        return None
    return _parse_int(value, f"{key} value", repr(value))


_MAX_GROUND = 16  # a family of 2**16 - 1 subsets


def _parse_ground_set(value: str) -> list[int]:
    """Elements and ``a-b`` ranges; more than ``_MAX_GROUND`` elements are refused."""
    ground: set[int] = set()
    for token in value.replace(",", " ").split():
        lo, dash, hi = token.partition("-")
        first = _parse_int(lo, "ground set element", repr(token))
        last = _parse_int(hi, "ground set element", repr(token)) if dash else first
        span = range(first, last + 1)
        ground.update(span[: _MAX_GROUND + 1])  # a longer span is refused below anyway
    if len(ground) > _MAX_GROUND:
        raise ValueError(f"ground set has more than {_MAX_GROUND} elements")
    if not ground or min(ground) < 1:
        raise ValueError(f"ground set must contain positive integers: {sorted(ground)}")
    return sorted(ground)


def _nonempty_subsets(ground):
    """Every nonempty subset of ``ground`` as a tuple, smallest first."""
    for size in range(1, len(ground) + 1):
        yield from combinations(ground, size)


def _parse_instance_line(value: str, defaults: dict[str, int | None]) -> ScanInstance:
    tokens = value.split()
    if not tokens:
        raise ValueError("instance directive needs a rules reference")
    rules = resolve_rules_ref(tokens[0])
    fixed_literal = "-"
    settings = dict(defaults)
    for token in tokens[1:]:
        key, sep, setting = token.partition("=")
        if not sep:
            raise ValueError(f"bad instance setting {token!r}")
        if key == "fixed":
            fixed_literal = setting
        elif key in _SETTING_FIELDS:
            settings[_SETTING_FIELDS[key]] = _parse_setting(key, setting)
        else:
            raise ValueError(f"unknown instance setting {key!r}")
    fixed = parse_position(fixed_literal)
    extra = []
    for name in sorted({heap_rules for heap_rules, _ in fixed}):
        if name == rules.name:
            continue
        rebuilt = rules_from_name(name)
        if rebuilt is None:
            raise ValueError(f"fixed position references unknown ruleset {name!r}")
        extra.append(rebuilt)
    return ScanInstance(rules, tuple(extra), fixed, **settings)


def _conjecture_2k(instance: ScanInstance) -> tuple[int | None, bool]:
    """The instance's conjectured 2k, and whether it lies in the 2k conjecture's hypothesis.

    k is the largest take whose digit lets the heap survive (bit 2 or 4)
    in the varying ruleset; with no such take there is no 2k.  The
    hypothesis holds when k exists and every ruleset of the instance
    takes s and scores s: no digit above 3, a take with digit 0 awards 0
    and every other take awards its size.
    """
    k = max((take for take, digit in enumerate(instance.rules.digits, start=1) if digit & 6), default=None)
    if k is None:
        return None, False
    return 2 * k, all(
        digit <= 3 and points == (take if digit else 0)
        for rules in (instance.rules, *instance.extra_rules)
        for take, (digit, points) in enumerate(zip(rules.digits, rules.points), start=1)
    )


def scan_instance(instance: ScanInstance) -> ScanRow:
    """Sweep one instance, detect and (when possible) certify its period;
    a sweep over the instance's budget raises :class:`~scoreplay.octal.BudgetExceededError`.

    The period the sweep's table proved by its repeated window
    (``values.proved``, only ever set from an empty base) is the report,
    certified; when it proved none, :func:`detect_certified_period`
    searches the values.
    """
    rules = instance.rules
    solver = GrundySolver((rules, *instance.extra_rules), budget=instance.budget)
    # detection compares values with == only, so the scaled ints serve
    values = solver.sweep(instance.max_n, rules.name, instance.fixed)
    if values.proved is not None:
        report = PeriodReport(*values.proved, certified=True)
    else:
        report = detect_certified_period(rules, values, instance.min_window, instance.fixed)
    return _scan_row(instance, report, sequence_digest(values, solver.scale))


def _scan_row(instance: ScanInstance, report: PeriodReport | None = None, digest: str = "") -> ScanRow:
    """The row of a sweep with this values digest; no digest means the sweep exceeded its budget."""
    rules = instance.rules
    two_k, in_hypothesis = _conjecture_2k(instance)
    certified = report is not None and report.certified
    period = None if report is None else report.period
    divides = None if two_k is None or period is None else two_k % period == 0
    return ScanRow(
        instance=rules.name,
        status="budget-exceeded" if not digest else "not-found" if report is None else "ok",
        preperiod=None if report is None else report.preperiod,
        period=period,
        certified=certified,
        certified_from=certified_start(rules, report) if certified else None,
        conjectured_2k=two_k,
        divides_2k=divides,
        in_hypothesis=in_hypothesis,
        counterexample=certified and in_hypothesis and divides is False,
        max_n=instance.max_n,
        values_digest=digest,
        rules_digest=rules.digest,
    )


def run_scan(spec: ScanSpec) -> ScanReport:
    """Run every instance and assemble rows sorted by instance name.

    An instance over its budget gets a ``budget-exceeded`` row.  Instances
    are independent; this runs them serially, which is one valid schedule,
    and sorting makes the report stable either way.
    """
    rows = []
    for inst in sorted(spec.instances, key=lambda i: i.rules.name):
        try:
            rows.append(scan_instance(inst))
        except BudgetExceededError:
            rows.append(_scan_row(inst))
    return ScanReport(spec.digest, spec.seed, tuple(rows))
