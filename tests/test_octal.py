"""Octal heap games: rules, positions, move generation, exact values."""

import copy
import gc
import math
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scoreplay import games, octal
from scoreplay.games import FinalScores, add, final_scores, parse_game
from scoreplay.octal import (
    BudgetExceededError,
    ExpansionLimitError,
    GrundySolver,
    OctalRules,
    Position,
    RulesError,
    SweepTable,
    UnknownRulesetError,
    iter_heap_multisets,
    legal_moves,
    parse_position,
    parse_rules_document,
    render_position,
    resolve_rules_ref,
    rules_from_name,
    standard_nim,
    subtraction_rules,
)
from scoreplay.periods import (
    PeriodReport,
    ScanInstance,
    _nonempty_subsets,
    certified_start,
    certify_period,
    check_lemma,
    detect_certified_period,
)
from support import (
    INT_DIGIT_LIMIT,
    NINES,
    awards,
    cap_address_space,
    first_repeated_window,
    naive_final_scores,
    non_splitting_rules,
    ref_legal_moves,
    ref_to_game,
)


SUB45 = subtraction_rules((4, 5))
# frozen single-heap values for removing exactly 4 (scoring 4) or 5 (scoring 5)
SUB45_TABLE = [0, 0, 0, 0, 4, 5, 5, 5, 5, 1, 0, 0, 0, 3, 4, 5]
# frozen values for take-up-to-4-score-2: period 5 from the start
O3333P2_TABLE = [0, 2, 2, 2, 2, 0, 2, 2, 2, 2, 0]
O26 = rules_from_name("o26")


def heap(size, rules=SUB45):
    return Position(((rules.name, size),))


# ---------------------------------------------------------------------------
# Rules


def test_subtraction_rules_shape():
    assert SUB45.name == "sub45"
    assert SUB45.digits == (0, 0, 0, 3, 3)
    assert SUB45.points == (0, 0, 0, 4, 5)
    assert not SUB45.splits_heaps


def test_standard_nim_shape():
    nim = standard_nim(3)
    assert nim.name == "nim3"
    assert nim.digits == (3, 3, 3)
    assert nim.points == (1, 2, 3)


def test_splits_heaps_detects_digit_four():
    assert OctalRules("o26", (2, 6), (1, 2)).splits_heaps


def test_rules_digest_is_stable_and_distinct():
    a = subtraction_rules((4, 5))
    assert a.digest == SUB45.digest
    assert len(a.digest) == 12
    assert a.digest != standard_nim(5).digest


@pytest.mark.parametrize(
    "bad",
    [
        lambda: OctalRules("x", (), ()),
        lambda: OctalRules("x", (8,), (1,)),
        lambda: OctalRules("x", (-1,), (1,)),
        lambda: OctalRules("x", (3, 3), (1,)),
        lambda: OctalRules("x", (0, 0), (0, 0)),
        lambda: OctalRules("has space", (3,), (1,)),
        lambda: OctalRules("pipe|name", (3,), (1,)),
        lambda: OctalRules("", (3,), (1,)),
        lambda: subtraction_rules(()),
        lambda: subtraction_rules((0, 2)),
        lambda: standard_nim(0),
        lambda: subtraction_rules((4, 2**20 + 1)),
        lambda: subtraction_rules((4, 10**100)),  # refused before a tuple this long is built
        lambda: standard_nim(2**20 + 1),
        lambda: standard_nim(10**100),
    ],
)
def test_invalid_rules_rejected(bad):
    with pytest.raises(RulesError):
        bad()


def test_parse_rules_document():
    doc = """
    # take four or five beans, scoring their count
    name: sub45
    digits: [0, 0, 0, 3, 3]
    points: [0, 0, 0, 4, 5]
    """
    assert parse_rules_document(doc) == SUB45


def test_parse_rules_document_inline_semicolons():
    assert parse_rules_document("name: o26; digits: 2 6; points: 1 2") == OctalRules(
        "o26", (2, 6), (1, 2)
    )


@pytest.mark.parametrize(
    "doc",
    [
        "name: sub45; digits: 3 3; points: 1 1",
        "name: sub45; digits: 0 0 0 3 3; points: 0 0 0 4 6",
        "name: o26; digits: 2 7; points: 1 2",
        "name: nim3; digits: 3 3 3; points: 1 1 1",
    ],
    ids=["other-digits", "other-points", "preset", "nim"],
)
def test_a_rules_document_may_not_claim_another_rulesets_name(doc):
    """A name that ``rules_from_name`` resolves names that ruleset only."""
    name = doc.split(";")[0].removeprefix("name: ")
    with pytest.raises(RulesError, match=f"^rules document claims the name '{name}' of other rules$"):
        parse_rules_document(doc)


@pytest.mark.parametrize(
    "doc",
    [
        "digits: 3; points: 1",  # missing name
        "name: x; digits: 3",  # missing points
        "name: x; digits: 3; points: 1; extra: 2",
        "name: x; name: y; digits: 3; points: 1",
        "just words",
        "name: x; digits: q; points: 1",
    ],
)
def test_parse_rules_document_errors(doc):
    with pytest.raises(RulesError):
        parse_rules_document(doc)


@pytest.mark.parametrize(
    "digit, message",
    [
        ("x", "bad digit in rules document 'x'"),
        pytest.param(
            NINES,
            f"bad digit in rules document: more than {INT_DIGIT_LIMIT} digits",
            marks=pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="int() converts any number of digits"),
        ),
    ],
    ids=["letter", "nines"],
)
def test_a_bad_rules_document_digit_is_named_as_every_integer_is(digit, message):
    with pytest.raises(RulesError) as info:
        parse_rules_document(f"name: x; digits: 3 {digit}; points: 1 1")
    assert str(info.value) == message


def test_rules_from_name_round_trips_generated_names():
    for rules in [SUB45, standard_nim(9), subtraction_rules((1, 3, 6))]:
        assert rules_from_name(rules.name) == rules
    assert rules_from_name("o3333p2") == OctalRules("o3333p2", (3, 3, 3, 3), (2, 2, 2, 2))
    assert rules_from_name("mystery") is None


@pytest.mark.parametrize(
    "name",
    ["nim0", "sub-0", "sub-5-0", "nim2000000", "sub-2000000", "nim" + "1" * 5000],
    ids=["nim0", "sub-0", "sub-5-0", "nim2000000", "sub-2000000", "nim-5000-digits"],
)
def test_names_the_builders_refuse_name_no_ruleset(name):
    """A name in the grammar whose take is zero, above the limit or too
    long for int() names no ruleset, so it cannot be resolved."""
    assert rules_from_name(name) is None
    with pytest.raises(RulesError, match="^cannot resolve rules reference '"):
        resolve_rules_ref(name)


# spellings that would rebuild a ruleset under another name: sub45, sub45, sub45, sub-10, nim9
ALIASES = ["sub54", "sub-4-5", "sub445", "sub-010", "nim09"]


@pytest.mark.parametrize("alias", ALIASES)
def test_other_spellings_name_no_ruleset(alias):
    """A name names one ruleset: a spelling that would rebuild a ruleset
    under another name is not a name, so it cannot be resolved."""
    assert rules_from_name(alias) is None
    with pytest.raises(RulesError, match=f"cannot resolve rules reference '{alias}'"):
        resolve_rules_ref(alias)


def test_generated_names_are_distinct_and_rebuild_their_rules():
    """A subtraction set names itself by its amounts, run together while
    all are below 10 and dashed otherwise, so no two sets share a name;
    ``rules_from_name`` rebuilds each one, nim bounds and presets too."""
    generated = [subtraction_rules(subset) for subset in _nonempty_subsets(range(1, 13))]
    generated += [standard_nim(k) for k in range(1, 31)]
    generated += octal.PRESETS.values()
    assert len({rules.name for rules in generated}) == len(generated) == 4095 + 30 + 2
    for rules in generated:
        assert rules_from_name(rules.name) == rules
    assert [subtraction_rules(s).name for s in [(4, 5), (12,), (1, 2), (1, 10), (1, 2, 10)]] == [
        "sub45", "sub-12", "sub12", "sub-1-10", "sub-1-2-10",
    ]


def test_presets_are_rulesets():
    assert set(octal.PRESETS) == {"o3333p2", "o26"}
    for name, rules in octal.PRESETS.items():
        assert isinstance(rules, OctalRules) and rules.name == name


def test_dashed_names_resolve_and_parse():
    rules = subtraction_rules((1, 10))
    assert resolve_rules_ref("sub-1-10") == rules == resolve_rules_ref("sub:1,10")
    assert resolve_rules_ref("sub-12") == subtraction_rules((12,)) != resolve_rules_ref("sub12")
    assert parse_position("3@sub-1-10,2@sub45") == Position((("sub-1-10", 3), ("sub45", 2)))
    assert parse_position("11", known={"sub-1-10"}) == heap(11, rules)


def test_resolve_rules_ref_forms(tmp_path):
    assert resolve_rules_ref("sub:4,5") == SUB45
    assert resolve_rules_ref("nim:3") == standard_nim(3)
    assert resolve_rules_ref("sub45") == SUB45
    assert resolve_rules_ref("name: o26; digits: 2 6; points: 1 2").name == "o26"
    path = tmp_path / "rules.txt"
    path.write_text("name: sub45\ndigits: 0 0 0 3 3\npoints: 0 0 0 4 5\n", encoding="utf-8")
    assert resolve_rules_ref(str(path)) == SUB45
    with pytest.raises(RulesError):
        resolve_rules_ref("nonsense")
    with pytest.raises(RulesError):
        resolve_rules_ref("")


# rules files named like rulesets, each holding other digits
DECOYS = {
    "sub45": "name: decoy; digits: 3 3; points: 1 1",
    "o26": "name: decoy; digits: 3; points: 1",
    "nim3": "name: decoy; digits: 0 3; points: 0 2",
    "sub:4,5": "name: decoy; digits: 1; points: 1",
}


@pytest.mark.parametrize(
    "ref, rules",
    [("sub45", SUB45), ("o26", O26), ("nim3", standard_nim(3)), ("sub:4,5", SUB45)],
)
def test_a_name_or_shorthand_resolves_before_a_file_of_that_name(tmp_path, monkeypatch, ref, rules):
    """A name names one ruleset in every directory; a rules file whose path
    is a name or shorthand is read through a directory part."""
    for name, text in DECOYS.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    decoy = parse_rules_document(DECOYS[ref])
    assert resolve_rules_ref(ref) == rules != decoy
    assert resolve_rules_ref(f"./{ref}") == decoy == resolve_rules_ref(str(tmp_path / ref))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Position([("sub45", 2.5)]),
        lambda: Position([("sub45", "7")]),
        lambda: subtraction_rules([4.7, 5]),
        lambda: subtraction_rules(["4", "5"]),
        lambda: subtraction_rules([Fraction(9, 2), 5]),
        lambda: OctalRules("x", (2.9,), (1,)),
        lambda: standard_nim(2.5),
        lambda: check_lemma([4.2, 5], 3),  # not the lemma for {4, 5}
        lambda: GrundySolver(SUB45, budget=7.5),
        lambda: ScanInstance(SUB45, max_n=500.0),
        lambda: ScanInstance(SUB45, min_window=2.5),
        lambda: ScanInstance(SUB45, budget=7.5),
        lambda: ScanInstance(SUB45, budget="7"),
        lambda: GrundySolver(SUB45).sweep(7.0),
        lambda: GrundySolver(SUB45).sweep(7.0, base=heap(4)),
        lambda: GrundySolver(O26).sweep("7"),
        lambda: check_lemma([4, 5], 2.0),
        lambda: GrundySolver(SUB45).to_game(heap(2), max_total=2.5),
        lambda: iter_heap_multisets(2.5),
    ],
    ids=[
        "float-size", "str-size", "float-amount", "str-amount", "fraction-amount", "float-digit",
        "float-bound", "float-lemma-amount", "float-solver-budget", "float-scan-max-n",
        "float-scan-min-window", "float-scan-budget", "str-scan-budget", "float-sweep-max-n",
        "float-sweep-max-n-from-a-base", "str-splitting-sweep-max-n", "float-lemma-i-max",
        "float-expansion-bound", "float-multiset-total",
    ],
)
def test_sizes_amounts_digits_and_bounds_are_never_truncated(build):
    """A size, amount, digit, bound, sweep length or solver or scan setting goes through
    ``operator.index``, so anything but an integer is refused, before any
    sweep, instead of naming another game or budget."""
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()


def test_a_bool_bound_is_the_integer_it_stands_for():
    assert standard_nim(True) == standard_nim(1)
    assert rules_from_name(standard_nim(True).name) == standard_nim(1)


# ---------------------------------------------------------------------------
# Positions


def test_position_normalizes_to_sorted_multiset():
    a = Position((("sub45", 3), ("sub45", 9), ("o26", 2)))
    b = Position((("sub45", 9), ("o26", 2), ("sub45", 3)))
    assert a == b
    assert a == (("o26", 2), ("sub45", 3), ("sub45", 9))
    assert a.total == 14


def test_position_drops_zero_heaps_rejects_negative():
    assert Position((("sub45", 0),)) == Position()
    with pytest.raises(ValueError):
        Position((("sub45", -1),))


def test_parse_position_literals():
    assert parse_position("-") == Position()
    assert parse_position("") == Position()
    assert parse_position("13@sub45") == heap(13)
    assert parse_position("2@o26, 5@sub45") == Position((("o26", 2), ("sub45", 5)))
    assert parse_position("7", known={"sub45"}) == heap(7)


def test_parse_position_errors():
    with pytest.raises(ValueError):
        parse_position("13")  # bare size is ambiguous without a known ruleset
    with pytest.raises(ValueError):
        parse_position("sub45@13")
    with pytest.raises(UnknownRulesetError):
        parse_position("3@nope", known={"sub45"})


def test_render_position_round_trip():
    for text in ["-", "13@sub45", "2@o26,3@sub45,9@sub45"]:
        assert render_position(parse_position(text)) == text


def test_position_copies_rebuild_their_hash():
    """String hashes differ between processes, so a copied or unpickled
    position must hash as one built from its heaps in the process that
    reads it."""
    position = parse_position("3@sub45,5@o26")
    assert copy.copy(position) == position
    assert hash(copy.deepcopy(position)) == hash(position)
    check = (
        "import pickle, sys\n"
        "from scoreplay.octal import Position\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "assert hash(p) == hash(Position(p)), 'stale hash'\n"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(octal.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", check], input=pickle.dumps(position), env=env, capture_output=True
        )
        assert result.returncode == 0, result.stderr.decode()


def test_position_is_its_sorted_heap_tuple():
    heaps = (("o26", 2), ("sub45", 3), ("sub45", 9))
    position = Position(reversed(heaps))
    assert position == heaps
    assert hash(position) == hash(heaps)
    assert repr(heap(9)) == "Position((('sub45', 9),))"
    for original in [position, Position(), heap(13)]:
        rebuilt = eval(repr(original), {"Position": Position})
        assert rebuilt == original
        assert type(rebuilt) is Position


def test_position_copies_are_canonical_positions():
    position = parse_position("3@sub45,5@o26")
    copies = [copy.copy(position), copy.deepcopy(position)]
    copies += [pickle.loads(pickle.dumps(position, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is Position
        assert copied == position == (("o26", 5), ("sub45", 3))


def test_moves_and_the_memo_hold_positions():
    rules = (rules_from_name("o26"), SUB45)
    position = Position((("o26", 7), ("sub45", 6)))
    moves = legal_moves(position, rules) + GrundySolver(rules).best_moves(position)
    assert moves
    assert all(type(move.next) is Position for move in moves)
    solver = GrundySolver(rules_from_name("o26"))
    solver.value(Position((("o26", 40),)))
    assert all(type(key) is Position for key in solver._values)


@pytest.mark.parametrize(
    "plain",
    [(("sub45", -1),), (("sub45", 9), ("sub45", 4)), (("sub45", 9),)],
    ids=["negative", "unsorted", "memoized"],
)
def test_a_plain_heap_tuple_is_refused(plain):
    """A plain tuple skips the constructor's checks, so no entry point expands
    it, not even one that hashes and compares as a position already valued."""
    solver = GrundySolver(SUB45)
    assert solver.value(heap(9)) == 1
    for expand in [
        solver.value,
        solver.best_moves,
        lambda p: legal_moves(p, SUB45),
        solver.to_game,
        lambda p: solver.sweep(5, base=p),
    ]:
        with pytest.raises(TypeError, match="^expected a Position, got tuple$"):
            expand(plain)


# ---------------------------------------------------------------------------
# Move generation


def test_no_moves_from_empty_or_small_heaps():
    assert legal_moves(Position(), SUB45) == []
    assert legal_moves(heap(3), SUB45) == []


def test_sub45_moves_from_13():
    moves = legal_moves(heap(13), SUB45)
    assert [(m.points, render_position(m.next)) for m in moves] == [
        (4, "9@sub45"),
        (5, "8@sub45"),
    ]


def test_splitting_moves_unordered_and_merged():
    o26 = OctalRules("o26", (2, 6), (1, 2))
    moves = legal_moves(Position((("o26", 5),)), o26)
    assert [(m.points, render_position(m.next)) for m in moves] == [
        (1, "4@o26"),
        (2, "1@o26,2@o26"),
        (2, "3@o26"),
    ]


def test_equal_heaps_yield_one_move():
    moves = legal_moves(Position((("sub45", 4), ("sub45", 4))), SUB45)
    assert [(m.points, render_position(m.next)) for m in moves] == [(4, "4@sub45")]


def test_unknown_ruleset_in_position_raises():
    with pytest.raises(UnknownRulesetError):
        legal_moves(Position((("nope", 4),)), SUB45)


@pytest.mark.parametrize(
    "ask",
    [
        lambda solver, position: solver.value(position),
        lambda solver, position: solver.best_moves(position),
        lambda solver, position: solver.to_game(position),
        lambda solver, position: solver.sweep(3, base=position),
        lambda solver, position: legal_moves(position, solver.rules.values()),
    ],
    ids=["value", "best_moves", "to_game", "sweep", "legal_moves"],
)
def test_every_entry_point_refuses_an_unknown_ruleset_before_walking(ask):
    """The position's rulesets are checked before any move, budget or
    expansion bound is looked at."""
    solver = GrundySolver(O26, budget=3)
    position = Position((("o26", 40), ("zzz", 1)))
    with pytest.raises(UnknownRulesetError, match=r"^position references unknown ruleset 'zzz'$"):
        ask(solver, position)
    assert solver.positions_evaluated == 0


def test_legal_moves_takes_records_not_name_maps():
    position = Position((("o26", 3), ("sub45", 5)))
    o26 = rules_from_name("o26")
    moves = legal_moves(position, [SUB45, o26])
    assert moves == legal_moves(position, (rules for rules in (o26, SUB45)))
    assert [(m.points, render_position(m.next)) for m in moves] == [
        (1, "2@o26,5@sub45"),
        (2, "1@o26,5@sub45"),
        (4, "3@o26,1@sub45"),
        (5, "3@o26"),
    ]
    with pytest.raises(TypeError, match="expected OctalRules, got str"):
        legal_moves(position, {"sub45": SUB45, "o26": o26})
    assert GrundySolver(iter([SUB45, o26])).rules == {"sub45": SUB45, "o26": o26}


# ---------------------------------------------------------------------------
# Evaluator


def test_sub45_single_heap_table():
    solver = GrundySolver(SUB45)
    assert solver.sweep(15) == SUB45_TABLE


def test_o3333p2_single_heap_table():
    solver = GrundySolver(rules_from_name("o3333p2"))
    assert solver.sweep(10) == O3333P2_TABLE


def test_best_move_from_13_takes_four():
    solver = GrundySolver(SUB45)
    assert solver.value(heap(13)) == 3
    best = solver.best_moves(heap(13))
    assert [(m.points, render_position(m.next)) for m in best] == [(4, "9@sub45")]


def test_best_moves_of_a_position_without_moves_is_empty():
    assert GrundySolver(SUB45).best_moves(heap(2)) == []


def test_value_of_two_equal_heaps_is_zero():
    solver = GrundySolver(SUB45)
    assert solver.value(Position((("sub45", 4), ("sub45", 4)))) == 0
    assert solver.value(Position((("sub45", 13), ("sub45", 13)))) == 0


def test_dead_base_heap_does_not_change_the_sweep():
    """A heap too small to move in contributes nothing to optimal play."""
    plain = GrundySolver(SUB45).sweep(12)
    with_base = GrundySolver(SUB45).sweep(12, base=heap(3))
    assert with_base == plain


def test_sweep_with_mixed_rules_needs_var():
    o26 = OctalRules("o26", (2, 6), (1, 2))
    solver = GrundySolver([SUB45, o26])
    with pytest.raises(ValueError):
        solver.sweep(5)
    assert solver.sweep(5, var="sub45")[:6] == SUB45_TABLE[:6]
    with pytest.raises(UnknownRulesetError):
        solver.sweep(5, var="nope")


def test_memo_persists_across_queries():
    """``value`` and a splitting ruleset's sweep fill the memo, and asking
    again, or for a position already reached, adds nothing."""
    solver = GrundySolver(SUB45)
    solver.value(heap(15))
    evaluated = solver.positions_evaluated
    assert evaluated > 0
    solver.value(heap(15))
    solver.value(heap(11))  # 15 - 4
    assert solver.positions_evaluated == evaluated
    solver = GrundySolver(O26)
    solver.sweep(15)
    evaluated = solver.positions_evaluated
    assert evaluated > 0
    solver.sweep(15)
    assert solver.positions_evaluated == evaluated


def test_budget_limits_positions():
    solver = GrundySolver(rules_from_name("o26"), budget=10)
    with pytest.raises(BudgetExceededError):
        solver.sweep(40)


def test_budget_is_cumulative_over_sweep_tables_and_memo():
    """A sweep's table is its result, so it leaves the whole budget to the
    memo; the memo counts against a later sweep's table."""
    reference = GrundySolver(SUB45)
    solver = GrundySolver(SUB45, budget=50)
    solver.sweep(40)
    assert solver.value(heap(25)) == reference.value(heap(25))
    assert solver.positions_evaluated == len(solver._values) == reference.positions_evaluated
    held = solver.positions_evaluated
    assert 0 < held < 50
    with pytest.raises(
        BudgetExceededError,
        match=rf"^position budget exceeded \(50 positions\) evaluating {50 - held}@sub45$",
    ):
        solver.sweep(50 - held)
    # a table that fills the room left exactly is built
    assert unscaled(solver, solver.sweep(49 - held)) == generic_sweep(reference, 49 - held, "sub45")
    solver.budget = held - 1  # lowered below the memo: no room at all
    with pytest.raises(BudgetExceededError, match=rf"^position budget exceeded \({held - 1} positions\) evaluating -$"):
        solver.sweep(0)


def test_a_sweep_that_cannot_fit_is_refused_before_its_table_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("the table was started")

    monkeypatch.setattr(GrundySolver, "_single_heap_table", refuse)
    with pytest.raises(BudgetExceededError, match=r"^position budget exceeded \(10 positions\) evaluating 10@sub45$"):
        GrundySolver(SUB45, budget=10).sweep(10**9)


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match=r"^budget must be nonnegative, got -1$"):
        GrundySolver(SUB45, budget=-1)
    with pytest.raises(BudgetExceededError, match=r"\(0 positions\)"):
        GrundySolver(SUB45, budget=0).value(heap(5))


def test_rules_map_key_must_match_name():
    """The solver takes records, which carry their own names; a name map
    is refused."""
    with pytest.raises(TypeError, match="expected OctalRules, got str"):
        GrundySolver({"wrong": SUB45})
    with pytest.raises(TypeError, match="expected OctalRules, got str"):
        GrundySolver({SUB45.name: SUB45})
    with pytest.raises(RulesError):
        GrundySolver([])


def test_deep_sweep_does_not_hit_recursion_limit():
    values = GrundySolver(subtraction_rules((1,))).sweep(5000)
    assert values[-2:] == [1, 0]  # alternating: odd totals are worth one
    # the generic evaluator walks the same chain on its explicit stack
    assert GrundySolver(subtraction_rules((1,))).value(Position((("sub1", 4999),))) == 1


# ---------------------------------------------------------------------------
# The integer single-heap kernel behind sweep, against the generic evaluator


def generic_sweep(solver, max_n, var, base=Position()):
    """Sweep entries evaluated one by one through ``value``."""
    return [solver.value(base.add_heap(var, n)) for n in range(max_n + 1)]


def unscaled(solver, values):
    """The values a solver's swept ints stand for."""
    return [Fraction(v, solver.scale) for v in values]


def budget_outcome(run, solver):
    """(error message or None, positions evaluated) after ``run(solver)``."""
    try:
        run(solver)
    except BudgetExceededError as exc:
        return str(exc), solver.positions_evaluated
    return None, solver.positions_evaluated


NON_SPLITTING = [subtraction_rules(s) for s in _nonempty_subsets(range(1, 6))]
NON_SPLITTING.append(rules_from_name("o3333p2"))


@pytest.mark.parametrize("rules", NON_SPLITTING, ids=lambda r: r.name)
def test_kernel_matches_evaluator_on_acceptance_rulesets(rules):
    solver = GrundySolver(rules)
    values = solver.sweep(300)
    assert all(type(v) is int for v in values)
    assert unscaled(solver, values) == generic_sweep(GrundySolver(rules), 300, rules.name)


@settings(max_examples=60, deadline=None)
@given(non_splitting_rules, st.integers(0, 80), st.integers(0, 80))
def test_kernel_matches_evaluator_on_random_rules(rules, first, second):
    """Fractional and negative awards, emptying-only and surviving digits;
    a second sweep recomputes its table, as no table is kept."""
    solver = GrundySolver(rules)
    reference = generic_sweep(GrundySolver(rules), max(first, second), "h")
    assert unscaled(solver, solver.sweep(first)) == reference[: first + 1]
    assert unscaled(solver, solver.sweep(second)) == reference[: second + 1]
    assert solver.positions_evaluated == 0


def test_kernel_without_surviving_moves():
    """No digit has bit 2, so heaps past the digit count have no move."""
    rules = OctalRules("h", (1, 0, 1), (Fraction(1, 2), 0, -3))
    solver = GrundySolver(rules)
    values = solver.sweep(8)
    assert values == [0, 1, 0, -6, 0, 0, 0, 0, 0]
    assert all(type(v) is int for v in values)
    assert unscaled(solver, values) == [0, Fraction(1, 2), 0, -3, 0, 0, 0, 0, 0]
    assert unscaled(solver, values) == generic_sweep(GrundySolver(rules), 8, "h")


def test_kernel_serves_a_mixed_rules_solver():
    o26 = rules_from_name("o26")
    solver = GrundySolver([SUB45, o26])
    assert solver.sweep(40, var="sub45") == generic_sweep(GrundySolver(SUB45), 40, "sub45")
    assert solver.positions_evaluated == 0  # the table is the result, not kept
    assert solver.sweep(12, var="o26") == generic_sweep(GrundySolver(o26), 12, "o26")


@settings(max_examples=40, deadline=None)
@given(non_splitting_rules, st.integers(0, 40), st.integers(0, 40))
def test_kernel_budget_errors_match_evaluator(rules, budget, max_n):
    """A fresh solver fails exactly when max_n + 1 > budget, with the same
    message.  The kernel keeps no work, where the generic walk keeps its memo."""
    kernel = budget_outcome(lambda s: s.sweep(max_n), GrundySolver(rules, budget=budget))
    generic = budget_outcome(
        lambda s: generic_sweep(s, max_n, "h"), GrundySolver(rules, budget=budget)
    )
    assert kernel[0] == generic[0]
    assert (kernel[0] is not None) == (max_n + 1 > budget)
    assert kernel[1] == 0
    assert generic[1] == min(max_n + 1, budget)


def test_kernel_budget_message():
    solver = GrundySolver(SUB45, budget=0)
    with pytest.raises(BudgetExceededError, match=r"^position budget exceeded \(0 positions\) evaluating -$"):
        solver.sweep(3)
    solver = GrundySolver(SUB45, budget=7)
    with pytest.raises(BudgetExceededError, match=r"^position budget exceeded \(7 positions\) evaluating 7@sub45$"):
        solver.sweep(20)
    assert solver.sweep(6) == SUB45_TABLE[:7]  # a table that fills the budget exactly


@pytest.mark.parametrize(
    "rules, base",
    [(rules_from_name("o26"), Position()), (SUB45, heap(3)), (SUB45, heap(9))],
    ids=["splitting", "dead-base", "live-base"],
)
def test_generic_sweeps_keep_their_memo_growth(rules, base):
    solver = GrundySolver(rules)
    reference = GrundySolver(rules)
    assert solver.sweep(14, base=base) == generic_sweep(reference, 14, rules.name, base)
    assert solver.positions_evaluated == reference.positions_evaluated


# ---------------------------------------------------------------------------
# The single-heap table's fill from a repeated window, against a plain loop


def recurrence(rules, max_n):
    """Single-heap values 0..max_n by the plain loop ``v[n] = max(points[k] - v[n - k])``,
    each times the LCM of the award denominators: no window, no fill."""
    scale = math.lcm(*(p.denominator for p in rules.points))
    moves = [
        (take, digit, int(points * scale))
        for take, (digit, points) in enumerate(zip(rules.digits, rules.points), start=1)
        if digit
    ]
    values = []
    for n in range(max_n + 1):
        options = [award - values[n - take] for take, digit, award in moves if take < n and digit & 2]
        options += [award for take, digit, award in moves if take == n and digit & 1]
        values.append(max(options, default=0))
    return values


def assert_sweep_is_the_recurrence(rules, max_n):
    solver = GrundySolver(rules)
    assert solver.scale == math.lcm(*(p.denominator for p in rules.points))
    assert solver.sweep(max_n) == recurrence(rules, max_n)


@pytest.mark.parametrize(
    "rules, max_n",
    [
        (SUB45, 300),
        (subtraction_rules((3,)), 100),
        (subtraction_rules((4, 6, 7)), 400),
        (subtraction_rules((5, 6)), 400),
        (subtraction_rules(range(1, 8)), 200),
        (subtraction_rules((1, 30)), 2000),
        (rules_from_name("o3333p2"), 100),
        (OctalRules("h", (1, 0, 3, 2), (Fraction(1, 2), 0, Fraction(-7, 3), 1)), 300),
    ],
    ids=lambda x: x.name if isinstance(x, OctalRules) else str(x),
)
def test_fill_is_exact_when_every_window_hash_collides(monkeypatch, rules, max_n):
    """Modulo 1 every window hashes alike, so only the exact comparison
    tells a repeat from a collision."""
    monkeypatch.setattr(octal, "_WINDOW_HASH_MODULUS", 1)
    assert_sweep_is_the_recurrence(rules, max_n)


@pytest.mark.parametrize("k", range(3, 13))
def test_fill_around_the_first_repeat_of_the_latest_known_preperiod(k):
    """{k - 1, k} has preperiod (2k - 1)(k - 2) and period 2k, so its first
    window of k values to repeat ends 3k past the preperiod.  Every sweep
    from just short of that repeat to past a whole period of fills is exact."""
    rules = subtraction_rules((k - 1, k))
    preperiod = (2 * k - 1) * (k - 2)
    reference = recurrence(rules, 3 * (preperiod + 3 * k))
    first = first_repeated_window(reference, k, k + 1)
    assert first == preperiod + 3 * k
    solver = GrundySolver(rules)
    for max_n in range(first - 3, 2 * first + 2 * k):
        assert solver.sweep(max_n) == reference[: max_n + 1]
    assert solver.sweep(len(reference) - 1) == reference


# rules whose last digit only empties a heap
LOOKBACK_PAST_TAKE = pytest.mark.parametrize(
    "digits, points",
    [
        ((3, 2, 1), (1, -2, 5)),
        ((3, 2, 1), (1, 2, 3)),
        ((2, 3, 0, 1, 1), (1, Fraction(1, 2), 0, 3, -4)),
        ((3, 0, 0, 0, 1), (1, 0, 0, 0, 7)),
        ((3, 0, 1), (1, 2, 3)),
    ],
    ids=["321-a", "321-b", "23011", "30001", "301"],
)


@LOOKBACK_PAST_TAKE
@pytest.mark.parametrize("modulus", [octal._WINDOW_HASH_MODULUS, 1], ids=["hash", "collide"])
def test_fill_with_a_lookback_past_the_largest_surviving_take(monkeypatch, digits, points, modulus):
    """The last digit only empties a heap, so a window of the surviving
    takes repeats before the window of all f digits does.  Every sweep
    around both repeats is exact."""
    monkeypatch.setattr(octal, "_WINDOW_HASH_MODULUS", modulus)
    rules = OctalRules("h", digits, points)
    reference = recurrence(rules, 80)
    surviving = max(take for take, digit in enumerate(digits, start=1) if digit & 2)
    assert first_repeated_window(reference, surviving, len(digits) + 1) < (
        first_repeated_window(reference, len(digits), len(digits) + 1)
    )
    solver = GrundySolver(rules)
    for max_n in range(len(reference)):
        assert solver.sweep(max_n) == reference[: max_n + 1]


@pytest.mark.parametrize("modulus", [octal._WINDOW_HASH_MODULUS, 1], ids=["hash", "collide"])
def test_fill_when_every_move_empties_the_heap(monkeypatch, modulus):
    """No move leaves a heap, so every heap past the digit count is dead
    and its window of zeros repeats at once."""
    monkeypatch.setattr(octal, "_WINDOW_HASH_MODULUS", modulus)
    rules = OctalRules("h", (1, 0, 1), (2, 0, -1))
    assert recurrence(rules, 5) == [0, 2, 0, -1, 0, 0]
    for max_n in range(20):
        assert_sweep_is_the_recurrence(rules, max_n)
    assert_sweep_is_the_recurrence(rules, 10_000)


def test_a_window_that_never_repeats_is_computed_to_the_end():
    """sub-99-100's first repeated window would end at 19,802."""
    rules = subtraction_rules((99, 100))
    reference = recurrence(rules, 19_000)
    assert first_repeated_window(reference, 100, 101) is None
    assert GrundySolver(rules).sweep(19_000) == reference


def test_a_long_span_fills_exactly():
    assert_sweep_is_the_recurrence(subtraction_rules((1, 5000)), 200_000)


def test_a_repeating_sweep_stops_computing(monkeypatch):
    """sub45 repeats within its first 60 entries, so a sweep to 10,000
    computes a few dozen entries by the recurrence, not 10,000."""
    subtractions = []
    monkeypatch.setattr(octal, "sub", lambda a, b: subtractions.append(1) or a - b)
    assert GrundySolver(SUB45).sweep(10_000) == recurrence(SUB45, 10_000)
    assert 0 < len(subtractions) <= 2 * 60  # one per move that leaves a heap


@settings(max_examples=60, deadline=None)
@given(non_splitting_rules, st.integers(0, 600), st.sampled_from([octal._WINDOW_HASH_MODULUS, 1]))
def test_fill_matches_the_recurrence_on_random_rules(rules, max_n, modulus):
    """Fractional and negative awards, emptying-only and surviving digits,
    past the fill; modulo 1 every window hashes alike."""
    with mock.patch.object(octal, "_WINDOW_HASH_MODULUS", modulus):
        assert_sweep_is_the_recurrence(rules, max_n)


# ---------------------------------------------------------------------------
# The fill's repeat as the certificate of the heaps' period


@settings(max_examples=150, deadline=None)
@given(non_splitting_rules, st.integers(0, 600), st.sampled_from([octal._WINDOW_HASH_MODULUS, 1]))
def test_a_sweeps_repeat_is_the_certified_report_of_its_values(rules, max_n, modulus):
    """Whenever the fill found its repeat, the pair it proves is the report
    the certified search finds over the same values, certify_period's
    longer window holds it, and a longer sweep proves the same pair."""
    with mock.patch.object(octal, "_WINDOW_HASH_MODULUS", modulus):
        values = GrundySolver(rules).sweep(max_n)
        if values.proved is None:
            return
        report = detect_certified_period(rules, values)
        assert report == PeriodReport(*values.proved, certified=True)
        needed = certified_start(rules, report) + 2 * report.period + len(rules.digits)
        longer = GrundySolver(rules).sweep(max(max_n, needed))
        assert certify_period(rules, report, longer)
        assert longer.proved == values.proved


@pytest.mark.parametrize(
    "rules, proved",
    [(subtraction_rules((1,)), (0, 2)), (subtraction_rules((3,)), (0, 6)), (SUB45, (27, 10))],
    ids=lambda x: x.name if isinstance(x, OctalRules) else str(x),
)
def test_a_sweeps_repeat_proves_the_least_preperiod(rules, proved):
    """The walk down from the repeated window reaches the least preperiod,
    0 included: sub1 alternates 0, 1 from the empty heap on."""
    values = GrundySolver(rules).sweep(200)
    assert values.proved == proved
    assert detect_certified_period(rules, values) == PeriodReport(*proved, certified=True)


@pytest.mark.parametrize(
    "rules, sweep",
    [
        (O26, lambda s: s.sweep(20)),
        (SUB45, lambda s: s.sweep(60, base=heap(4))),
        (OctalRules("h", (1, 0, 1), (2, 0, -1)), lambda s: s.sweep(1000)),
    ]
    + [(SUB45, lambda s, n=n: s.sweep(n)) for n in range(6)],
    ids=["splitting", "fixed-base", "no-heap-left"] + [f"max-n-{n}" for n in range(6)],
)
def test_a_sweep_without_a_repeat_proves_no_period(rules, sweep):
    """Split heaps and a base leave the recurrence; with no move that
    leaves a heap, or no entry past the digit count, no window is searched.
    The memo walk's table is a SweepTable too, equal to the plain list."""
    values = sweep(GrundySolver(rules))
    assert type(values) is SweepTable and values == list(values)
    assert values.proved is None


@LOOKBACK_PAST_TAKE
@pytest.mark.parametrize("modulus", [octal._WINDOW_HASH_MODULUS, 1], ids=["hash", "collide"])
def test_only_a_repeat_of_the_whole_lookback_window_proves_a_period(monkeypatch, digits, points, modulus):
    """The window of the surviving takes repeats first, and it too would
    prove the period, but before the certified search can certify from
    the values: at 6, ``h`` with digits 3 0 1 shows 0 1 0 3 -2 3 -2, and
    (3, 2) needs 3 + 2 + 3 values.  So the table proves a pair only when
    all f entries repeat, and the pair is the search's report."""
    monkeypatch.setattr(octal, "_WINDOW_HASH_MODULUS", modulus)
    rules = OctalRules("h", digits, points)
    for max_n in range(80):
        values = GrundySolver(rules).sweep(max_n)
        if values.proved is not None:
            assert detect_certified_period(rules, values) == PeriodReport(*values.proved, certified=True)


@pytest.mark.parametrize(
    "rules, max_n, proved",
    [(SUB45, 60, (27, 10)), (subtraction_rules((99, 100)), 1000, None)],
    ids=["fill-repeat", "no-repeat-yet"],
)
@pytest.mark.parametrize("modulus", [octal._WINDOW_HASH_MODULUS, 1], ids=["hash", "collide"])
def test_a_fill_returns_a_table_equal_to_its_values(monkeypatch, rules, max_n, proved, modulus):
    """The fill's table is a SweepTable, a list equal to the plain list of
    its values; only an exact repeat sets ``proved``, also modulo 1, where
    every window hashes alike.  sub-99-100's first repeat ends at 19,802."""
    monkeypatch.setattr(octal, "_WINDOW_HASH_MODULUS", modulus)
    values = GrundySolver(rules).sweep(max_n)
    assert type(values) is SweepTable
    assert values == list(values) == recurrence(rules, max_n)
    assert values.proved == proved


# ---------------------------------------------------------------------------
# The scaled-int solver against an evaluator in Fraction arithmetic


class FractionReference:
    """``value`` and ``best_moves`` in Fraction arithmetic, the loop the
    solver ran before it scaled values to ints, budget check included.

    With ``count_moves``, a position with more moves than the budget is
    refused when it is reached, as the solver refuses it; without, the walk
    goes on until the positions held exceed the budget."""

    def __init__(self, rules, budget=None, count_moves=True):
        self.rules = rules
        self.budget = budget
        self.count_moves = count_moves
        self.values = {}

    @property
    def positions_evaluated(self):
        return len(self.values)

    def value(self, position):
        values = self.values
        if position in values:
            return values[position]
        pending_moves = {}
        stack = [position]
        while stack:
            pos = stack[-1]
            if pos in values:
                stack.pop()
                continue
            moves = pending_moves.get(pos)
            if moves is None:
                moves = legal_moves(pos, self.rules)
                pending_moves[pos] = moves
                if self.budget is not None and (
                    len(values) + len(pending_moves) > self.budget
                    or self.count_moves and len(moves) > self.budget
                ):
                    raise BudgetExceededError(
                        f"position budget exceeded ({self.budget} positions) "
                        f"evaluating {render_position(position)}"
                    )
            missing = [move.next for move in moves if move.next not in values]
            if missing:
                stack.extend(missing)
                continue
            if moves:
                values[pos] = max(move.points - values[move.next] for move in moves)
            else:
                values[pos] = Fraction(0)
            del pending_moves[pos]
            stack.pop()
        return values[position]

    def best_moves(self, position):
        moves = legal_moves(position, self.rules)
        best = max((move.points - self.value(move.next) for move in moves), default=None)
        return [move for move in moves if move.points - self.value(move.next) == best]


def rules_named(name):
    """Random take-and-break rulesets, splitting digits included."""
    return st.lists(st.tuples(st.integers(0, 7), awards), min_size=1, max_size=4).filter(
        lambda moves: any(d for d, _ in moves)
    ).map(lambda moves: OctalRules(name, [d for d, _ in moves], [p for _, p in moves]))


two_ruleset_heaps = st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 5)), max_size=3).filter(
    lambda heaps: sum(size for _, size in heaps) <= 9
)
HALF = OctalRules("a", (7, 2), (Fraction(1, 2), Fraction(-1)))
TWO_THIRDS = OctalRules("b", (3, 6), (Fraction(2, 3), Fraction(0)))


@settings(max_examples=60, deadline=None)
@given(rules_named("a"), rules_named("b"), two_ruleset_heaps)
@example(HALF, TWO_THIRDS, [("a", 5), ("b", 4)])
def test_scaled_solver_matches_fraction_reference(a, b, heaps):
    """Fractional, negative and zero awards, splitting digits, and two
    rulesets whose award denominators differ in one position."""
    rules = (a, b)
    position = Position(tuple(heaps))
    solver = GrundySolver(rules)
    reference = FractionReference(rules)
    value = reference.value(position)
    got = solver.value(position)
    assert got == value
    assert list(solver._values) == list(reference.values)  # the same walk order
    assert type(got) is Fraction
    assert solver.best_moves(position) == reference.best_moves(position)
    assert final_scores(solver.to_game(position)) == FinalScores(value, -value)


@settings(max_examples=60, deadline=None)
@given(rules_named("a"), rules_named("b"), two_ruleset_heaps)
@example(HALF, TWO_THIRDS, [("a", 5), ("b", 4)])
def test_move_generation_matches_reference(a, b, heaps):
    """``legal_moves`` and the solver's scaled moves agree with the
    reference, move for move and in the same order, at every position
    ``to_game`` reaches."""
    rules = (a, b)
    solver = GrundySolver(rules)
    solver.to_game(Position(tuple(heaps)))
    assert solver._class_of
    for position in solver._class_of:
        reference = ref_legal_moves(position, rules)
        assert legal_moves(position, rules) == reference
        scaled = octal._next_moves(position, solver.rules, solver._awards)
        assert scaled == [(move.points * solver.scale, move.next) for move in reference]
        assert all(type(award) is int for award, _ in scaled)


@settings(max_examples=60, deadline=None)
@given(
    rules_named("a"),
    rules_named("b"),
    st.tuples(two_ruleset_heaps, two_ruleset_heaps).filter(
        lambda pq: sum(size for _, size in pq[0] + pq[1]) <= 10
    ),
)
def test_heap_games_add_under_the_long_rule(a, b, pq):
    """The game of heaps ``p + q`` is the long-rule sum of the games of
    ``p`` and ``q``, the very same shared node.  Values do not add:
    ``test_value_of_two_equal_heaps_is_zero`` is the matching example,
    two heaps of value 4 whose sum has value 0."""
    p, q = pq
    solver = GrundySolver((a, b))
    whole = solver.to_game(Position(tuple(p + q)))
    assert whole is add(solver.to_game(Position(tuple(p))), solver.to_game(Position(tuple(q))))


def test_scale_is_one_lcm_over_all_rulesets():
    solver = GrundySolver([HALF, TWO_THIRDS])
    assert solver.scale == 6
    assert solver.value(Position((("a", 1), ("b", 1)))) == Fraction(2, 3) - Fraction(1, 2)
    assert solver.sweep(3, var="b") == [0, 4, 0, 4]  # the values times 6


SPLITS = OctalRules("a", (7, 7, 7, 7), (1, 1, 1, 1))
TAKE_ONE = OctalRules("b", (1,), (1,))


@settings(max_examples=40, deadline=None)
@given(rules_named("a"), rules_named("b"), two_ruleset_heaps, st.integers(0, 30))
@example(SPLITS, TAKE_ONE, [("a", 5), ("b", 4)], 5)  # 8 moves; the full walk values 1 position first
@example(SPLITS, TAKE_ONE, [("a", 5), ("a", 4)], 12)
def test_budget_errors_match_fraction_reference(a, b, heaps, budget):
    """The same error and the same memo as the reference, which refuses a
    position with too many moves as the solver does.  The reference's full
    walk, without that check, fails with the same error: every next
    position is held before the position itself is valued."""
    rules = (a, b)
    position = Position(tuple(heaps))
    ask = lambda solver: solver.value(position)  # noqa: E731
    solver = GrundySolver(rules, budget=budget)
    reference = FractionReference(rules, budget=budget)
    outcome = budget_outcome(ask, reference)
    assert budget_outcome(ask, solver) == outcome
    assert list(solver._values) == list(reference.values)  # where a budget trips depends on it
    full_walk = FractionReference(rules, budget=budget, count_moves=False)
    assert budget_outcome(ask, full_walk)[0] == outcome[0]


@settings(max_examples=60, deadline=None)
@given(rules_named("a"), rules_named("b"), two_ruleset_heaps, st.integers(0, 40))
@example(SPLITS, TAKE_ONE, [("a", 5), ("a", 4)], 14)  # 14 moves, 6 of them splits
@example(SPLITS, TAKE_ONE, [("a", 5), ("a", 4)], 13)
@example(SPLITS, TAKE_ONE, [("a", 5), ("b", 4)], 8)
@example(SPLITS, TAKE_ONE, [("a", 5), ("b", 4)], 7)
def test_move_limit_refuses_exactly_the_positions_with_more_moves(a, b, heaps, limit):
    """``_next_moves`` gives up only when the full move list is longer
    than the limit, which holds only if a take's splits are all new."""
    solver = GrundySolver((a, b))
    position = Position(tuple(heaps))
    moves = octal._next_moves(position, solver.rules, solver._awards)
    limited = octal._next_moves(position, solver.rules, solver._awards, limit)
    assert limited == (None if len(moves) > limit else moves)


def _refuse_a_splitting_heap_before_its_moves_are_built() -> None:
    """The body of the test below, run in a child process: it patches
    ``octal._next_moves`` for good, and the child exits after it."""
    built = []
    next_moves = octal._next_moves

    def recording_next_moves(*args):
        built.append(next_moves(*args))
        return built[-1]

    octal._next_moves = recording_next_moves
    asks = {
        "value": GrundySolver.value,
        "best_moves": GrundySolver.best_moves,
        "to_game": lambda solver, position: solver.to_game(position, max_total=2000),
    }
    for name, ask in asks.items():
        built.clear()
        solver = GrundySolver(O26, budget=10)
        with pytest.raises(BudgetExceededError, match=r"^position budget exceeded \(10 positions\) evaluating 2000@o26$"):
            ask(solver, heap(2000, O26))
        assert built == [None], name
        assert solver.positions_evaluated == 0, name
        # with fewer moves than the budget, it trips as before, once positions are held
        small = GrundySolver(O26, budget=10)
        with pytest.raises(BudgetExceededError, match=r"evaluating 12@o26$"):
            ask(small, heap(12, O26))
        assert None not in built[1:], name
        assert small.positions_evaluated > 0, name


def test_a_splitting_heap_with_too_many_moves_is_refused_before_they_are_built():
    """2000@o26 has 1,001 moves, more than a budget of 10 can hold, so its
    move list is never built.  ``best_moves`` values the position before
    it lists the root's moves, and ``to_game`` values each position it
    classes, so both refuse the position as ``value`` does.  The checks
    run in a child under a 1 GiB address-space cap, so a regression that
    builds every split fails fast instead of exhausting memory.  (The CLI
    tests run a heap of 10**8 beans under the same cap.)"""
    tests = str(Path(__file__).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([tests, str(Path(octal.__file__).parents[1])])}
    check = "import test_octal; test_octal._refuse_a_splitting_heap_before_its_moves_are_built()"
    result = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space,
    )
    assert result.returncode == 0, result.stderr


def test_to_game_generates_each_positions_moves_once(monkeypatch):
    """The walk that classes a position values it too, so ``value`` after
    ``to_game`` is a memo hit: the oracle's order."""
    positions = [Position(tuple(("o26", size) for size in heaps)) for heaps in iter_heap_multisets(8)]
    reference = FractionReference([O26])
    expected = [reference.value(position) for position in positions]
    calls = Counter()
    next_moves = octal._next_moves

    def counting_next_moves(position, *args):
        calls[position] += 1
        return next_moves(position, *args)

    monkeypatch.setattr(octal, "_next_moves", counting_next_moves)
    solver = GrundySolver(O26)
    for position in positions:
        solver.to_game(position)
    assert solver._class_of.keys() == solver._values.keys()
    assert [solver.value(position) for position in positions] == expected
    assert len(calls) == 67  # every position of at most 8 beans is reached
    assert set(calls.values()) == {1}


def test_value_keeps_no_move_lists():
    """Move lists live only while ``value``, ``best_moves`` or ``to_game``
    runs; kept, they would hold every move of every position reached."""
    solver = GrundySolver(rules_from_name("o26"))
    solver.value(Position((("o26", 20),)))
    solver.best_moves(Position((("o26", 22),)))
    solver.to_game(Position((("o26", 12),)))
    for name, attr in vars(solver).items():
        if isinstance(attr, dict):
            assert not any(isinstance(v, list) for v in attr.values()), name


# ---------------------------------------------------------------------------
# Expansion to explicit games


def test_single_bean_nim_expands_to_star_like_game():
    solver = GrundySolver(standard_nim(1))
    game = solver.to_game(Position((("nim1", 1),)))
    assert game == parse_game("{1|0|-1}")
    assert final_scores(game) == FinalScores(Fraction(1), Fraction(-1))


def test_expansion_matches_value_and_its_negation():
    solver = GrundySolver(SUB45)
    for n in range(0, 11):
        game = solver.to_game(heap(n))
        value = solver.value(heap(n))
        assert final_scores(game) == FinalScores(value, -value)


def test_expansion_agrees_with_naive_minimax():
    o26 = OctalRules("o26", (2, 6), (1, 2))
    solver = GrundySolver(o26)
    for n in range(0, 9):
        game = solver.to_game(Position((("o26", n),)))
        sl, sr = naive_final_scores(game)
        assert solver.value(Position((("o26", n),))) == sl == -sr


@settings(max_examples=60, deadline=None)
@given(rules_named("a"), rules_named("b"), two_ruleset_heaps)
@example(HALF, TWO_THIRDS, [("a", 5), ("b", 4)])
def test_class_expansion_matches_per_position_expansion(a, b, heaps):
    """Keying the expansion by class builds the very node that keying it
    by position does, split digits and two rulesets included."""
    rules = (a, b)
    position = Position(tuple(heaps))
    assert GrundySolver(rules).to_game(position) is ref_to_game(position, rules)


# Heaps of 2 to 4 beans are dead: 1 bean may only be taken from a 1-bean
# heap, and taking 4 must leave a heap.
BAND = parse_rules_document("name: band; digits: 1 0 0 6; points: 1 1/2 1 -1")


def test_heaps_with_the_same_moves_share_a_class():
    solver = GrundySolver(SUB45)
    assert solver.to_game(heap(6)) is solver.to_game(heap(7))
    assert solver._class_of[heap(6)] == solver._class_of[heap(7)]


def test_dead_heaps_drop_out_of_the_expansion():
    solver = GrundySolver(BAND)
    for heaps in iter_heap_multisets(7):
        position = Position(("band", size) for size in heaps)
        padded = position.add_heap("band", 3)
        assert solver.to_game(padded, max_total=10) is solver.to_game(position)
        assert solver._class_of[padded] == solver._class_of[position]


def test_expansion_builds_one_node_per_key():
    """The oracle's loop: no two (class, running score) keys share a node."""
    for rules in (rules_from_name("o26"), SUB45, BAND):
        solver = GrundySolver(rules)
        for heaps in iter_heap_multisets(10):
            position = Position((rules.name, size) for size in heaps)
            solver.value(position)
            solver.to_game(position, max_total=10)
        assert len(solver._games) == len(set(solver._games.values())), rules.name
        assert len(solver._classes) < len(solver._class_of), rules.name


def test_to_game_counts_against_the_budget():
    """``to_game`` is bounded by the budget as well as by ``max_total``: at
    every budget it fails with ``value``'s error at the same position and
    holds the same memo, in the same order."""
    rules = (O26, SUB45)
    for position in heap(12, O26), Position((("o26", 5), ("o26", 4))), Position((("o26", 6), ("sub45", 9))):
        for budget in range(60):  # past every position's count, so both fail and succeed
            by_value = GrundySolver(rules, budget=budget)
            by_game = GrundySolver(rules, budget=budget)
            outcome = budget_outcome(lambda solver: solver.value(position), by_value)
            assert budget_outcome(lambda solver: solver.to_game(position), by_game) == outcome, (position, budget)
            assert list(by_game._values) == list(by_value._values), (position, budget)
    solver = GrundySolver(O26, budget=0)
    with pytest.raises(BudgetExceededError, match=r"^position budget exceeded \(0 positions\) evaluating 8@o26$"):
        solver.to_game(heap(8, O26))
    assert solver.positions_evaluated == 0


def test_to_game_counts_the_positions_value_holds():
    """The budget is per solver: positions that ``value`` memoized count
    against a later ``to_game`` walk over other positions."""
    rules = (O26, SUB45)
    big, small = heap(40), heap(10, O26)  # no position lies under both
    valued, classed = GrundySolver(rules), GrundySolver(rules)
    valued.value(big)
    classed.to_game(small)
    room = valued.positions_evaluated + classed.positions_evaluated
    tight, enough = GrundySolver(rules, budget=room - 1), GrundySolver(rules, budget=room)
    for solver in (tight, enough):
        solver.value(big)
    with pytest.raises(BudgetExceededError, match=rf"^position budget exceeded \({room - 1} positions\) evaluating 10@o26$"):
        tight.to_game(small)
    assert enough.to_game(small) is classed.to_game(small)
    assert enough.positions_evaluated == room


def test_a_dropped_solver_frees_its_nodes():
    """The solver holds its nodes without a reference cycle, so they die
    with it, before any cyclic collection."""
    gc.collect()
    gc.disable()
    try:
        before = len(games._INTERNED)
        solver = GrundySolver(BAND)
        for heaps in iter_heap_multisets(8):
            solver.to_game(Position(("band", size) for size in heaps))
        assert len(games._INTERNED) > before
        del solver
        assert len(games._INTERNED) == before
    finally:
        gc.enable()


def test_expansion_limit_guards_blowup():
    with pytest.raises(ExpansionLimitError):
        GrundySolver(SUB45).to_game(heap(17))
    GrundySolver(SUB45).to_game(heap(17), max_total=17)  # explicit opt-in works


def test_deep_expansion_does_not_hit_recursion_limit():
    """With zero awards a 5,000-bean heap expands to a 5,000-deep chain."""
    solver = GrundySolver(OctalRules("z1", (3,), (0,)))
    position = Position((("z1", 5000),))
    start = time.perf_counter()
    game = solver.to_game(position, max_total=5000)
    assert time.perf_counter() - start < 1.0
    value = solver.value(position)
    assert final_scores(game) == FinalScores(value, -value)


# ---------------------------------------------------------------------------
# Heap multiset enumeration


def test_iter_heap_multisets_small():
    assert list(iter_heap_multisets(3)) == [
        (),
        (3,),
        (2,),
        (2, 1),
        (1,),
        (1, 1),
        (1, 1, 1),
    ]


def test_iter_heap_multisets_refuses_a_negative_total():
    with pytest.raises(ValueError, match="^max_total must be nonnegative$"):
        iter_heap_multisets(-1)
    assert list(iter_heap_multisets(0)) == [()]


def test_iter_heap_multisets_counts_partitions():
    # 1 + partitions of 1..6 = 1 + (1+2+3+5+7+11)
    assert len(list(iter_heap_multisets(6))) == 30
    for heaps in iter_heap_multisets(6):
        assert list(heaps) == sorted(heaps, reverse=True)
        assert sum(heaps) <= 6


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), max_size=4), st.integers(0, 9))
def test_value_is_order_independent(sizes, extra):
    """The memoized value never depends on which positions were asked first."""
    fresh = GrundySolver(SUB45)
    warmed = GrundySolver(SUB45)
    warmed.sweep(extra)
    position = Position(tuple(("sub45", s) for s in sizes))
    assert fresh.value(position) == warmed.value(position)
