"""Acceptance suite: ten end-to-end checks with explicit time budgets.

Each test prints one summary line (visible with ``pytest -s``) so a run
doubles as a checklist.  Frozen tables and literals appear inline; every
equality here is exact rational arithmetic, never approximate.
"""

import dataclasses
import time

from scoreplay.cli import main
from scoreplay.games import (
    add,
    final_scores,
    generate_impartial,
    identity_game,
    is_impartial,
    negate,
    outcome,
    Outcome,
    parse_game,
)
from scoreplay.octal import (
    GrundySolver,
    Position,
    iter_heap_multisets,
    rules_from_name,
    standard_nim,
    subtraction_rules,
)
from scoreplay.periods import (
    _nonempty_subsets,
    certify_period,
    check_lemma,
    detect_period,
    parse_scan_spec,
    run_scan,
    scan_instance,
)
from support import greedy_nim_value, naive_final_scores


def test_criterion_01_table_reproduction(capsys):
    """The frozen 16-entry value table is emitted byte-exactly."""
    start = time.perf_counter()
    code = main(
        [
            "table",
            "--rules", "name: sub45; digits: [0,0,0,3,3]; points: [0,0,0,4,5]",
            "--max-n", "15",
        ]
    )
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    expected = "n,value\n" + "\n".join(
        f"{n},{v}" for n, v in enumerate([0, 0, 0, 0, 4, 5, 5, 5, 5, 1, 0, 0, 0, 3, 4, 5])
    ) + "\n"
    assert code == 0
    assert out == expected
    assert elapsed < 1.0
    print(f"criterion 1: pass (16 exact table entries, {elapsed:.3f}s)")


def test_criterion_02_best_move_from_thirteen():
    """From heap 13, taking 4 is the unique optimal move, worth 3."""
    solver = GrundySolver(rules_from_name("sub45"))
    position = Position((("sub45", 13),))
    assert solver.value(position) == 3
    best = solver.best_moves(position)
    assert len(best) == 1
    assert position.total - best[0].next.total == 4
    assert best[0].points - solver.value(best[0].next) == 3
    print("criterion 2: pass (unique best move takes 4 for value 3)")


def test_criterion_03_period_five():
    """Take-up-to-4-score-2: frozen first values, then a certified period 5."""
    start = time.perf_counter()
    rules = rules_from_name("o3333p2")
    solver = GrundySolver(rules)
    assert solver.sweep(10) == [0, 2, 2, 2, 2, 0, 2, 2, 2, 2, 0]
    values = solver.sweep(60)
    report = detect_period(values)
    assert (report.preperiod, report.period) == (0, 5)
    assert certify_period(rules, report, values) is True
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3: pass (period 5 certified, {elapsed:.3f}s)")


def test_criterion_04_evaluator_matches_expanded_trees():
    """value(p) = sl = -sr on every position with at most 12 beans."""
    start = time.perf_counter()
    rulesets = [subtraction_rules(s) for s in _nonempty_subsets(range(1, 6))]
    rulesets += [rules_from_name("o3333p2"), rules_from_name("o26")]
    multisets = list(iter_heap_multisets(12))
    checked = 0
    for rules in rulesets:
        solver = GrundySolver(rules)
        for heaps in multisets:
            position = Position(tuple((rules.name, size) for size in heaps))
            # value first, so the value memo's own walk is checked against the
            # trees; the CLI oracle runs to_game first and checks that order
            value = solver.value(position)
            sl, sr = final_scores(solver.to_game(position, max_total=12))
            assert value == sl == -sr, (rules.name, heaps)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == len(rulesets) * len(multisets) == 33 * 272
    assert elapsed < 60.0
    print(f"criterion 4: pass ({checked} positions across 33 rulesets, {elapsed:.1f}s)")


def test_criterion_05_alternation_identity_suite():
    """The alternation identity and its bounds hold for all S within {1..6}."""
    start = time.perf_counter()
    for subset in _nonempty_subsets(range(1, 7)):
        report = check_lemma(subset, i_max=15)
        assert report.passed, subset
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 5: pass (63 subtraction sets, i_max=15, {elapsed:.1f}s)")


def test_criterion_06_identity_game_is_neutral():
    """Summing with the identity changes no final score on 500 games."""
    start = time.perf_counter()
    neutral = identity_game()
    for seed in range(500):
        game = generate_impartial(max_depth=4, max_branch=3, seed=seed)
        assert final_scores(add(game, neutral)) == final_scores(game), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 6: pass (500 generated games, {elapsed:.1f}s)")


def test_criterion_07_inverse_counterexample():
    """A self-negating impartial game whose self-sum is a second-player win."""
    game = parse_game("{2,{1|2|3}|0|-2,{-3|-2|-1}}")
    assert negate(game) == game
    assert outcome(add(game, game)) is Outcome.P
    print("criterion 7: pass (G = -G yet G+G is a P-position)")


def test_criterion_08_five_outcome_exhibit():
    """Impartial games realize all five outcome classes."""
    exhibits = [
        ("{1|5|9}", Outcome.L),
        ("{-9|-5|-1}", Outcome.R),
        ("{1|0|-1}", Outcome.N),
        ("{-1|0|1}", Outcome.P),
        ("{|0|}", Outcome.TIE),
    ]
    for text, expected in exhibits:
        game = parse_game(text)
        assert is_impartial(game), text
        assert outcome(game) is expected, text
    print("criterion 8: pass (L, R, N, P, Tie all realized impartially)")


def test_criterion_09_greedy_nim():
    """Scoring nim value = alternating sorted heap sum = minimax on the tree."""
    start = time.perf_counter()
    nim = standard_nim(10)
    solver = GrundySolver(nim)
    checked = 0
    for heaps in iter_heap_multisets(10):
        position = Position(tuple((nim.name, size) for size in heaps))
        value = solver.value(position)
        assert value == greedy_nim_value(heaps), heaps
        sl, sr = naive_final_scores(solver.to_game(position, max_total=10))
        assert value == sl == -sr, heaps
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 9: pass ({checked} heap multisets, {elapsed:.1f}s)")


FAMILY_SPEC = """seed: 0
max-n: 500
subtraction-family: 1-7
"""


def test_criterion_10_family_scan_reports_evidence():
    """The take-s-score-s family scan is complete, reproducible, and makes
    no counterexample claim that re-verification at doubled range drops."""
    start = time.perf_counter()
    spec = parse_scan_spec(FAMILY_SPEC)
    report = run_scan(spec)
    again = run_scan(parse_scan_spec(FAMILY_SPEC))
    elapsed = time.perf_counter() - start

    assert len(report.rows) == 127
    assert all(row.status == "ok" for row in report.rows)
    assert report.to_csv() == again.to_csv()  # byte-reproducible

    for row in report.rows:
        assert row.in_hypothesis, row.instance
        if row.certified:
            assert row.divides_2k is not None, row.instance

    flagged = [row for row in report.rows if row.counterexample]
    false_flags = []
    for row in flagged:
        (instance,) = [inst for inst in spec.instances if inst.rules.name == row.instance]
        widened = scan_instance(dataclasses.replace(instance, max_n=row.max_n * 2))
        if not widened.counterexample:
            false_flags.append(row.instance)
    assert false_flags == []
    assert flagged == []  # the divisor relation held on every certified row

    certified = sum(row.certified for row in report.rows)
    print(
        f"criterion 10: pass (127 instances, {certified} certified, "
        f"reproducible, zero flags, {elapsed:.1f}s)"
    )
