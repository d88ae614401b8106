"""Mutation gate for the period certificate and the solver's walk: every listed mutant must be killed.

Each row of ``MUTANTS`` changes one piece of text in ``src/scoreplay``.  The
runner copies ``src``, ``tests``, ``pyproject.toml`` and ``README.md`` into a
temporary directory, applies the mutant there (the worktree is never
edited) and runs the row's tests against the copy.  A mutant is killed when
every one of its tests fails.  An equivalent mutant changes no output, so it
is listed with the reason and not run.  Before any mutant, the tests run
once against the unmutated copy, where all of them must pass.

Usage:  python tests/mutants.py [LABEL ...]

With labels, only those mutants run.  Exits nonzero when a mutant survives,
when only some of its tests fail, or when the tests did not import the
copy's ``scoreplay``.  Standard library only, besides pytest in the child.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    file: str  # relative to src/scoreplay
    old: str
    new: str
    label: str
    tests: tuple[str, ...]  # pytest node ids that must all fail
    equivalent: str | None = None  # why no output can change; such a mutant is not run


P = "tests/test_periods.py::"
O = "tests/test_octal.py::"
C = "tests/test_cli.py::"
VALUE_FORMULA = "            values[pos] = max((award - values[nxt] for award, nxt in moves), default=0)\n"

MUTANTS = (
    # -- the certified search (periods.detect_certified_period)
    Mutant(
        "periods.py",
        "        if max(preperiod, 1) + period + lookback <= count:",
        "        if preperiod + period + lookback <= count:",
        "certificate-from-index-0",
        (P + "test_f_matches_from_index_0_alone_do_not_certify",
         P + "test_certified_search_falls_back_when_data_runs_short",
         "tests/test_readme.py::test_readme_python_examples_pass"),
    ),
    Mutant(
        "periods.py",
        "        if max(preperiod, 1) + period + lookback <= count:",
        "        if max(preperiod, 1) + period + lookback - 1 <= count:",
        "certificate-one-match-short",
        (P + "test_f_minus_1_matches_do_not_certify",
         P + "test_a_divergence_after_p_plus_f_minus_1_matches_does_not_certify"),
    ),
    Mutant(
        "periods.py",
        "    _check_window(count, min_window)\n    lookback = len(rules.digits)",
        "    lookback = len(rules.digits)",
        "certified-search-skips-window-check",
        (P + "test_certified_search_validates_min_window_it_does_not_apply",),
    ),
    Mutant(
        "periods.py",
        "    for period in range(1, longest + 1):",
        "    for period in range(1, longest):",
        "longest-period-skipped",
        (P + "test_detect_prefers_smallest_period_then_smallest_preperiod",
         P + "test_certify_needs_a_full_window"),
    ),
    Mutant(
        "periods.py",
        "    for preperiod, period in _period_candidates(values, count - lookback):",
        "    for preperiod, period in _period_candidates(values, count - lookback - 1):",
        "candidate-bound-one-short",
        (),
        "the only period dropped, p = count - f, certifies only if max(P, 1) <= 0",
    ),
    Mutant(
        "periods.py",
        "            return PeriodReport(preperiod, period, certified=True)\n    return detect_period(values, min_window)",
        "            return PeriodReport(preperiod, period, certified=True)\n    return None",
        "empirical-answer-dropped",
        (P + "test_certified_search_falls_back_when_data_runs_short",
         P + "test_certified_search_matches_certifying_each_candidate_on_sweeps[sub45]"),
    ),
    Mutant(
        "periods.py",
        "    if base or rules.splits_heaps:\n        return detect_period(values, min_window)",
        "    if rules.splits_heaps:\n        return detect_period(values, min_window)",
        "fixed-base-certifies",
        (P + "test_scan_instance_fixed_base_stays_empirical",),
    ),
    Mutant(
        "periods.py",
        "    if base or rules.splits_heaps:\n        return detect_period(values, min_window)",
        "    if base:\n        return detect_period(values, min_window)",
        "splitting-rules-certify",
        (P + "test_certified_search_keeps_splitting_rules_empirical",),
    ),
    # -- certify_period, the independent check
    Mutant(
        "periods.py",
        "    if rules.splits_heaps:\n        return False",
        "",
        "certify-period-accepts-splitting-rules",
        (P + "test_certify_refuses_splitting_rules",),
    ),
    # -- the scan row
    Mutant(
        "periods.py",
        "        counterexample=certified and in_hypothesis and divides is False,",
        "        counterexample=in_hypothesis and divides is False,",
        "counterexample-uncertified",
        (P + "test_scan_row_flags_only_a_certified_nondivisor_in_the_hypothesis[False]",),
    ),
    Mutant(
        "periods.py",
        "    return 2 * k, all(",
        "    return 2 * k, any(",
        "2k-hypothesis-any-for-all",
        (P + "test_scan_instance_points_on_a_zero_digit_leave_the_hypothesis",
         P + "test_scan_instance_certified_nondivisor_outside_hypothesis_not_flagged"),
    ),
    Mutant(
        "periods.py",
        "    if values.proved is not None:",
        "    if False:",
        "scan-row-searches-despite-the-proof",
        (P + "test_family_rows_are_the_same_through_the_fallback",),
    ),
    Mutant(
        "periods.py",
        "    text = {x: format_score(x // scale if x % scale == 0 else Fraction(x, scale)) for x in set(values)}",
        "    text = {x: str(x // scale) if x % scale == 0 else format_score(Fraction(x, scale)) for x in set(values)}",
        "whole-value-rendered-by-str",
        (P + "test_render_scaled_names_the_digit_limit_for_a_whole_value",),
    ),
    # -- what a report may claim
    Mutant(
        "periods.py",
        "        if operator.index(self.preperiod) < 0 or operator.index(self.period) < 1:",
        "        if operator.index(self.preperiod) < 0 or operator.index(self.period) < 0:",
        "report-allows-period-0",
        (P + "test_a_period_report_refuses_what_no_sequence_has[period-0]",),
    ),
    Mutant(
        "periods.py",
        "    if period < 1:\n        raise ValueError(f\"period must be at least 1, got {period}\")\n",
        "",
        "verify-period-allows-period-0",
        (P + "test_verify_period_refuses_a_period_below_1",),
    ),
    # -- the single-heap fill's repeat (octal.GrundySolver._single_heap_table)
    Mutant(
        "octal.py",
        "                    while start and table[start - 1] == table[start - 1 + period]:",
        "                    while start > 1 and table[start - 1] == table[start - 1 + period]:",
        "walk-down-stops-at-1",
        (O + "test_a_sweeps_repeat_proves_the_least_preperiod[sub1-(0, 2)]",
         O + "test_a_sweeps_repeat_proves_the_least_preperiod[sub3-(0, 6)]"),
    ),
    Mutant(
        "octal.py",
        "                    while start and table[start - 1] == table[start - 1 + period]:\n"
        "                        start -= 1\n",
        "",
        "no-walk-down",
        (O + "test_a_sweeps_repeat_proves_the_least_preperiod",),
    ),
    Mutant(
        "octal.py",
        "                    period = len(table) - anchor\n",
        "                    period = len(table) - anchor + 1\n",
        "period-one-too-long",
        (O + "test_a_sweeps_repeat_proves_the_least_preperiod",
         O + "test_a_fill_returns_a_table_equal_to_its_values[hash-fill-repeat]"),
    ),
    Mutant(
        "octal.py",
        "table[anchor - lookback : anchor] == table[-lookback:]",
        "table[anchor - lookback + 1 : anchor] == table[-lookback + 1 :]",
        "fill-compares-f-minus-1-entries",
        (O + "test_fill_is_exact_when_every_window_hash_collides[sub3-100]",
         O + "test_fill_is_exact_when_every_window_hash_collides[sub467-400]",
         O + "test_a_sweeps_repeat_proves_the_least_preperiod[sub1-(0, 2)]"),
    ),
    Mutant(
        "octal.py",
        "                if window == anchor_window and table[anchor - lookback : anchor] == table[-lookback:]:\n",
        "                if window == anchor_window:\n",
        "repeat-proved-by-its-hash-alone",
        (O + "test_a_fill_returns_a_table_equal_to_its_values[collide-no-repeat-yet]",),
    ),
    Mutant(
        "octal.py",
        "            return SweepTable(self._scaled_value(base.add_heap(var, n)) for n in range(max_n + 1))\n",
        "            table = SweepTable(self._scaled_value(base.add_heap(var, n)) for n in range(max_n + 1))\n"
        "            table.proved = self._single_heap_table(rules, max_n).proved\n"
        "            return table\n",
        "memo-path-carries-the-fill-pair",
        (O + "test_a_sweep_without_a_repeat_proves_no_period[fixed-base]",
         O + "test_a_sweep_without_a_repeat_proves_no_period[splitting]",
         P + "test_scan_instance_fixed_base_stays_empirical"),
    ),
    Mutant(
        "octal.py",
        "        lookback = len(digits)\n",
        "        lookback = max(take for take, _ in keeps)\n",
        "lookback-largest-surviving-take",
        (O + "test_only_a_repeat_of_the_whole_lookback_window_proves_a_period[collide-301]",),
    ),
    # -- one walk values and classes (octal.GrundySolver._expand)
    Mutant(
        "octal.py",
        VALUE_FORMULA,
        "            if done is values:\n    " + VALUE_FORMULA,
        "to-game-walk-values-nothing",
        (O + "test_to_game_generates_each_positions_moves_once",
         O + "test_to_game_counts_against_the_budget",
         C + "test_oracle_builds_each_positions_moves_once"),
    ),
    Mutant(
        "octal.py",
        "            if moves is None or room is not None and len(values) + len(pending) > room:",
        "            if moves is None or room is not None and len(done) + len(pending) > room:",
        "budget-counts-the-done-set",
        (O + "test_to_game_counts_the_positions_value_holds",),
    ),
    Mutant(
        "octal.py",
        VALUE_FORMULA,
        VALUE_FORMULA.replace("award - values[nxt]", "values[nxt] - award"),
        "value-formula-sign-flip",
        (O + "test_expansion_matches_value_and_its_negation",
         O + "test_scaled_solver_matches_fraction_reference"),
    ),
)

# Runs in the child: pytest over the named tests, then one JSON line with
# the exit code, the failed node ids and the file scoreplay was imported from.
CHILD = """
import json, sys
import pytest

class Failures:
    def __init__(self):
        self.ids = set()

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.add(report.nodeid)

failures = Failures()
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]], plugins=[failures])
module = sys.modules.get("scoreplay")
print(json.dumps({"code": int(code), "failed": sorted(failures.ids), "module": getattr(module, "__file__", None)}))
"""


def run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[int, set[str], str]:
    """Run ``tests`` in ``copy`` against its own ``src``: (exit code, failed ids, output)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *tests], cwd=copy, env=env, capture_output=True, text=True, timeout=600
    )
    output = result.stdout + result.stderr
    try:
        summary = json.loads(result.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"the test run printed no summary:\n{output}") from None
    module = summary["module"]
    if module is None or not Path(module).resolve().is_relative_to(copy.resolve()):
        raise SystemExit(f"the tests imported scoreplay from {module}, not from the copy {copy}")
    return summary["code"], set(summary["failed"]), output


def copy_tree(into: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)
    return into


def apply(copy: Path, mutant: Mutant) -> None:
    path = copy / "src" / "scoreplay" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.label}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main(labels: list[str]) -> int:
    chosen = [m for m in MUTANTS if not labels or m.label in labels]
    unknown = set(labels) - {m.label for m in MUTANTS}
    if unknown:
        print(f"unknown mutant labels: {', '.join(sorted(unknown))}")
        return 2
    bad = []
    with tempfile.TemporaryDirectory(prefix="scoreplay-mutants-") as scratch:
        named = tuple(dict.fromkeys(t for m in chosen if m.equivalent is None for t in m.tests))
        if named:
            code, _, output = run_tests(copy_tree(Path(scratch) / "unmutated"), named)
            if code != 0:
                print(output)
                print("the named tests do not all pass on the unmutated copy")
                return 1
        for index, mutant in enumerate(chosen):
            if mutant.equivalent is not None:
                print(f"equivalent  {mutant.label}: {mutant.equivalent}")
                continue
            copy = copy_tree(Path(scratch) / f"mutant-{index}")
            apply(copy, mutant)
            code, failed_ids, output = run_tests(copy, mutant.tests)
            # a test id without parameters fails when any of its cases fails
            passing = [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed_ids)]
            if code not in (0, 1):
                print(output)
                detail = f"pytest exit status {code}"
            elif passing:
                detail = f"still passing: {', '.join(passing)}"
            else:
                detail = f"all {len(mutant.tests)} named tests fail"
            killed = detail.startswith("all")
            print(f"{'killed' if killed else 'SURVIVED':<11} {mutant.label}: {detail}")
            if not killed:
                bad.append(mutant.label)
            shutil.rmtree(copy)
    run = sum(m.equivalent is None for m in chosen)
    print(f"{run - len(bad)} of {run} mutants killed, {len(chosen) - run} listed as equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
