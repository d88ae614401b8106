"""Command-line behavior: exact stdout lines, exit codes, file outputs."""

import io
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreplay import cli, octal, periods
from scoreplay.cli import main
from scoreplay.games import MAX_RENDER_CHARS, FinalScores, format_score
from scoreplay.octal import BudgetExceededError, GrundySolver, OctalRules, Position, standard_nim
from scoreplay.periods import ScanInstance, ScanSpec
from support import INT_DIGIT_LIMIT, NINES, non_splitting_rules


@pytest.fixture
def run(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# ---------------------------------------------------------------------------
# Game commands


def test_eval_simple_game(run):
    code, out, err = run("eval", "--game", "{4|3|2}")
    assert code == 0
    assert out == "sl=4 sr=2 outcome=L impartial=true\n"
    assert err == ""


def test_eval_two_level_game(run):
    code, out, _ = run("eval", "--game", "{2,{11|4|-3}|3|4,{9|2|-5}}")
    assert code == 0
    assert out == "sl=2 sr=4 outcome=L impartial=true\n"


def test_eval_fractional_scores(run):
    code, out, _ = run("eval", "--game", "{1/2|0|-1/2}")
    assert code == 0
    assert out.startswith("sl=1/2 sr=-1/2 ")


@pytest.mark.parametrize("argv", [["--game", "-3/2"], ["--game=-3/2"]])
def test_eval_negative_score_as_separate_value(run, argv):
    code, out, err = run("eval", *argv)
    assert code == 0
    assert out == "sl=-3/2 sr=-3/2 outcome=R impartial=true\n"
    assert err == ""


def test_sum_and_tree_take_negative_games(run):
    code, out, _ = run("sum", "--game", "-3/2", "--game", "-0.5", "--eval")
    assert code == 0
    assert out == "-2\nsl=-2 sr=-2 outcome=R impartial=true\n"
    code, out, _ = run("tree", "--game", "-1/2")
    assert (code, out) == (0, "-1/2\n")


def test_sum_renders_canonical_notation(run):
    code, out, _ = run("sum", "--game", "{4|3|2}", "--game", "1")
    assert code == 0
    assert out == "{5|4|3}\n"


def test_sum_with_eval(run):
    code, out, _ = run("sum", "--game", "2", "--game", "3", "--eval")
    assert out == "5\nsl=5 sr=5 outcome=L impartial=true\n"
    assert code == 0


_DEEP_CHAIN = "{" * 3000 + "7" + "|0|0}" * 3000


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["eval", "--game", _DEEP_CHAIN], "sl=0 sr=0 outcome=Tie impartial=false"),
        (["tree", "--game", _DEEP_CHAIN], "  R 0"),
        (["sum", "--game", _DEEP_CHAIN, "--game", "1", "--eval"], "sl=1 sr=1 outcome=L impartial=false"),
    ],
    ids=["eval", "tree", "sum"],
)
def test_deep_games_need_no_recursion(run, argv, last_line):
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "argv",
    [
        ["gs", "--rules", "sub1", "--position", "3000@sub1"],
        ["table", "--rules", "sub1", "--max-n", "4", "--fixed", "3000@sub1"],
        ["period", "--rules", "sub1", "--max-n", "8", "--fixed", "3000@sub1"],
    ],
    ids=["gs", "table", "period"],
)
def test_deep_positions_exit_cleanly(run, argv):
    """A 3,000-move heap game either works or fails with a typed error; an
    uncaught exception, such as a RecursionError, fails the call itself."""
    code, out, err = run(*argv)
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")


def test_deep_plus_wide_sum_fails_with_a_typed_error(run):
    """The sum has a few nodes per level, but its notation writes each
    shared subtree out in full and would run to gigabytes."""
    code, out, err = run("sum", "--game", _DEEP_CHAIN, "--game", "{{0|0|0}|0|{0|0|0}}", "--eval")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: game notation would exceed {MAX_RENDER_CHARS} characters"]


def test_eval_of_siblings_alike_ten_thousand_levels_deep(run):
    def chain(leaf):
        return "{" * 10_000 + leaf + "|0|}" * 10_000

    code, out, err = run("eval", "--game", "{" + chain("1") + "," + chain("0") + "|0|}")
    assert (code, out, err) == (0, "sl=0 sr=0 outcome=Tie impartial=false\n", "")


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="int() converts any number of digits")
def test_eval_of_an_over_long_score_literal_names_its_position(run):
    code, out, err = run("eval", "--game", "{" + "1" * (INT_DIGIT_LIMIT + 1) + "|0|}")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: score literal has too many digits (at character 1)"]


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="str() converts any number of digits")
def test_sum_too_long_to_print_names_the_digit_limit(run):
    nines = "9" * INT_DIGIT_LIMIT  # each game reads, but their sum has one digit more
    code, out, err = run("sum", "--game", nines, "--game", nines)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: score has more than {INT_DIGIT_LIMIT} digits, the limit for int to str conversion"
    ]


def test_sum_needs_exactly_two_games(run):
    code, _, err = run("sum", "--game", "2")
    assert code == 2
    assert "exactly two" in err


def test_tree_layout(run):
    code, out, _ = run("tree", "--game", "{2,{11|4|-3}|3|4,{9|2|-5}}")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 9
    assert lines[0] == "3"
    assert lines[1].startswith("  L ")


# ---------------------------------------------------------------------------
# Heap-game commands


def test_gs_value_and_best_move(run):
    code, out, _ = run("gs", "--rules", "sub45", "--position", "13@sub45")
    assert code == 0
    assert out == "value=3\nbest: take=4 points=4 next=9@sub45\n"


def test_gs_without_moves(run):
    code, out, _ = run("gs", "--rules", "sub45", "--position", "-")
    assert code == 0
    assert out == "value=0\nbest=none\n"


def test_gs_builds_the_roots_moves_twice_and_every_other_positions_once(run, monkeypatch):
    """``value`` builds each position's moves once; ``best_moves`` lists the
    root's moves once more to keep those that reach the value."""
    calls = Counter()
    next_moves = octal._next_moves

    def counting_next_moves(position, *args):
        calls[position] += 1
        return next_moves(position, *args)

    monkeypatch.setattr(octal, "_next_moves", counting_next_moves)
    code, out, err = run("gs", "--rules", "o26", "--position", "40@o26")
    assert (code, err) == (0, "")
    assert out.startswith("value=")
    assert calls.pop(Position((("o26", 40),))) == 2
    assert set(calls.values()) == {1}


def test_gs_accepts_inline_rules_and_multiple_heaps(run):
    code, out, _ = run(
        "gs",
        "--rules", "name: o26; digits: 2 6; points: 1 2",
        "--rules", "sub45",
        "--position", "5@o26,4@sub45",
    )
    assert code == 0
    assert out.startswith("value=")


def test_gs_refuses_another_spelling_of_a_name(run):
    """``sub54`` would rebuild the ruleset named ``sub45``; it names none."""
    code, out, err = run("gs", "--rules", "sub54", "--position", "3@sub54")
    assert (code, out) == (2, "")
    assert err == "error: cannot resolve rules reference 'sub54'\n"


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="int() converts any number of digits")
@pytest.mark.parametrize(
    "argv, term",
    [
        (["gs", "--rules", "sub45", "--position", "HUGE@sub45"], 1),
        (["table", "--rules", "sub45", "--max-n", "3", "--fixed", "3@sub45, HUGE@sub45"], 2),
    ],
    ids=["gs", "table-fixed"],
)
def test_heap_size_with_too_many_digits_names_its_term(run, argv, term):
    huge = "1" * (INT_DIGIT_LIMIT + 1)
    code, out, err = run(*(arg.replace("HUGE", huge) for arg in argv))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: size of heap term {term} has more than {INT_DIGIT_LIMIT} digits"]


@pytest.mark.parametrize(
    "rules, message",
    [
        (["sub:4,x"], "bad subtraction amounts in 'sub:4,x'"),
        (["nim:x"], "bad heap bound in 'nim:x'"),
        (["nim:0"], "max_take must be at least 1"),
        (["nim0"], "cannot resolve rules reference 'nim0'"),
        (
            ["name: x; digits: 3; points: 1", "name: x; digits: 3 3; points: 1 1"],
            "conflicting rulesets named 'x'",
        ),
        (
            ["sub45", "name: sub45; digits: 3; points: 1"],
            "rules document claims the name 'sub45' of other rules",
        ),
        (["sub:4," + NINES], f"bad subtraction amounts: more than {INT_DIGIT_LIMIT} digits"),
        (["nim:" + NINES], f"bad heap bound: more than {INT_DIGIT_LIMIT} digits"),
    ],
    ids=[
        "sub-token", "nim-token", "nim-zero", "nim-zero-name", "conflict", "claimed-name", "sub-nines",
        "nim-nines",
    ],
)
def test_gs_refuses_bad_rules_references(run, rules, message):
    argv = [arg for ref in rules for arg in ("--rules", ref)]
    assert run("gs", *argv, "--position", "-") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "ref, message",
    [
        ("sub:300000000", "subtraction amount 300000000 is above the limit 1048576"),
        ("nim:300000000", "max_take 300000000 is above the limit 1048576"),
    ],
)
def test_a_huge_removal_is_refused_before_the_rules_are_built(run, ref, message):
    assert run("table", "--rules", ref, "--max-n", "3") == (2, "", f"error: {message}\n")


def test_the_largest_removal_still_works(run):
    assert run("table", "--rules", "sub:1048576", "--max-n", "3") == (0, "n,value\n0,0\n1,0\n2,0\n3,0\n", "")


def test_table_csv_is_exact(run):
    code, out, _ = run("table", "--rules", "sub45", "--max-n", "15")
    assert code == 0
    expected = "n,value\n" + "\n".join(
        f"{n},{v}" for n, v in enumerate([0, 0, 0, 0, 4, 5, 5, 5, 5, 1, 0, 0, 0, 3, 4, 5])
    ) + "\n"
    assert out == expected


def test_table_of_a_name_ignores_a_file_of_that_name(run, tmp_path, monkeypatch):
    (tmp_path / "sub45").write_text("name: decoy; digits: 3 3; points: 1 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run("table", "--rules", "sub45", "--max-n", "15")
    assert code == 0
    assert out == "n,value\n" + "\n".join(
        f"{n},{v}" for n, v in enumerate([0, 0, 0, 0, 4, 5, 5, 5, 5, 1, 0, 0, 0, 3, 4, 5])
    ) + "\n"
    code, out, _ = run("table", "--rules", "./sub45", "--max-n", "3")
    assert (code, out) == (0, "n,value\n0,0\n1,1\n2,1\n3,0\n")


def test_table_structured_header(run):
    code, out, _ = run("table", "--rules", "o3333p2", "--max-n", "10", "--format", "structured")
    assert code == 0
    head, body = out.split("\n\n", 1)
    assert "format: table" in head
    assert "rules: o3333p2" in head
    assert "values-digest: " in head
    assert body.startswith("n,value\n0,0\n1,2\n")


def test_period_certifies_preset(run):
    code, out, err = run("period", "--rules", "o3333p2", "--max-n", "60")
    assert code == 0
    assert out.startswith("preperiod=0 period=5 certified=true certified_from=5 checked_up_to=60")
    assert err == ""


def test_period_proves_past_a_trailing_run(run):
    code, out, _ = run("period", "--rules", "sub:3", "--max-n", "500")
    assert code == 0
    assert out.startswith("preperiod=0 period=6 certified=true")


def test_period_notes_splitting_rules(run):
    code, out, err = run("period", "--rules", "o26", "--max-n", "40")
    assert code == 0
    assert "certified=false" in out
    assert "split" in err


def test_period_notes_a_sweep_too_short_to_certify(run):
    assert run("period", "--rules", "sub:4,7", "--max-n", "20") == (
        0,
        "preperiod=18 period=1 certified=false checked_up_to=20 values_digest=8ae4c98e91102627\n",
        "note: no candidate period certifies within this sweep\n",
    )


def test_period_reports_none(run):
    code, out, _ = run("period", "--rules", "sub:3", "--max-n", "4")
    assert code == 0
    assert out.startswith("period=none")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--rules", "o26", "--fixed", "3@o26", "--max-n", "20"],
            (
                0,
                "preperiod=7 period=1 certified=false checked_up_to=20 values_digest=2d7a9f2e452b3e93\n",
                "note: fixed base position, certification skipped\n"
                "note: rules can split heaps, report stays empirical\n",
            ),
        ),
        (
            ["--rules", "sub45", "--fixed", "3@sub45", "--max-n", "40"],
            (
                0,
                "period=none checked_up_to=40 values_digest=3958a10e8a1250b6\n",
                "note: fixed base position, certification skipped\n",
            ),
        ),
        (
            ["--rules", "sub:4,7", "--max-n", "20"],
            (
                0,
                "preperiod=18 period=1 certified=false checked_up_to=20 values_digest=8ae4c98e91102627\n",
                "note: no candidate period certifies within this sweep\n",
            ),
        ),
        (
            ["--rules", "sub45", "--max-n", "2000000"],
            (2, "", "error: position budget exceeded (1000000 positions) evaluating 1000000@sub45\n"),
        ),
        (
            ["--rules", "o26", "--max-n", "200", "--budget", "100"],
            (2, "", "error: position budget exceeded (100 positions) evaluating 15@o26\n"),
        ),
    ],
    ids=["splitting-fixed-base", "none-fixed-base", "no-candidate-certifies", "budget-table", "budget-memo"],
)
def test_period_output_bytes_are_pinned(run, argv, expected):
    """Notes, report line and budget errors, byte for byte; the single-heap
    table refuses its sweep before filling it, the memo walk part way."""
    assert run("period", *argv) == expected


SCALED = "name: h; digits: 3 3 0 3; points: 1/2 3/2 0 -5/3"
SCALED_NEGATIVE = "name: neg; digits: 3 0 2; points: -2/3 0 5/4"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["period", "--rules", SCALED, "--max-n", "300"],
            "preperiod=0 period=4 certified=true certified_from=5 checked_up_to=300 "
            "values_digest=4c39359bf37a80f7\n",
        ),
        (
            ["period", "--rules", SCALED_NEGATIVE, "--max-n", "300"],
            "preperiod=1 period=6 certified=true certified_from=4 checked_up_to=300 "
            "values_digest=3d744dc6e51f3a77\n",
        ),
        (
            ["period", "--rules", SCALED_NEGATIVE, "--max-n", "8"],
            "period=none checked_up_to=8 values_digest=2b5596bd78b737e4\n",
        ),
        (
            ["table", "--rules", SCALED, "--max-n", "12", "--fixed", "2@h", "--format", "structured"],
            "format: table\nrules: h\nrules-digest: 7b409bcae88d\nfixed: 2@h\nmax-n: 12\n"
            "values-digest: 244de332e0f57c75\n\n"
            "n,value\n0,3/2\n1,1\n2,0\n3,1/2\n4,3/2\n5,1\n6,0\n7,1/2\n8,3/2\n9,1\n10,0\n"
            "11,1/2\n12,3/2\n",
        ),
    ],
    ids=["period-certified", "period-negative", "period-none", "table-structured"],
)
def test_scaled_sweep_output_bytes_are_pinned(run, argv, expected):
    """Awards with denominators 2, 3 and 4, some negative: the solver's
    scale is above 1, so its ints differ from the values they stand for."""
    assert run(*argv) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--max-n", "40", "--min-window", "0"],
            "scan instance needs max_n >= 0 and 1 <= min_window <= max_n + 1, got max_n=40 min_window=0",
        ),
        (
            ["--max-n", "5", "--min-window", "7"],
            "scan instance needs max_n >= 0 and 1 <= min_window <= max_n + 1, got max_n=5 min_window=7",
        ),
        (
            ["--max-n", "-1"],
            "scan instance needs max_n >= 0 and 1 <= min_window <= max_n + 1, got max_n=-1 min_window=3",
        ),
        (["--max-n", "5", "--budget", "-1"], "scan instance needs budget >= 0 or none, got budget=-1"),
    ],
    ids=["min-window-0", "window-longer-than-sweep", "negative-max-n", "negative-budget"],
)
def test_period_checks_the_window_before_sweeping(run, monkeypatch, argv, message):
    """``period`` builds the scan instance first, so its check runs before any sweep."""

    def sweep(*args, **kwargs):
        raise AssertionError("swept with a bad window")

    monkeypatch.setattr(GrundySolver, "sweep", sweep)
    assert run("period", "--rules", "o26", *argv) == (2, "", f"error: {message}\n")


@st.composite
def period_sweeps(draw):
    """``(rules, fixed base size or None, max_n, min_window, budget)`` for one
    ``period`` call.  Splitting sweeps grow fast, so theirs stay short."""
    rules = draw(non_splitting_rules)
    digits = list(rules.digits)
    for _ in range(draw(st.integers(0, 2))):
        digits[draw(st.integers(0, len(digits) - 1))] |= 4
    rules = OctalRules(rules.name, digits, rules.points)
    base = draw(st.none() | st.integers(1, 6))
    min_window = draw(st.integers(1, 4))
    max_n = draw(st.integers(min_window - 1, 14 if rules.splits_heaps else 150))
    budget = draw(st.just(20_000) | st.integers(0, 2 * max_n + 40))  # often near the sweep's size
    return rules, base, max_n, min_window, budget


@settings(max_examples=150, deadline=None)
@given(period_sweeps())
def test_period_prints_the_line_of_a_one_instance_scan(case):
    """``period`` prints the row that ``run_scan`` reports for the same
    one-instance spec, and a budget row as the sweep's budget error."""
    rules, base, max_n, min_window, budget = case
    document = "name: {}; digits: {}; points: {}".format(
        rules.name, " ".join(map(str, rules.digits)), " ".join(map(format_score, rules.points))
    )
    argv = ["period", "--rules", document, "--max-n", str(max_n), "--min-window", str(min_window)]
    argv += ["--budget", str(budget)] + ([] if base is None else ["--fixed", f"{base}@{rules.name}"])
    fixed = Position(() if base is None else [(rules.name, base)])
    instance = ScanInstance(rules, (), fixed, max_n, min_window, budget)
    (row,) = periods.run_scan(ScanSpec(0, (instance,), "")).rows
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if row.status == "budget-exceeded":
        with pytest.raises(BudgetExceededError) as exceeded:
            periods.scan_instance(instance)
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {exceeded.value}\n")
        return
    if row.status == "not-found":
        line = "period=none"
    else:
        certified_from = "" if row.certified_from is None else f" certified_from={row.certified_from}"
        line = (
            f"preperiod={row.preperiod} period={row.period} "
            f"certified={'true' if row.certified else 'false'}{certified_from}"
        )
    assert code == 0
    assert out.getvalue() == f"{line} checked_up_to={row.max_n} values_digest={row.values_digest}\n"


def test_negative_budget_is_refused(run):
    code, out, err = run("gs", "--rules", "sub45", "--position", "5@sub45", "--budget", "-1")
    assert (code, out, err) == (2, "", "error: budget must be nonnegative, got -1\n")


def test_lemma_pass(run):
    code, out, _ = run("lemma", "--set", "4,5", "--imax", "5")
    assert code == 0
    assert out.splitlines()[0] == "set={4,5} k=5 imax=5"
    assert out.splitlines()[-1] == "status=pass"


def test_lemma_lists_each_failure_and_exits_1(run, monkeypatch):
    def failing_check(amounts, i_max):
        return periods.LemmaReport(
            (4, 5), 5, i_max,
            ((4, 1, Fraction(1), Fraction(-1, 2)),),
            ((2, 3, Fraction(3), Fraction(2), "even-block value above residue"),),
        )

    monkeypatch.setattr(cli, "check_lemma", failing_check)
    assert run("lemma", "--set", "4,5", "--imax", "5") == (
        1,
        "set={4,5} k=5 imax=5\n"
        "identity-failure: s=4 i=1 lhs=1 rhs=-1/2\n"
        "bound-failure: r=2 i=3 value=3 bound=2 (even-block value above residue)\n"
        "identity-failures=1\n"
        "bound-failures=1\n"
        "status=fail\n",
        "",
    )


def test_lemma_sweeps_under_the_default_budget(run):
    """A huge --imax stops at the default budget instead of exhausting memory."""
    assert run("lemma", "--set", "4,5", "--imax", "1000000000") == (
        2,
        "",
        "error: position budget exceeded (1000000 positions) evaluating 1000000@sub45\n",
    )


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["gs", "--rules", "o26", "--position", "100000000@o26", "--budget", "10"],
            "error: position budget exceeded (10 positions) evaluating 100000000@o26\n",
        ),
        (
            ["oracle", "--rules", "o26", "--max-total", "99999999999999999999999"],
            "error: position budget exceeded (1000000 positions) evaluating 99999999999999999999999@o26\n",
        ),
    ],
    ids=["gs", "oracle"],
)
def test_a_huge_splitting_heap_fails_with_a_budget_error(argv, message):
    """The heap's splits would not fit in memory, and they would exceed the
    budget anyway, so they are refused before they are built.  The child
    runs under a 1 GiB address-space cap, so a regression fails fast."""
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "scoreplay", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_address_space,
    )
    elapsed = time.perf_counter() - started
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)
    assert elapsed < 5  # a fresh interpreter included; the refusal itself takes milliseconds


def test_lemma_refuses_a_bad_amount(run):
    code, out, err = run("lemma", "--set", "4,x")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: bad subtraction amounts in --set '4,x'"]


def test_lemma_names_the_digit_limit_of_an_over_long_amount(run):
    assert run("lemma", "--set", "4," + NINES) == (
        2, "", f"error: bad subtraction amounts: more than {INT_DIGIT_LIMIT} digits\n"
    )


FRACTIONAL = "name: frac; digits: 1 7 6; points: 1/2 -2/3 3/4"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["gs", "--rules", FRACTIONAL, "--rules", "sub23", "--position", "2@frac,6@sub23"],
            "value=-2/3\n"
            "best: take=2 points=-2/3 next=6@sub23\n"
            "best: take=3 points=3 next=2@frac,3@sub23\n",
        ),
        (
            ["gs", "--rules", FRACTIONAL, "--rules", "sub23", "--position", "3@frac,5@sub23"],
            "value=-1/6\nbest: take=3 points=3 next=3@frac,2@sub23\n",
        ),
        (
            ["table", "--rules", FRACTIONAL, "--max-n", "14", "--fixed", "4@frac"],
            "n,value\n0,1/4\n1,3/4\n2,0\n3,1/2\n4,0\n5,3/4\n6,1/4\n7,3/4\n8,1/4\n"
            "9,17/12\n10,23/12\n11,3/4\n12,1/4\n13,3/4\n14,1/4\n",
        ),
        (
            ["oracle", "--rules", "o26", "--rules", "o3333p2", "--rules", FRACTIONAL, "--max-total", "6"],
            "ruleset frac: positions=30 pass\n"
            "ruleset o26: positions=30 pass\n"
            "ruleset o3333p2: positions=30 pass\n"
            "oracle: pass (rulesets=3, positions=90)\n",
        ),
    ],
    ids=["gs-two-best", "gs-one-best", "table-fixed", "oracle"],
)
def test_octal_output_bytes_are_pinned(run, argv, expected):
    """Fractional and negative awards, mixed rulesets, a fixed base: every
    printed score is in lowest terms with the sign on the numerator."""
    assert run(*argv) == (0, expected, "")


def test_oracle_small(run):
    code, out, _ = run("oracle", "--rules", "nim:2", "--max-total", "5")
    assert code == 0
    assert "ruleset nim2: positions=19 pass" in out
    assert out.strip().endswith("oracle: pass (rulesets=1, positions=19)")


def test_oracle_reports_a_mismatch_and_exits_1(run, monkeypatch):
    """Expansion nodes are interned, so the node of 2@nim2 is the one the
    oracle's own solver builds."""
    shifted = GrundySolver(standard_nim(2)).to_game(Position((("nim2", 2),)))
    final_scores = cli.final_scores

    def shifting_final_scores(game):
        sl, sr = final_scores(game)
        return FinalScores(sl + 1, sr) if game is shifted else FinalScores(sl, sr)

    monkeypatch.setattr(cli, "final_scores", shifting_final_scores)
    assert run("oracle", "--rules", "nim:2", "--max-total", "2") == (
        1,
        "mismatch: ruleset=nim2 position=2@nim2 value=2 sl=3 sr=-2\n"
        "ruleset nim2: positions=4 FAIL\n"
        "oracle: FAIL (rulesets=1, positions=4)\n",
        "",
    )


def test_oracle_refuses_a_negative_max_total(run):
    assert run("oracle", "--rules", "sub45", "--max-total", "-1") == (
        2, "", "error: max_total must be nonnegative\n",
    )


# ---------------------------------------------------------------------------
# Scan command


def test_scan_writes_csv_and_detail(run, tmp_path):
    spec = tmp_path / "family.scan"
    spec.write_text("seed: 1\nmax-n: 40\nsubtraction-family: 1-2\n", encoding="utf-8")
    prefix = tmp_path / "out"
    code, out, _ = run("scan", "--spec", str(spec), "--out", str(prefix))
    assert code == 0
    assert out.startswith("instance,status,")
    csv_text = (prefix.with_suffix(".csv")).read_text(encoding="utf-8")
    assert csv_text == out
    detail = (prefix.with_suffix(".txt")).read_text(encoding="utf-8")
    assert detail.startswith("scan-report\n")
    assert detail.count("instance: ") == 3  # sub1, sub2, sub12


def test_scan_out_into_a_missing_directory_prints_nothing(run, tmp_path):
    spec = tmp_path / "family.scan"
    spec.write_text("max-n: 40\nsubtraction-family: 1-1\n", encoding="utf-8")
    prefix = tmp_path / "missing" / "r"
    code, out, err = run("scan", "--spec", str(spec), "--out", str(prefix))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: [Errno 2] No such file or directory: '{prefix}.csv'"]


def test_scan_missing_spec_file(run, tmp_path):
    code, _, err = run("scan", "--spec", str(tmp_path / "absent.scan"))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("instance: sub45\nmax-n: -1\ninstance: sub:3\n", 3),
        ("instance: sub45\nmin-window: 0\ninstance: sub:3\n", 3),
        ("instance: sub:3 max-n=5 min-window=10\n", 1),
        ("budget: -1\ninstance: sub45\n", 2),
        ("instance: sub45 budget=-1\n", 1),
    ],
)
def test_scan_rejects_bad_settings_before_sweeping(run, tmp_path, monkeypatch, text, lineno):
    def sweep(instance):
        raise AssertionError(f"swept {instance.rules.name} from a spec with a bad setting")

    monkeypatch.setattr(periods, "scan_instance", sweep)
    spec = tmp_path / "bad.scan"
    spec.write_text(text, encoding="utf-8")
    code, out, err = run("scan", "--spec", str(spec))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: scan spec line {lineno}: ")
    assert err.count("\n") == 1


def test_scan_refuses_a_fixed_heap_spelled_off_its_name(run, tmp_path, monkeypatch):
    """``sub54`` names no ruleset, so the spec line that uses it fails
    before any instance is swept."""

    def sweep(instance):
        raise AssertionError(f"swept {instance.rules.name} from a spec with a bad fixed heap")

    monkeypatch.setattr(periods, "scan_instance", sweep)
    spec = tmp_path / "alias.scan"
    spec.write_text("instance: sub:1\ninstance: o26 fixed=3@sub54\n", encoding="utf-8")
    assert run("scan", "--spec", str(spec)) == (
        2, "", "error: scan spec line 2: fixed position references unknown ruleset 'sub54'\n",
    )


def test_scan_keeps_amounts_above_nine_apart(run, tmp_path):
    """``{12}`` and ``{1, 2}`` are two instances, not one name twice."""
    spec = tmp_path / "apart.scan"
    spec.write_text("max-n: 100\ninstance: sub:12\ninstance: sub:1,2\n", encoding="utf-8")
    code, out, err = run("scan", "--spec", str(spec))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("sub-12", "24"), ("sub12", "4")]


def test_readme_scan_spec_runs(run, tmp_path):
    """The spec shown in README.md's Evidence scans section scans cleanly."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    spec = tmp_path / "readme.scan"
    spec.write_text(re.search(r"### Evidence scans\n.*?```\n(.*?)```", readme, re.S).group(1))
    code, out, err = run("scan", "--spec", str(spec))
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 127 + 2  # the 1-7 family, o3333p2 and sub48
    assert all(",ok," in row for row in rows)


# ---------------------------------------------------------------------------
# Errors and process-level behavior


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--game", "{4|3}"],
        ["eval", "--game", "{4|3|2"],
        ["gs", "--rules", "sub45", "--position", "3@mystery"],
        ["gs", "--rules", "mystery", "--position", "-"],
        ["table", "--rules", "sub45", "--max-n", "-1"],
        ["period", "--rules", "sub45", "--max-n", "1"],
    ],
)
def test_domain_errors_exit_2(run, argv):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_repeated_calls_share_no_parsed_values(run):
    """The parser is built once per process; ``append`` lists stay per call."""
    first = run("sum", "--game", "1", "--game", "2")
    assert first == (0, "3\n", "")
    assert run("sum", "--game", "1", "--game", "2") == first


def test_usage_error_exits_2(run):
    assert run()[0] == 2
    assert run("eval")[0] == 2
    assert run("frobnicate")[0] == 2
    assert run("eval", "--game", "--eval")[0] == 2  # an option name is still no value


def test_module_entry_point():
    """`python -m scoreplay` behaves like the installed script."""
    result = subprocess.run(
        [sys.executable, "-m", "scoreplay", "eval", "--game", "{4|3|2}"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "sl=4 sr=2 outcome=L impartial=true\n"


# ---------------------------------------------------------------------------
# Fuzzed command lines
#
# Each subcommand gets argv from a fixed grammar of good and bad values:
# bad rules documents, ``1/0`` scores, missing files, negative bounds, and
# huge sizes, each paired with a budget of at most 1,000 so a run stays
# small.  ``@DIR@`` stands for a directory of rules files and scan specs.

HUGE = st.sampled_from([10**8, 10**20])
RULES_REFS = st.one_of(
    st.sampled_from([
        "sub45", "o26", "o3333p2", "nim:3", "sub:1,2", "name: q; digits: 3 6 2; points: 1/2 2 -1",
        "@DIR@/good.rules",
    ]),
    st.sampled_from([
        "@DIR@/bad.rules", "@DIR@/absent.rules", "name: x; digits: 3; points: 1/0",
        "name: x; digits: 9; points: 1", "name: x; digits: 1 2; points: 1", "digits: 3; points: 1",
        "name: a b; digits: 3; points: 1", "name: x; digits: 0; points: 0",
        "sub:0", "sub:x", "nim:0", "nim:-3", "nim:300000000", "sub54", "mystery", "",
    ]),
)
HEAP_NAMES = st.sampled_from(["sub45", "o26", "o3333p2", "nim3", "sub12", "q", "good", "mystery", "sub54"])
JUNK_TERMS = st.sampled_from(["", "x@sub45", "-1@o26", "1/0@o26", "3@", "@o26"])
GAMES = st.sampled_from([
    "{4|3|2}", "-3/2", "-0.5", "{1/2|0|-1/2}", "{1/0|0|0}", "1/0", "{4|3}", "{4|3|2", "{", "", "x",
    "{1|0|-1}", "{{0|0|0}|0|{0|0|0}}", "{2,{11|4|-3}|3|4,{9|2|-5}}", "{" * 20 + "0" + "|0|0}" * 20,
])
DEEP_CHAIN = "{" * 60 + "0" + "|0|0}" * 60
SPEC_LINES = st.one_of(
    st.sampled_from([
        "seed: 3", "max-n: 40", "min-window: 4", "budget: 1000", "instance: sub45",
        "instance: sub:3,4 max-n=60", "instance: nim:3 min-window=2", "instance: o26 max-n=12 budget=1000",
        "instance: o26 max-n=100000000 budget=500", "instance: sub45 max-n=100000000 budget=1000",
        "instance: o3333p2 fixed=2@sub45 budget=1000", "subtraction-family: 1-3", "# comment",
    ]),
    st.sampled_from([
        "seed: x", "max-n: -1", "min-window: 0", "budget: -1", "instance: sub45 fixed=3@sub54",
        "instance: mystery", "instance: sub:0", "instance:", "instance: sub45 frob=1",
        "subtraction-family: 0-2", "subtraction-family: 1-40", "frob: 1", "no colon here",
    ]),
)


def sizes(low, high):
    """``(size, huge)``: a small size, or a huge one that needs a small budget."""
    return st.one_of(st.integers(low, high).map(lambda n: (n, False)), HUGE.map(lambda n: (n, True)))


@st.composite
def positions(draw):
    terms, huge = [], False
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 5)) == 0:
            terms.append(draw(JUNK_TERMS))
            continue
        size, big = draw(sizes(0, 12))
        huge |= big
        terms.append(f"{size}@{draw(HEAP_NAMES)}" if draw(st.integers(0, 5)) else str(size))
    return ",".join(terms) or draw(st.sampled_from(["-", ""])), huge


@st.composite
def fuzz_argv(draw):
    """``(argv, scan spec text or None)`` for one subcommand."""
    command = draw(st.sampled_from(["eval", "sum", "tree", "gs", "table", "period", "lemma", "scan", "oracle"]))
    argv, spec, huge = [command], None, False
    if command in ("eval", "sum", "tree"):
        for game in draw(st.lists(st.one_of(GAMES, st.just(DEEP_CHAIN)), min_size=1, max_size=3)):
            argv += ["--game", game]
        if command == "sum" and draw(st.booleans()):
            argv.append("--eval")
    elif command == "lemma":
        argv += ["--set", draw(st.sampled_from(["4,5", "1", "2,3,5", "0", "-1", "x", "4,x", "", "300000000"]))]
        if draw(st.booleans()):
            argv += ["--imax", str(draw(st.integers(-2, 12)))]
    elif command == "scan":
        spec = "\n".join(draw(st.lists(SPEC_LINES, max_size=4))) + "\n"
        argv += ["--spec", draw(st.sampled_from(["@DIR@/fuzz.scan", "@DIR@/absent.scan"]))]
        if draw(st.booleans()):
            argv += ["--out", draw(st.sampled_from(["@DIR@/out", "@DIR@/absent/out"]))]
    else:
        for ref in draw(st.lists(RULES_REFS, min_size=1, max_size=2)):
            argv += ["--rules", ref]
        if command == "gs":
            position, huge = draw(positions())
            argv += ["--position", position]
        elif command == "oracle":
            total, huge = draw(sizes(-2, 7))
            argv += ["--max-total", str(total)]
        else:
            max_n, huge = draw(sizes(-3, 16))
            argv += ["--max-n", str(max_n)]
            if draw(st.booleans()):
                argv += ["--var", draw(HEAP_NAMES)]
            if draw(st.booleans()):
                fixed, big = draw(positions())
                argv += ["--fixed", fixed]
                huge |= big
            if command == "period" and draw(st.booleans()):
                argv += ["--min-window", str(draw(st.integers(-1, 8)))]
            if command == "table" and draw(st.booleans()):
                argv += ["--format", draw(st.sampled_from(["csv", "structured", "xml"]))]
        if huge or draw(st.booleans()):
            argv += ["--budget", str(draw(st.integers(-3, 1000)))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--frob", "--budget", "--max-n", "extra"])))
    return argv, spec


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Rules files and scan specs for the fuzzed command lines."""
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "good.rules").write_text("name: good\ndigits: 3 3\npoints: 1 -1/2\n", encoding="utf-8")
    (folder / "bad.rules").write_text("name: bad\ndigits: 3 3\npoints: 1 1/0\n", encoding="utf-8")
    return folder


@settings(max_examples=200, deadline=None)
@given(fuzz_argv())
def test_fuzzed_command_lines_exit_0_1_or_2(fuzz_dir, case):
    """Whatever the argv, ``main`` raises nothing, returns 0, 1 or 2, and
    prints no traceback."""
    argv, spec = case
    argv = [arg.replace("@DIR@", str(fuzz_dir)) for arg in argv]
    if spec is not None:
        (fuzz_dir / "fuzz.scan").write_text(spec, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
