"""Command-line behavior: exact stdout lines, exit codes, file outputs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from scoreplay.cli import main


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


def test_gs_accepts_inline_rules_and_multiple_heaps(run):
    code, out, _ = run(
        "gs",
        "--rules", "name: o26; digits: 2 6; points: 1 2",
        "--rules", "sub45",
        "--position", "5@o26,4@sub45",
    )
    assert code == 0
    assert out.startswith("value=")


def test_table_csv_is_exact(run):
    code, out, _ = run("table", "--rules", "sub45", "--max-n", "15")
    assert code == 0
    expected = "n,value\n" + "\n".join(
        f"{n},{v}" for n, v in enumerate([0, 0, 0, 0, 4, 5, 5, 5, 5, 1, 0, 0, 0, 3, 4, 5])
    ) + "\n"
    assert out == expected


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


def test_period_reports_none(run):
    code, out, _ = run("period", "--rules", "sub:3", "--max-n", "10")
    assert code == 0
    assert out.startswith("period=none")


def test_lemma_pass(run):
    code, out, _ = run("lemma", "--set", "4,5", "--imax", "5")
    assert code == 0
    assert out.splitlines()[0] == "set={4,5} k=5 imax=5"
    assert out.splitlines()[-1] == "status=pass"


def test_oracle_small(run):
    code, out, _ = run("oracle", "--rules", "nim:2", "--max-total", "5")
    assert code == 0
    assert "ruleset nim2: positions=19 pass" in out
    assert out.strip().endswith("oracle: pass (rulesets=1, positions=19)")


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


def test_scan_missing_spec_file(run, tmp_path):
    code, _, err = run("scan", "--spec", str(tmp_path / "absent.scan"))
    assert code == 2
    assert err.startswith("error: ")


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
