"""Self-test of the benchmark: checkers count corrupted output as failed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402


def _oracle_outputs(batch) -> list[tuple[int, str]]:
    """The passing output of each of the batch's oracle calls."""
    outputs = []
    for argv in batch.argvs:
        (ref,) = [arg.split("=", 1)[1] for arg in argv if arg.startswith("--rules=")]
        name = "sub" + "".join(sorted(ref[4:].split(","))) if ref.startswith("sub:") else ref
        outputs.append((0, f"ruleset {name}: positions=195 pass\noracle: pass (rulesets=1, positions=195)\n"))
    return outputs


def _scan_outputs(batch) -> list[tuple[int, str]]:
    """The passing output of each of the batch's scan calls."""
    header, *rows = w.FAMILY_CSV.read_text(encoding="utf-8").splitlines()
    frozen = {row.split(",", 1)[0]: row for row in rows}
    outputs = []
    for argv in batch.argvs:
        refs = [line.split()[1] for line in Path(argv[-1]).read_text().splitlines() if line.startswith("instance:")]
        names = sorted("sub" + "".join(sorted(ref[4:].split(","))) for ref in refs)
        outputs.append((0, "\n".join([header] + [frozen[name] for name in names]) + "\n"))
    return outputs


def test_family_scan_counts_each_wrong_row(tmp_path):
    batch = w.family_scan(7, tmp_path)
    assert len(batch.argvs) == w.FAMILY_CALLS
    good = _scan_outputs(batch)
    assert batch.check(good) == (127, 0)
    bad = list(good)
    lines = bad[3][1].splitlines()
    lines[1] = lines[1].replace(",true,", ",false,", 1)
    lines[2] = lines[2][:-1] + ("0" if lines[2][-1] != "0" else "1")
    bad[3] = (0, "\n".join(lines) + "\n")
    assert batch.check(bad) == (127, 2)
    chunk = good[5][1].count("\n") - 1
    bad = list(good)
    bad[5] = (0, good[5][1] + good[5][1].splitlines()[1] + "\n")
    assert batch.check(bad) == (127, chunk)
    bad[5] = (1, good[5][1])
    assert batch.check(bad) == (127, chunk)
    assert batch.check(good[1:] + good[:1]) == (127, 127)


def test_family_scan_covers_every_set_once(tmp_path):
    one, two = w.family_scan(1, tmp_path), w.family_scan(2, tmp_path)
    assert one.argvs != two.argvs
    for batch in (one, two):
        texts = [Path(argv[-1]).read_text() for argv in batch.argvs]
        assert all("max-n: 500" in text for text in texts)
        names = [name for _, out in _scan_outputs(batch) for name in (line.split(",")[0] for line in out.splitlines()[1:])]
        assert sorted(names) == sorted("sub" + "".join(map(str, s)) for s in w._FAMILY_SETS)


def test_heap_oracle_counts_a_failed_ruleset():
    batch = w.heap_oracle(0, HERE)
    assert len(batch.argvs) == 33
    good = _oracle_outputs(batch)
    assert batch.check(good) == (6435, 0)
    bad = list(good)
    code, out = bad[4]
    name = out.split(":", 1)[0].split()[1]
    bad[4] = (1, f"mismatch: ruleset={name} position=3@{name} value=1 sl=2 sr=-1\n" + out.replace("pass", "FAIL"))
    bad[7] = (0, bad[7][1].replace("195", "194"))
    assert batch.check(bad) == (6435, 2 * 195)
    assert batch.check([(None, out) for _, out in good]) == (6435, 6435)
    assert batch.check(good[1:] + good[:1]) == (6435, 6435)


def test_game_algebra_counts_each_wrong_game():
    batch = w.game_algebra(3, HERE)
    games = len(batch.argvs) // 2
    assert games == w.ALGEBRA_GAMES
    expected = [w.eval_line(*w.final_scores(w.random_impartial(random.Random(0), random.Random(0))))] * games
    good = []
    for line in expected:
        good += [(0, line + "\n"), (0, "{0|0|0}\n" + line + "\n")]
    assert w.check_game_algebra(expected, good) == (games, 0)
    bad = list(good)
    bad[1] = (0, "{0|0|0}\n" + expected[0].replace("impartial=true", "impartial=false") + "\n")
    bad[4] = (2, "")
    assert w.check_game_algebra(expected, bad) == (games, 2)


def test_generated_games_are_impartial_and_match_the_program():
    sys.path.insert(0, str(run.SRC))
    from scoreplay.games import final_scores, is_impartial, parse_game, render_game

    rng_shapes, rng_scores = random.Random(5), random.Random(6)
    for _ in range(20):
        tree = w.random_impartial(rng_shapes, rng_scores)
        game = parse_game(w.game_text(tree))
        assert is_impartial(game)
        assert tuple(final_scores(game)) == w.final_scores(tree)
        assert parse_game(render_game(game)) == game


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layertrace.METRICS


def test_untraced_run_does_not_load_the_tracer(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run\n"
        "result = run.run('game_algebra', 0, 0.0, False)\n"
        "assert result['correct'] and set(result['metrics']) == {'setup_s', 'wall_ref', 'peak_rss_mb'}\n"
        "assert 'layertrace' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_tracer_self_times_add_up_and_uninstall_restores(capsys):
    sys.path.insert(0, str(run.SRC))
    import importlib

    modules = [importlib.import_module(name) for name in layertrace.SCOREPLAY_MODULES]
    games, octal, cli = modules[1], modules[2], modules[4]
    before = [dict(vars(m)) for m in modules] + [dict(vars(games.Game)), dict(vars(octal.GrundySolver))]

    tracer = layertrace.Tracer()
    tracer.install()
    assert cli.main is not before[4]["main"]
    assert cli.main(["gs", "--rules=o26", "--position=12@o26"]) == 0
    assert cli.main(["sum", "--game={1|0|-1}", "--game={{0|0|0}|0|{0|0|0}}", "--eval"]) == 0
    tracer.uninstall()
    tracer.end_batch()
    capsys.readouterr()

    after = [dict(vars(m)) for m in modules] + [dict(vars(games.Game)), dict(vars(octal.GrundySolver))]
    assert after == before
    names = [name for name, _, _ in layertrace.FUNCTIONS]
    assert tracer.calls[names.index("cli.main")] == 2
    assert tracer.calls[names.index("octal.legal_moves")] > 0
    assert tracer.calls[names.index("games.add")] == 1
    # every traced call ran inside cli.main, so self times sum to its total
    assert abs(sum(tracer.self_s) - tracer.total_s[0]) < 1e-6
    metrics = tracer.metrics(0.0)
    assert set(metrics) == {name for name, _ in layertrace.METRICS}
    assert abs(sum(metrics[f"{layer}.self_share"] for layer in layertrace.LAYERS) - 100.0) < 1e-6
    assert metrics["octal.positions_memoized"] > 0 and metrics["games.nodes_built"] > 0
