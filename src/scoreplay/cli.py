"""Command-line front end.

Data goes to stdout, diagnostics to stderr; exit status 0 on success.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from scoreplay.games import (
    final_scores,
    format_score,
    is_impartial,
    outcome,
    parse_game,
    render_game,
    render_tree,
)
from scoreplay.octal import (
    BudgetExceededError,
    ExpansionLimitError,
    GrundySolver,
    OctalRules,
    Position,
    _normalize_rules,
    iter_heap_multisets,
    parse_position,
    render_position,
    resolve_rules_ref,
)
from scoreplay.periods import (
    ScanInstance,
    _bool,
    _check_window,
    certified_start,
    check_lemma,
    detect_certified_period,
    parse_scan_spec,
    render_scaled,
    run_scan,
    sequence_digest,
)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(_attach_negative_games(argv))
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (BudgetExceededError, ExpansionLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_NEGATIVE_SCORE = re.compile(r"-\.?\d")


def _attach_negative_games(argv: list[str]) -> list[str]:
    """Rewrite ``--game -3/2`` as ``--game=-3/2``.

    argparse takes a separate value that starts with ``-`` for an option
    unless it reads as a plain number, so a game such as ``-3/2`` or
    ``-0.5`` would leave ``--game`` without its value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--game" and _NEGATIVE_SCORE.match(arg):
            out[-1] = "--game=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreplay",
        description="Evaluate scoring-play games, tabulate heap-game values, and analyze periods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="final scores, outcome, and impartiality of a game")
    p.add_argument("--game", required=True, help="game notation, e.g. '{4|3|2}'")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sum", help="long-rule sum of two games in canonical notation")
    p.add_argument("--game", action="append", required=True, help="give exactly twice")
    p.add_argument("--eval", action="store_true", help="also evaluate the sum")
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("tree", help="indented tree rendering of a game")
    p.add_argument("--game", required=True)
    p.set_defaults(handler=_cmd_tree)

    heap = argparse.ArgumentParser(add_help=False)  # options of every heap command
    heap.add_argument("--rules", action="append", required=True, metavar="REF",
                      help="rules file, preset or generated name, sub:/nim: shorthand, or inline document")
    heap.add_argument("--budget", type=int, default=ScanInstance.budget)
    sweep = argparse.ArgumentParser(add_help=False)  # options of the growing-heap commands
    sweep.add_argument("--max-n", type=int, required=True)
    sweep.add_argument("--var", help="which ruleset the growing heap uses (default: the only one)")
    sweep.add_argument("--fixed", default="-",
                       help="base position added to every entry (certification needs an empty base)")

    p = sub.add_parser("gs", parents=[heap], help="value and best moves of a heap position")
    p.add_argument("--position", required=True, help="comma-separated size@ruleset terms, '-' for empty")
    p.set_defaults(handler=_cmd_gs)

    p = sub.add_parser("table", parents=[heap, sweep], help="CSV value table for a growing heap")
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("period", parents=[heap, sweep],
                       help="detect and certify the eventual period of a value sweep")
    p.add_argument("--min-window", type=int, default=ScanInstance.min_window)
    p.set_defaults(handler=_cmd_period)

    p = sub.add_parser("lemma", help="alternation identity for a take-s-score-s subtraction set")
    p.add_argument("--set", required=True, help="subtraction amounts, e.g. '4,5'")
    p.add_argument("--imax", type=int, default=15)
    p.set_defaults(handler=_cmd_lemma)

    p = sub.add_parser("scan", help="run an evidence scan from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", metavar="PREFIX", help="also write PREFIX.csv and PREFIX.txt")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("oracle", parents=[heap],
                       help="cross-check evaluator values against expanded game trees")
    p.add_argument("--max-total", type=int, required=True)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _load_rules(refs: list[str]) -> dict[str, OctalRules]:
    return _normalize_rules(map(resolve_rules_ref, refs))


def _eval_line(game) -> str:
    sl, sr = final_scores(game)
    return (
        f"sl={format_score(sl)} sr={format_score(sr)} "
        f"outcome={outcome(game).value} impartial={_bool(is_impartial(game))}"
    )


def _cmd_eval(args) -> int:
    print(_eval_line(parse_game(args.game)))
    return 0


def _cmd_sum(args) -> int:
    if len(args.game) != 2:
        raise ValueError("sum needs exactly two --game arguments")
    total = parse_game(args.game[0]) + parse_game(args.game[1])
    print(render_game(total))
    if args.eval:
        print(_eval_line(total))
    return 0


def _cmd_tree(args) -> int:
    print(render_tree(parse_game(args.game)))
    return 0


def _cmd_gs(args) -> int:
    rules = _load_rules(args.rules)
    position = parse_position(args.position, known=rules)
    solver = GrundySolver(rules.values(), budget=args.budget)
    print(f"value={format_score(solver.value(position))}")
    moves = solver.best_moves(position)
    if not moves:
        print("best=none")
    for move in moves:
        taken = position.total - move.next.total
        print(
            f"best: take={taken} points={format_score(move.points)} "
            f"next={render_position(move.next)}"
        )
    return 0


def _sweep_values(args) -> tuple[OctalRules, Position, list[int], int]:
    """The varying heap's ruleset, the base, the swept values times the
    solver's scale, and that scale."""
    rules = _load_rules(args.rules)
    base = parse_position(args.fixed, known=rules)
    solver = GrundySolver(rules.values(), budget=args.budget)
    values = solver.sweep(args.max_n, args.var, base)
    # the sweep has refused a missing or unknown --var
    return solver.rules[args.var or next(iter(rules))], base, values, solver.scale


def _cmd_table(args) -> int:
    varying, base, values, scale = _sweep_values(args)
    rendered = render_scaled(values, scale)
    body = "n,value\n" + "\n".join(f"{n},{text}" for n, text in enumerate(rendered))
    if args.format == "structured":
        print("format: table")
        print(f"rules: {varying.name}")
        print(f"rules-digest: {varying.digest}")
        print(f"fixed: {render_position(base)}")
        print(f"max-n: {args.max_n}")
        print(f"values-digest: {sequence_digest(values, scale)}")
        print()
    print(body)
    return 0


def _cmd_period(args) -> int:
    if args.max_n >= 0:  # the sweep refuses a negative max_n
        _check_window(args.max_n + 1, args.min_window)
    varying, base, values, scale = _sweep_values(args)
    if base:
        print("note: fixed base position, certification skipped", file=sys.stderr)
    report = detect_certified_period(varying, values, args.min_window, base)
    digest = sequence_digest(values, scale)
    if report is None:
        print(f"period=none checked_up_to={args.max_n} values_digest={digest}")
        return 0
    cert_from = ""
    if report.certified:
        cert_from = f" certified_from={certified_start(varying, report)}"
    elif varying.splits_heaps:
        print("note: rules can split heaps, report stays empirical", file=sys.stderr)
    elif not base:
        print("note: no candidate period certifies within this sweep", file=sys.stderr)
    print(
        f"preperiod={report.preperiod} period={report.period} "
        f"certified={_bool(report.certified)}{cert_from} "
        f"checked_up_to={args.max_n} values_digest={digest}"
    )
    return 0


def _cmd_lemma(args) -> int:
    try:
        amounts = [int(tok) for tok in args.set.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad subtraction amounts in --set {args.set!r}") from None
    report = check_lemma(amounts, args.imax)
    joined = ",".join(map(str, report.subtraction_set))
    print(f"set={{{joined}}} k={report.k} imax={report.i_max}")
    for s, i, lhs, rhs in report.identity_failures:
        print(f"identity-failure: s={s} i={i} lhs={format_score(lhs)} rhs={format_score(rhs)}")
    for r, i, value, bound, which in report.bound_failures:
        print(
            f"bound-failure: r={r} i={i} value={format_score(value)} "
            f"bound={format_score(bound)} ({which})"
        )
    print(f"identity-failures={len(report.identity_failures)}")
    print(f"bound-failures={len(report.bound_failures)}")
    print(f"status={'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 1


def _cmd_scan(args) -> int:
    spec = parse_scan_spec(Path(args.spec).read_text(encoding="utf-8"))
    report = run_scan(spec)
    csv_text = report.to_csv()
    if args.out:  # first, so a file that cannot be written leaves stdout empty
        Path(args.out + ".csv").write_text(csv_text, encoding="utf-8")
        Path(args.out + ".txt").write_text(report.to_detail(), encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _cmd_oracle(args) -> int:
    rules = _load_rules(args.rules)
    failures = 0
    total_positions = 0
    for name in sorted(rules):
        solver = GrundySolver(rules[name], budget=args.budget)
        checked = 0
        bad = 0
        for heaps in iter_heap_multisets(args.max_total):
            position = Position((name, size) for size in heaps)
            value = solver.value(position)
            scores = final_scores(solver.to_game(position, max_total=args.max_total))
            if not (value == scores.sl == -scores.sr):
                bad += 1
                print(
                    f"mismatch: ruleset={name} position={render_position(position)} "
                    f"value={format_score(value)} sl={format_score(scores.sl)} "
                    f"sr={format_score(scores.sr)}"
                )
            checked += 1
        print(f"ruleset {name}: positions={checked} {'pass' if bad == 0 else 'FAIL'}")
        failures += bad
        total_positions += checked
    verdict = "pass" if failures == 0 else "FAIL"
    print(f"oracle: {verdict} (rulesets={len(rules)}, positions={total_positions})")
    return 0 if failures == 0 else 1


_PARSER = _build_parser()
