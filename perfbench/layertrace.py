"""Per-layer tracing of scoreplay from the outside.

``install`` replaces each layer's public functions, wherever scoreplay's
modules bound them, with wrappers that record one span per call: the
function, its start and end, and its parent span.  ``uninstall`` puts the
originals back.  Self time is a span's
duration minus the durations of its child spans.  A call of a function that
is already running (``render_game`` recursing through its module global) is
part of the outer span, not a span of its own.  The same wrappers count
work at the layer boundaries.  Spans stay in memory and are written out by
``Tracer.dump`` when the run ends.

Only ``run.py --trace 1`` imports this module; untraced runs never load it.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

# (metric prefix, defining module, attribute); a dotted attribute is a method
FUNCTIONS = [
    ("cli.main", "scoreplay.cli", "main"),
    ("games.parse_game", "scoreplay.games", "parse_game"),
    ("games.render_game", "scoreplay.games", "render_game"),
    ("games.add", "scoreplay.games", "add"),
    ("games.final_scores", "scoreplay.games", "final_scores"),
    ("games.outcome", "scoreplay.games", "outcome"),
    ("games.is_impartial", "scoreplay.games", "is_impartial"),
    ("games.Game", "scoreplay.games", "Game.__init__"),
    ("octal.GrundySolver.value", "scoreplay.octal", "GrundySolver.value"),
    ("octal.GrundySolver.sweep", "scoreplay.octal", "GrundySolver.sweep"),
    ("octal.GrundySolver.best_moves", "scoreplay.octal", "GrundySolver.best_moves"),
    ("octal.GrundySolver.to_game", "scoreplay.octal", "GrundySolver.to_game"),
    ("octal.legal_moves", "scoreplay.octal", "legal_moves"),
    ("octal.parse_position", "scoreplay.octal", "parse_position"),
    ("periods.parse_scan_spec", "scoreplay.periods", "parse_scan_spec"),
    ("periods.run_scan", "scoreplay.periods", "run_scan"),
    ("periods.scan_instance", "scoreplay.periods", "scan_instance"),
    ("periods.detect_certified_period", "scoreplay.periods", "detect_certified_period"),
    ("periods.certify_period", "scoreplay.periods", "certify_period"),
    ("periods.sequence_digest", "scoreplay.periods", "sequence_digest"),
]
_NAMES = [name for name, _, _ in FUNCTIONS]
_VALUE = _NAMES.index("octal.GrundySolver.value")
_CERTIFY = _NAMES.index("periods.certify_period")
LAYERS = ("cli", "games", "octal", "periods")
COUNTERS = [
    ("games.nodes_built", "count"),
    ("games.nodes_distinct", "count"),
    ("games.node_share_ratio", "ratio"),
    ("octal.positions_memoized", "count"),
    ("octal.value_memo_hit_ratio", "ratio"),
    ("octal.moves_generated", "count"),
    ("periods.certify_success_ratio", "ratio"),
    ("periods.sweep_useful_ratio", "ratio"),
]
# Every metric a traced run reports, in order, with its unit.
METRICS = (
    [("tracing_overhead_s", "s")]
    + [(f"{layer}.self_share", "%") for layer in LAYERS]
    + [(f"{name}.{kind}", unit) for name in _NAMES for kind, unit in (("calls", "count"), ("self_share", "%"))]
    + COUNTERS
)
SCOREPLAY_MODULES = ("scoreplay", "scoreplay.games", "scoreplay.octal", "scoreplay.periods", "scoreplay.cli")
MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        n = len(FUNCTIONS)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self._active = [False] * n
        self._stack: list[list] = []  # [span id, seconds spent in child spans]
        self._next_id = 0
        self.spans: list[tuple] = []  # (span id, parent id, function, start, end)
        self.spans_dropped = 0
        self.batches = 0
        # work counters, summed over batches
        self.nodes_built = 0
        self.nodes_distinct = 0
        self._node_hashes: set[int] = set()
        self.positions_memoized = 0
        self.value_hits = 0
        self.moves_generated = 0
        self.certify_ok = 0
        self.sweep_useful = 0
        self.sweep_total = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def end_batch(self) -> None:
        """Close one batch; structural node sharing is counted per batch."""
        self.batches += 1
        self.nodes_distinct += len(self._node_hashes)
        self._node_hashes = set()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, index: int, fn, observe=None):
        active, stack = self._active, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[index]:
                return fn(*args, **kwargs)
            active[index] = True
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                active[index] = False
                duration = end - start
                self.calls[index] += 1
                self.total_s[index] += duration
                self.self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, index, start, end))
                else:
                    self.spans_dropped += 1

        return traced

    def _observe_game(self, args, result) -> None:
        self.nodes_built += 1
        # structurally equal games hash equal; distinct hashes count distinct trees
        self._node_hashes.add(hash(args[0]))

    def _observe_legal_moves(self, args, result) -> None:
        self.moves_generated += len(result)

    def _observe_certify(self, args, result) -> None:
        self.certify_ok += bool(result)

    def _observe_scan_instance(self, args, row) -> None:
        (instance,) = args
        swept = instance.max_n + 1
        useful = swept
        if row.certified:
            # values certify_period needed: window start + two periods + lookback
            useful = min(swept, row.certified_from + 2 * row.period + len(instance.rules.digits))
        self.sweep_useful += useful
        self.sweep_total += swept

    def _wrap_value(self, index: int, fn):
        def value(solver, position):
            before = solver.positions_evaluated
            result = fn(solver, position)
            added = solver.positions_evaluated - before
            self.value_hits += added == 0
            self.positions_memoized += added
            return result

        return self.wrap(index, value)

    def install(self) -> None:
        """Patch every binding of the traced functions in scoreplay's modules."""
        modules = [importlib.import_module(name) for name in SCOREPLAY_MODULES]
        observers = {
            "games.Game": self._observe_game,
            "octal.legal_moves": self._observe_legal_moves,
            "periods.certify_period": self._observe_certify,
            "periods.scan_instance": self._observe_scan_instance,
        }
        for index, (name, module_name, attr) in enumerate(FUNCTIONS):
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method: patch the class
                cls_name, attr = attr.split(".")
                owners = [getattr(owner, cls_name)]
                original = owners[0].__dict__[attr]
            else:  # a function: patch every module that bound it
                original = getattr(owner, attr)
                owners = [module for module in modules if getattr(module, attr, None) is original]
            if name == "octal.GrundySolver.value":
                wrapped = self._wrap_value(index, original)
            else:
                wrapped = self.wrap(index, original, observers.get(name))
            for target in owners:
                self._patch(target, attr, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Per-batch values of every metric in ``METRICS``."""
        batches = max(self.batches, 1)
        main_total = self.total_s[0] or 1.0
        out: dict[str, float] = {"tracing_overhead_s": overhead_s}
        for layer in LAYERS:
            layer_self = sum(s for name, s in zip(_NAMES, self.self_s) if name.split(".")[0] == layer)
            out[f"{layer}.self_share"] = 100.0 * layer_self / main_total
        for index, name in enumerate(_NAMES):
            out[f"{name}.calls"] = self.calls[index] / batches
            out[f"{name}.self_share"] = 100.0 * self.self_s[index] / main_total
        out["games.nodes_built"] = self.nodes_built / batches
        out["games.nodes_distinct"] = self.nodes_distinct / batches
        out["games.node_share_ratio"] = _ratio(self.nodes_distinct, self.nodes_built)
        out["octal.positions_memoized"] = self.positions_memoized / batches
        out["octal.value_memo_hit_ratio"] = _ratio(self.value_hits, self.calls[_VALUE])
        out["octal.moves_generated"] = self.moves_generated / batches
        # a call that raised, because the window was too short, counts as failed
        out["periods.certify_success_ratio"] = _ratio(self.certify_ok, self.calls[_CERTIFY])
        out["periods.sweep_useful_ratio"] = _ratio(self.sweep_useful, self.sweep_total)
        return out

    def table(self) -> list[str]:
        """Per-batch calls, total and self seconds of each traced function."""
        batches = max(self.batches, 1)
        lines = [f"{'function':34} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
        for index, name in enumerate(_NAMES):
            lines.append(
                f"{name:34} {self.calls[index] / batches:10.0f} "
                f"{self.total_s[index] / batches:10.4f} {self.self_s[index] / batches:10.4f}"
            )
        return lines

    def dump(self, path: Path, stamp: dict, metrics: dict[str, float]) -> None:
        batches = max(self.batches, 1)
        functions = {
            name: {
                "calls": self.calls[i] / batches,
                "total_s": self.total_s[i] / batches,
                "self_s": self.self_s[i] / batches,
            }
            for i, name in enumerate(_NAMES)
        }
        spans = [(sid, parent, _NAMES[fn], start, end) for sid, parent, fn, start, end in self.spans]
        payload = {
            "stamp": stamp,
            "traced_batches": self.batches,
            "metrics": metrics,
            "functions": functions,
            "span_fields": ["id", "parent", "function", "start", "end"],
            "spans": spans,
            "spans_dropped": self.spans_dropped,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when the layer did no such work."""
    return part / whole if whole else 0.0
