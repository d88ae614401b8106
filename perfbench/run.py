"""Benchmark of the scoreplay command line, driven in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

One closed-loop client: a single process and thread calls
``scoreplay.cli.main`` with the workload's generated arguments, each call
starting after the previous one returned, and repeats the batch while
another batch as long as the last still ends within ``--seconds``.  Every
batch's output is checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh interpreter
until ``main`` can be called, median of spawns spread over the run),
``wall_ref`` (time of one batch in units of a fixed reference loop timed
around each call: the sum over the calls of each call's median ratio across
the run's batches) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced batches with
batches traced by the wrappers of ``layertrace.py`` and reports the per-layer
metrics, including the tracing overhead.  The last line of stdout
is one JSON object; the lines before it are for people.  The exit status is
nonzero when any output was wrong or the program could not be run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 21  # at least; three more follow each batch
SETUP_PER_BATCH = 3
REFERENCE_STEPS = 2000
END_TO_END = [("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MiB")]

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchmarkError(Exception):
    """The program could not be set up or run at all."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "scoreplay" / "cli.py").is_file():
        raise BenchmarkError(f"no scoreplay sources under {SRC}")
    stamp = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    metrics = {}
    if not traced:
        spawn_ready()  # a discarded warm-up, which may compile bytecode
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    batch = WORKLOADS[workload](seed, OUT)
    tally = [0, 0]  # attempted, failed
    deadline = time.perf_counter() + seconds
    if traced:
        import layertrace  # only traced runs load the tracer

        # Untraced and traced batches alternate, so each pair meets the same
        # host conditions and their difference is the tracing overhead.
        tracer = layertrace.Tracer()
        plain, walls = [], []
        while True:
            plain.append(sum(run_batch(cli, batch, tally)[0]))
            tracer.install()
            walls.append(sum(run_batch(cli, batch, tally)[0]))
            tracer.uninstall()
            tracer.end_batch()
            if time.perf_counter() + statistics.median(plain) + statistics.median(walls) > deadline:
                break
        metrics = tracer.metrics(statistics.median(t - p for p, t in zip(plain, walls)))
        units = dict(layertrace.METRICS)
    else:
        walls, ratios = [], []  # per batch: its time, and each call's time in reference units
        setups = []  # spawns between batches, so they meet the host as the batches do
        while True:
            begin = time.perf_counter()
            times, references = run_batch(cli, batch, tally)
            walls.append(sum(times))
            ratios.append([t / r for t, r in zip(times, references)])
            setups += [spawn_ready() for _ in range(SETUP_PER_BATCH)]
            # stop unless one more batch as long as this one still ends by the deadline
            batch_s = time.perf_counter() - begin
            if time.perf_counter() + batch_s > deadline:
                break
        setups += [spawn_ready() for _ in range(SETUP_SAMPLES - len(setups))]
        metrics["setup_s"] = statistics.median(setups)
        # Load from other tenants of the host slows the reference loop and the
        # call alike, so the ratio holds while the host's speed drifts.  A
        # call's median over batches drops the odd burst the two did not share.
        metrics["wall_ref"] = sum(statistics.median(r) for r in zip(*ratios))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    stamp["loadavg_end"] = os.getloadavg()
    attempted, failed = tally

    print("stamp        " + json.dumps(stamp))
    if traced:
        print(f"{len(walls)} traced batches alternating with {len(plain)} untraced; per traced batch:")
        print("\n".join(tracer.table()))
        for name, value in metrics.items():
            print(f"{name:34} {value:12.4f} {units[name]}")
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.dump(trace_file, stamp, metrics)
        print(f"spans written to {trace_file}")
    else:
        print(f"setup_s      {metrics['setup_s']:.6f} s    median of {len(setups)} fresh interpreters")
        print(f"wall_ref     {metrics['wall_ref']:.3f} ref  sum of {len(batch.argvs)} calls' median "
              f"reference ratios over {len(walls)} batches")
        print(f"wall_s       {statistics.median(walls):.6f} s    median batch time; "
              f"min {min(walls):.6f}, max {max(walls):.6f}")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:.3f} MiB")
    print(f"fail_ratio   {failed / attempted:.6f}    {failed} of {attempted} items failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_batch(cli, batch, tally: list[int]) -> tuple[list[float], list[float]]:
    """Run and check one batch.

    Return the wall time of each call and, for each call, the mean time of
    the reference loop run just before and just after it.
    """
    results, times, around = [], [], [reference()]
    for argv in batch.argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            begin = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails this call's items; keep measuring
                code = None
                traceback.print_exc(file=sys.__stderr__)
            times.append(time.perf_counter() - begin)
        around.append(reference())
        results.append((code, out.getvalue()))
    attempted, failed = batch.check(results)
    tally[0] += attempted
    tally[1] += failed
    return times, [(a + b) / 2 for a, b in zip(around, around[1:])]


def reference() -> float:
    """Wall time of a fixed loop of the dict, tuple and Fraction work that
    scoreplay does; the yardstick of the host's speed at that moment."""
    begin = time.perf_counter()
    counts, total = {}, Fraction(0)
    for i in range(REFERENCE_STEPS):
        key = (i & 63, i >> 3)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i & 7, 3)
    return time.perf_counter() - begin


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        from scoreplay import cli
    except ImportError as exc:
        raise BenchmarkError(f"cannot import scoreplay.cli from {SRC}: {exc}") from None
    if Path(cli.__file__).resolve().parent != SRC / "scoreplay":
        raise BenchmarkError(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def spawn_ready() -> float:
    """Time from spawning a fresh interpreter until ``main`` is importable."""
    code = "from scoreplay.cli import main\nimport sys\nsys.stdout.write('ready')\nsys.stdout.flush()\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    begin = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env) as child:
        ready = child.stdout.read(5)
        elapsed = time.perf_counter() - begin
        child.stdout.read()
    if child.returncode != 0 or ready != b"ready":
        raise BenchmarkError(f"a fresh interpreter could not import scoreplay.cli from {SRC}")
    return elapsed


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree of its own."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 2 or Path(fields[0]).resolve() != ROOT:
        return "unknown"
    return fields[1]


def source_digest() -> str:
    """sha256 over the program's sources, which identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "scoreplay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_all(args) -> int:
    """Run each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        *lines, last = done.stdout.splitlines() or [""]
        print(f"== {workload}")
        print("\n".join(lines))
        if done.returncode not in (0, 1):
            print(f"perfbench: {workload} gave no result", file=sys.stderr)
            return 2
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
