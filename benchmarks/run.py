"""The klights benchmark: CLI commands timed in-process, every answer checked.

    python3 benchmarks/run.py [--workload solve|classify|tournaments|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Each operation is one call of ``klights.cli.main(argv)`` on a graph file
the benchmark wrote, with stdout captured: the command's parse, compute
and print, without interpreter start-up.  One caller, one thread, one
process, closed loop.  A run repeats whole rounds of the workload's
fixed, seeded operation list until ``--seconds`` have passed and the
workload's minimum operation count is reached; ``--seconds`` defaults
to ``run_seconds`` in BENCHMARK.json and is the length of one
workload's run.  Before each round the runner sets up again: a fresh
import of klights and new graph files, timed apart from the
operations.  Answers are checked after timing ends, against data made
before it started (see ``workloads.py`` and ``checks.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a run with spans around klights' functions (``spans.py``), and the
spans are written to ``benchmarks/out/``.  ``--workload all`` (the
default) runs each workload in its own process and prints them all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
# Set-ups before each round.  Spread over the whole run, their median
# sees the same machine as the operations do, not one moment of it.
SETUPS_PER_ROUND = 3
# latency_tail_ms is p90, and a run makes at least MIN_OPS operations, so
# that at least 10 of them lie beyond it.
TAIL_PCT = 90
MIN_OPS = 100
# A run stops here even short of its minimum operation count.
HARD_LIMIT_S = 150


def import_klights():
    """A fresh import of klights and klights.cli, as a new process would do it."""
    for name in [m for m in sys.modules if m == "klights" or m.startswith("klights.")]:
        del sys.modules[name]
    importlib.import_module("klights")
    return importlib.import_module("klights.cli")


def set_up(graphs, directory: Path):
    """Import klights and write the graph files with cli.format_graph.

    Returns the time it took in seconds, the cli module, and the path of
    each graph file.
    """
    start = time.perf_counter()
    cli = import_klights()
    digraph = sys.modules["klights"].Digraph
    paths = {}
    for key, (n, arcs) in graphs.items():
        path = directory / f"{key}.graph"
        path.write_text(cli.format_graph(digraph(n, arcs)), encoding="utf-8")
        paths[key] = str(path)
    return time.perf_counter() - start, cli, paths


def call(main, argv: list[str]) -> tuple[int | None, str]:
    """Exit code and stdout of one command; None and the error on an exception."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else None, buf.getvalue()
    except Exception as exc:  # counted as a failed operation, never fatal
        return None, f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    outcomes = [Counter() for _ in wl.ops]
    latencies = []
    setups = []
    wall = 0.0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        while True:
            for _ in range(SETUPS_PER_ROUND):
                seconds_taken, cli, paths = set_up(wl.graphs, Path(tmp))
                setups.append(seconds_taken)
            argvs = [[paths[op.graph] if a == "{graph}" else a for a in op.argv] for op in wl.ops]
            if tracer is not None:
                tracer.install()
            gc.collect()
            start = time.perf_counter()
            for i, argv in enumerate(argvs):
                t0 = time.perf_counter()
                if tracer is None:
                    result = call(cli.main, argv)
                else:
                    result = tracer.op(wl.ops[i].label, call, cli.main, argv)
                latencies.append(time.perf_counter() - t0)
                outcomes[i][result] += 1
            wall += time.perf_counter() - start
            done = wall >= seconds and len(latencies) >= MIN_OPS
            if done or wall >= HARD_LIMIT_S:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    for op, outcome in zip(wl.ops, outcomes):
        for (rc, out), count in outcome.items():
            try:
                reason = f"exception {out}" if rc is None else op.check(rc, out)
            except Exception as exc:  # an answer the checker cannot read is wrong
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                failed += count
                print(f"FAILED {op.label}: {reason}", file=sys.stderr)

    ops = len(latencies)
    ops_per_s = ops / wall
    lat_ms = [x * 1000 for x in latencies]
    print(f"workload {name} seed {seed}: {ops} operations, {ops // len(wl.ops)} rounds "
          f"of {len(wl.ops)}, {wall:.1f} s")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_tail_ms": (
                statistics.quantiles(lat_ms, n=100, method="inclusive")[TAIL_PCT - 1],
                "ms",
            ),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"latency_tail_ms is p{TAIL_PCT} over {ops} operations; "
              f"setup_s is the median of {len(setups)} set-ups")
    else:
        metrics = tracer.layer_metrics(ops)
        path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(path)
        print(f"traced ops_per_s {ops_per_s} 1/s; {len(tracer.spans)} spans in {path}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    print(f"attempted {ops}\nfailed {failed}")
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Run the checkout's own klights, never one installed elsewhere.
    sys.path.insert(0, str(SRC))
    try:
        import klights
    except ImportError as exc:
        print(f"error: cannot import klights from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(klights.__file__).resolve().parent != SRC / "klights":
        print(f"error: klights comes from {klights.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
