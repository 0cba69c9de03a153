"""Spans and counters around klights' public functions, for the traced run.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
wrapper in every loaded ``klights`` module that binds it by name (for
example ``det_int`` is bound in modalg, game, cli and oracle), so calls
made inside the package are seen too.  A wrapper keeps one span per
call in memory: name, parent span, start and end.  Counters come from
the arguments and return values, in a ``tracer.count`` span of their
own, so that no layer's self time holds the tracer's counting.  Nothing
inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
from collections import Counter
from time import perf_counter_ns

# Function name -> module that defines it; metric names use that module.
LAYERS = {
    "parse_graph": "cli",
    "strong_components": "digraph",
    "smith_normal_form": "modalg",
    "solve_mod": "modalg",
    "det_int": "modalg",
    "neighborhood_matrix": "game",
    "min_fas_witness": "feedback",
    "min_fas_size": "feedback",
    "all_minimum_fas": "feedback",
    "classify_arc_induced": "feedback",
    "brute_force_is_k_aw": "oracle",
    "run_theorem_census": "oracle",
}


def _snf_bits(result) -> int:
    u, _, v = result
    return max((abs(x).bit_length() for m in (u, v) for row in m.rows for x in row), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []  # name, parent, start, end
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.snf_max_bits = 0

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int) -> None:
        self.spans[sid] = (name, parent, start, perf_counter_ns())
        self.stack.pop()

    def op(self, label: str, fn, *args):
        """Run one benchmark operation as a root span."""
        sid, parent = self._open()
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, "op " + label, start)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            sid, parent = self._open()
            start = perf_counter_ns()
            self._count(name, args, result)
            self._close(sid, parent, "tracer.count", start)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        self.counts[name] += 1
        if name == "smith_normal_form":
            self.snf_max_bits = max(self.snf_max_bits, _snf_bits(result))
        elif name in ("min_fas_size", "min_fas_witness"):
            self.counts["dp_states"] += 2 ** args[0].n
        elif name == "all_minimum_fas":
            self.counts["orderings_swept"] += math.factorial(args[0].n)
        elif name == "brute_force_is_k_aw":
            self.counts["toggle_vectors"] += args[1] ** args[0].n

    def install(self) -> None:
        """Wrap every binding of each LAYERS function in the loaded klights modules."""
        modules = [m for k, m in sys.modules.items() if k == "klights" or k.startswith("klights.")]
        for name, home in LAYERS.items():
            original = getattr(sys.modules[f"klights.{home}"], name)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit); times and counts are per operation."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter = Counter()
        for sid, (name, _, start, end) in enumerate(self.spans):
            self_ns[name] += end - start - child[sid]

        def ms(ns: int) -> tuple[float, str]:
            return ns / 1e6 / ops, "ms"

        def per_op(n: int) -> tuple[float, str]:
            return n / ops, "count"

        return {
            "cli.parse_graph.ms": ms(total["parse_graph"]),
            "digraph.strong_components.ms": ms(total["strong_components"]),
            "modalg.smith_normal_form.ms": ms(total["smith_normal_form"]),
            "modalg.smith_normal_form.calls": per_op(self.counts["smith_normal_form"]),
            "modalg.snf_max_bits": (self.snf_max_bits, "bits"),
            "modalg.solve_mod.self_ms": ms(self_ns["solve_mod"]),
            "modalg.det_int.ms": ms(total["det_int"]),
            "modalg.det_int.calls": per_op(self.counts["det_int"]),
            "game.neighborhood_matrix.ms": ms(total["neighborhood_matrix"]),
            "feedback.min_fas_witness.ms": ms(total["min_fas_witness"]),
            "feedback.min_fas_size.ms": ms(total["min_fas_size"]),
            "feedback.dp_states": per_op(self.counts["dp_states"]),
            "feedback.all_minimum_fas.ms": ms(total["all_minimum_fas"]),
            "feedback.orderings_swept": per_op(self.counts["orderings_swept"]),
            "feedback.classify_arc_induced.ms": ms(total["classify_arc_induced"]),
            "oracle.brute_force_is_k_aw.ms": ms(total["brute_force_is_k_aw"]),
            "oracle.toggle_vectors": per_op(self.counts["toggle_vectors"]),
            "oracle.run_theorem_census.self_ms": ms(self_ns["run_theorem_census"]),
        }

    def write(self, path) -> None:
        """All spans as gzipped TSV: span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")
