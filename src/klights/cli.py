"""Command-line front end.

Subcommands: solve, classify, min-fas, scc, census.  Graphs come from
small text files: '#' comment lines, a header "n <count>", then one
"<tail> <head>" arc per line (0-based).  Output is plain text with one
fact per line.  Exit status is 0 for success, 1 for a negative game
answer (unwinnable labeling, census disagreement), 2 for bad input.
An unwinnable ``solve`` prints UNWINNABLE on stdout and its certificate
(see ``game.unwinnable_certificate``) as "= certificate y0,y1,..." on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .digraph import Digraph, strong_components
from .errors import CapacityError, InputError, ParseError
from .feedback import all_minimum_fas, classify_arc_induced, min_fas_witness
from .game import Labeling, neighborhood_det, solve_labeling, unwinnable_certificate
from .modalg import is_unit_mod
from .oracle import run_theorem_census


def parse_graph(text: str) -> Digraph:
    """Parse the graph file format; errors name the offending line."""
    n: int | None = None
    arcs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n" or not _is_int(parts[1]):
                raise ParseError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            n = int(parts[1])
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be >= 0, got {n}")
            continue
        if len(parts) != 2 or not (_is_int(parts[0]) and _is_int(parts[1])):
            raise ParseError(f"line {lineno}: expected '<tail> <head>', got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: arc ({u}, {v}) outside 0..{n - 1}")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate arc {u} {v}")
        seen.add((u, v))
        arcs.append((u, v))
    if n is None:
        raise ParseError("missing header line 'n <count>'")
    return Digraph(n, frozenset(arcs))


def format_graph(d: Digraph) -> str:
    """Canonical file form of a digraph; parse_graph inverts it exactly."""
    lines = [f"n {d.n}"]
    lines.extend(f"{u} {v}" for u, v in d.sorted_arcs)
    return "\n".join(lines) + "\n"


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _load(path: str) -> Digraph:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_labels(text: str, n: int, k: int) -> Labeling:
    parts = text.split(",")
    if len(parts) != n:
        raise InputError(f"expected {n} labels, got {len(parts)}")
    values = []
    for p in parts:
        if not _is_int(p.strip()):
            raise InputError(f"label {p.strip()!r} is not an integer")
        x = int(p)
        if not 0 <= x < k:
            raise InputError(f"label {x} outside [0, {k})")
        values.append(x)
    return Labeling(tuple(values), k)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise InputError(f"k must be >= 2, got {args.k}")
    d = _load(args.file)
    labeling = _parse_labels(args.labels, d.n, args.k)
    toggles = solve_labeling(d, labeling)
    if toggles is None:
        print("UNWINNABLE")
        y = unwinnable_certificate(d, labeling)
        print("= certificate " + ",".join(map(str, y.values)), file=sys.stderr)
        return 1
    print(",".join(str(x) for x in toggles.values))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.k_min < 2:
        raise InputError(f"--k-min must be >= 2, got {args.k_min}")
    if args.k_max < args.k_min:
        raise InputError(f"--k-max must be >= --k-min, got {args.k_max} < {args.k_min}")
    d = _load(args.file)
    det = neighborhood_det(d)
    print(f"det(N) = {det}")
    comps = " ".join("{" + ",".join(map(str, c)) + "}" for c in strong_components(d))
    print(f"components: {comps}")
    for k in range(args.k_min, args.k_max + 1):
        verdict = "k-AW" if is_unit_mod(det, k) else "not k-AW"
        print(f"{k}: {verdict}")
    return 0


def _cmd_min_fas(args: argparse.Namespace) -> int:
    d = _load(args.file)
    witness = min_fas_witness(d)
    print(f"size {witness.size}")
    print("ordering " + " ".join(map(str, witness.ordering)))
    print("arcs " + _render_arcs(witness.sorted_arcs()))
    if args.all:
        sets = all_minimum_fas(d)
        print(f"sets {len(sets)}")
        for i, fas in enumerate(sets, start=1):
            shape = classify_arc_induced(d, fas)
            print(f"set {i}: {_render_arcs(fas.sorted_arcs())} [{shape.describe()}]")
    return 0


def _cmd_scc(args: argparse.Namespace) -> int:
    d = _load(args.file)
    comps = strong_components(d)
    print(f"components {len(comps)}")
    for i, comp in enumerate(comps, start=1):
        print(f"component {i}: " + " ".join(map(str, comp)))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    report = run_theorem_census(args.n, args.k_max)
    sys.stdout.write(report.to_text())
    return 0 if report.disagreements == 0 else 1


def _render_arcs(arcs: tuple[tuple[int, int], ...]) -> str:
    if not arcs:
        return "-"
    return " ".join(f"{u}->{v}" for u, v in arcs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="klights",
        description="Solve and classify the k-lights-out game on directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find toggles clearing a labeling")
    p.add_argument("--k", type=int, required=True, help="number of label states (>= 2)")
    p.add_argument("--labels", required=True, help="comma-separated labels, vertex order")
    p.add_argument("file", help="graph file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", help="report k-AW over a range of k")
    p.add_argument("--k-min", type=int, default=2, dest="k_min")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("file", help="graph file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("min-fas", help="minimum feedback arc set")
    p.add_argument("--all", action="store_true", help="list every minimum arc set")
    p.add_argument("file", help="graph file")
    p.set_defaults(func=_cmd_min_fas)

    p = sub.add_parser("scc", help="strong components in acyclic order")
    p.add_argument("file", help="graph file")
    p.set_defaults(func=_cmd_scc)

    p = sub.add_parser("census", help="cross-validate the theorems on all tournaments")
    p.add_argument("--n", type=int, required=True, help="tournament size")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
