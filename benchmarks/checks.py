"""Answer checks for the klights benchmark, computed without klights.

Nothing here imports the program under test.  The arithmetic is plain
Python written apart from it: Gaussian elimination modulo a prime (the
program uses fraction-free elimination over Z and a Smith normal form),
a press simulation, reachability searches, Kahn's acyclicity test, a
directed-triangle packing and a sweep over vertex orderings.

A digraph is ``(n, arcs)`` with ``arcs`` a set of ``(tail, head)``
pairs on vertices 0..n-1.  Each ``check_*`` function takes what the
benchmark knows about one operation, plus the command's exit code and
standard output, and returns None when the answer is right or a
one-line reason when it is not.
"""

from __future__ import annotations

import re
from itertools import permutations

# Primes whose residues of det(N) are compared with the printed value;
# the small ones also decide k-AW for every k up to 12.
DET_PRIMES = (2, 3, 5, 7, 11, 13, 1_000_003, 998_244_353)


def prime_factors(k: int) -> list[int]:
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


def out_lists(n: int, arcs) -> list[list[int]]:
    outs: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        outs[u].append(v)
    return outs


def neighborhood_rows(n: int, arcs) -> list[list[int]]:
    """Row v marks v and every head of an arc leaving v."""
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = 1
    for u, v in arcs:
        rows[u][v] = 1
    return rows


def det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p, by Gaussian elimination over Z/pZ."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        pivot_row = a[c]
        det = det * pivot_row[c] % p
        inv = pow(pivot_row[c], -1, p)
        tail = pivot_row[c:]
        for r in range(c + 1, n):
            f = a[r][c]
            if f:
                f = f * inv % p
                a[r][c:] = [(x - f * y) % p for x, y in zip(a[r][c:], tail)]
    return det % p


def kernel_vector_mod_p(rows: list[list[int]], p: int) -> list[int] | None:
    """A nonzero y with rows @ y == 0 (mod p), or None when only y = 0 works."""
    a = [[x % p for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    y = [0] * ncols
    y[free] = 1
    for i, c in enumerate(pivots):
        y[c] = -a[i][free] % p
    return y


def unwinnable_certificate(rows: list[list[int]], k: int) -> list[int] | None:
    """y over Z/kZ with rows @ y == 0 (mod k) and y != 0, or None.

    Found as a kernel vector mod a prime p dividing k, scaled by k/p.
    With N the neighborhood rows, ``N @ y == 0`` says that for every
    vertex v the sum of y over v's closed out-neighbourhood is 0, so
    y . b is the same before and after any press: a board b with
    y . b != 0 (mod k) can never be cleared.  None means N is
    nonsingular mod every prime dividing k, so every board is winnable.
    """
    for p in prime_factors(k):
        z = kernel_vector_mod_p(rows, p)
        if z is not None:
            return [(k // p) * x % k for x in z]
    return None


def is_certificate(rows: list[list[int]], y: list[int], board: list[int], k: int) -> bool:
    """True iff y proves the board unwinnable (see unwinnable_certificate)."""
    if any(sum(a * b for a, b in zip(row, y)) % k for row in rows):
        return False
    return sum(a * b for a, b in zip(y, board)) % k != 0


def press(outs: list[list[int]], board: list[int], toggles: list[int], k: int) -> list[int]:
    """The board after pressing vertex v toggles[v] times, for every v."""
    out = list(board)
    for v, t in enumerate(toggles):
        if t:
            out[v] += t
            for w in outs[v]:
                out[w] += t
    return [x % k for x in out]


def reachable(outs: list[list[int]], start: int, allowed: set[int]) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in outs[v]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strong(n: int, arcs, vertices) -> bool:
    """True iff the subgraph induced on ``vertices`` is strongly connected."""
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    start = next(iter(vs))
    fwd = out_lists(n, arcs)
    back = out_lists(n, [(v, u) for u, v in arcs])
    return reachable(fwd, start, vs) == vs and reachable(back, start, vs) == vs


def is_acyclic(n: int, arcs) -> bool:
    """Kahn's algorithm: every vertex can be removed as a source in turn."""
    indeg = [0] * n
    for _, v in arcs:
        indeg[v] += 1
    outs = out_lists(n, arcs)
    stack = [v for v in range(n) if indeg[v] == 0]
    removed = 0
    while stack:
        v = stack.pop()
        removed += 1
        for w in outs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return removed == n


def aw_from_dets(dets: dict[int, int], k: int) -> bool:
    """k-AW iff N is nonsingular mod every prime dividing k."""
    return all(dets[p] != 0 for p in prime_factors(k))


def triangle_packing(arcs, key_arcs) -> list[tuple[int, int, int]] | None:
    """Arc-disjoint directed triangles, one through each key arc, or None.

    Backtracking over the third vertex of each triangle.  Any m
    arc-disjoint directed triangles show that every feedback arc set
    has at least m arcs, since each triangle needs one of its own.
    """
    arcs = set(arcs)
    verts = sorted({w for a in arcs for w in a})
    used: set[tuple[int, int]] = set()
    chosen: list[tuple[int, int, int]] = []

    def place(i: int) -> bool:
        if i == len(key_arcs):
            return True
        a, b = key_arcs[i]
        if (a, b) in used:
            return False
        for x in verts:
            sides = ((b, x), (x, a))
            if all(s in arcs and s not in used for s in sides):
                used.update(((a, b),) + sides)
                chosen.append((a, b, x))
                if place(i + 1):
                    return True
                chosen.pop()
                used.difference_update(((a, b),) + sides)
        return False

    return list(chosen) if place(0) else None


def is_triangle_packing(arcs, triangles) -> bool:
    """True iff every triangle is a directed 3-cycle of arcs and no arc repeats."""
    arcs = set(arcs)
    sides = [s for a, b, c in triangles for s in ((a, b), (b, c), (c, a))]
    return all(s in arcs for s in sides) and len(set(sides)) == len(sides)


def minimum_fas_sets(n: int, arcs) -> tuple[int, set[frozenset]]:
    """Minimum size and every minimum backward-arc set, over all n! orderings."""
    arc_list = sorted(arcs)
    best = len(arc_list)
    found: set[frozenset] = set()
    pos = [0] * n
    for perm in permutations(range(n)):
        for i, v in enumerate(perm):
            pos[v] = i
        back = frozenset(a for a in arc_list if pos[a[1]] < pos[a[0]])
        if len(back) < best:
            best, found = len(back), {back}
        elif len(back) == best:
            found.add(back)
    return best, found


def tournament_from_mask(n: int, mask: int) -> set[tuple[int, int]]:
    """Bit b of mask reverses the b-th pair (u, v), u < v, pairs in lexicographic order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return {(v, u) if mask >> b & 1 else (u, v) for b, (u, v) in enumerate(pairs)}


# --- output checks, one per command ---------------------------------------


def check_solve(n, arcs, k, board, winnable, rc, out) -> str | None:
    """A winnable board needs exit 0 and toggles that clear it; else exit 1."""
    if not winnable:
        if rc != 1 or out.strip() != "UNWINNABLE":
            return f"unwinnable board: exit {rc}, output {out.strip()[:40]!r}"
        return None
    if rc != 0:
        return f"winnable board: exit {rc}"
    try:
        toggles = [int(x) for x in out.strip().split(",")]
    except ValueError:
        return f"toggles unreadable: {out.strip()[:40]!r}"
    if len(toggles) != n:
        return f"{len(toggles)} toggles for {n} vertices"
    if any(press(out_lists(n, arcs), board, toggles, k)):
        return "toggles do not clear the board"
    return None


def _parse_components(line: str) -> list[list[int]] | None:
    if not line.startswith("components: "):
        return None
    comps = re.findall(r"\{([0-9,]*)\}", line)
    return [[int(x) for x in c.split(",") if x] for c in comps]


def check_classify(n, arcs, k_max, dets, acyclic, rc, out) -> str | None:
    """det(N) mod primes, the component list, and one verdict per k."""
    lines = out.splitlines()
    if rc != 0 or len(lines) != 2 + (k_max - 1):
        return f"exit {rc}, {len(lines)} lines"
    m = re.fullmatch(r"det\(N\) = (-?\d+)", lines[0])
    if not m:
        return f"bad det line {lines[0][:40]!r}"
    det = int(m.group(1))
    if any(det % p != d for p, d in dets.items()):
        return "printed det(N) disagrees with elimination mod a prime"
    comps = _parse_components(lines[1])
    if comps is None:
        return f"bad components line {lines[1][:40]!r}"
    if sorted(v for c in comps for v in c) != list(range(n)):
        return "components do not partition the vertices"
    where = {v: i for i, c in enumerate(comps) for v in c}
    if any(where[u] > where[v] for u, v in arcs):
        return "an arc between components points backward"
    if not all(is_strong(n, arcs, c) for c in comps):
        return "a component is not strongly connected"
    comp_dets = []
    for c in comps:
        index = {v: i for i, v in enumerate(c)}
        sub = [(index[u], index[v]) for u, v in arcs if u in index and v in index]
        rows = neighborhood_rows(len(c), sub)
        comp_dets.append({p: det_mod_p(rows, p) for p in DET_PRIMES if p <= k_max})
    for k, line in zip(range(2, k_max + 1), lines[2:]):
        if line not in (f"{k}: k-AW", f"{k}: not k-AW"):
            return f"bad verdict line {line!r}"
        said = line.endswith(": k-AW")
        if said != aw_from_dets(dets, k):
            return f"k={k}: verdict disagrees with det(N) mod the primes of k"
        if said != all(aw_from_dets(cd, k) for cd in comp_dets):
            return f"k={k}: verdict disagrees with the components' verdicts"
        if acyclic and not said:
            return f"k={k}: acyclic digraph reported not k-AW"
    return None


def _parse_arcs(text: str) -> list[tuple[int, int]] | None:
    if text == "-":
        return []
    arcs = []
    for tok in text.split():
        m = re.fullmatch(r"(\d+)->(\d+)", tok)
        if not m:
            return None
        arcs.append((int(m.group(1)), int(m.group(2))))
    return arcs


def check_min_fas(n, arcs, size, min_sets, rc, out) -> str | None:
    """Ordering, backward arcs and size; with min_sets, the --all listing too.

    ``size`` is the certified minimum.  ``min_sets``, when given, is the
    set of every minimum feedback arc set from the ordering sweep.
    """
    lines = out.splitlines()
    if rc != 0 or len(lines) < 3:
        return f"exit {rc}, {len(lines)} lines"
    if lines[0] != f"size {size}":
        return f"{lines[0]!r}, certified minimum is {size}"
    if not lines[1].startswith("ordering "):
        return f"bad ordering line {lines[1][:40]!r}"
    try:
        ordering = [int(x) for x in lines[1].split()[1:]]
    except ValueError:
        return f"bad ordering line {lines[1][:40]!r}"
    if sorted(ordering) != list(range(n)):
        return "ordering is not a permutation"
    printed = _parse_arcs(lines[2][len("arcs "):]) if lines[2].startswith("arcs ") else None
    if printed is None:
        return f"bad arcs line {lines[2][:40]!r}"
    pos = {v: i for i, v in enumerate(ordering)}
    backward = {(u, v) for u, v in arcs if pos[v] < pos[u]}
    if set(printed) != backward or len(printed) != len(backward):
        return "printed arcs are not the ordering's backward arcs"
    if not is_acyclic(n, set(arcs) - backward):
        return "deleting the printed arcs leaves a cycle"
    if len(printed) != size:
        return f"{len(printed)} arcs printed, certified minimum is {size}"
    if min_sets is None:
        return None if len(lines) == 3 else "unexpected extra lines"
    if len(lines) < 4 or lines[3] != f"sets {len(min_sets)}":
        return f"{lines[3:4]}, the ordering sweep finds {len(min_sets)}"
    listed = set()
    for i, line in enumerate(lines[4:], start=1):
        m = re.fullmatch(rf"set {i}: (.+) \[[^\]]+\]", line)
        fas = _parse_arcs(m.group(1)) if m else None
        if fas is None:
            return f"bad set line {line[:40]!r}"
        fas_set = frozenset(fas)
        if len(fas) != size or len(fas_set) != size or not fas_set <= set(arcs):
            return f"set {i} does not have {size} distinct arcs of the digraph"
        if not is_acyclic(n, set(arcs) - fas_set):
            return f"deleting set {i} leaves a cycle"
        listed.add(fas_set)
    if len(listed) != len(lines) - 4 or listed != min_sets:
        return "listed sets are not the distinct minimum sets of the sweep"
    return None


# OEIS A054946: strongly connected labeled tournaments on n nodes.
STRONG_TOURNAMENTS = {1: 1, 2: 0, 3: 2, 4: 24, 5: 544, 6: 22320}


def check_census(n, k_max, expected_aw, rc, out) -> str | None:
    """Totals, the OEIS strong count, and every row's aw verdict.

    ``expected_aw[(mask, k)]`` is the benchmark's own determinant test.
    """
    if rc != 0:
        return f"exit {rc}"
    totals = {}
    rows = 0
    seen = set()
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        if line.startswith("= "):
            key, _, value = line[2:].partition(" ")
            totals[key] = value
            continue
        f = line.split("\t")
        if len(f) != 9 or f[1] != str(n) or f[8] != "1":
            return f"bad or disagreeing row {line[:40]!r}"
        key = (int(f[0]), int(f[2]))
        if key not in expected_aw or key in seen:
            return f"unexpected or repeated row {key}"
        if f[3] != str(int(expected_aw[key])):
            return f"row {key}: aw {f[3]} disagrees with det(N) mod the primes of k"
        seen.add(key)
        rows += 1
    graphs = 2 ** (n * (n - 1) // 2)
    want = {
        "n": n,
        "k_max": k_max,
        "graphs": graphs,
        "records": graphs * (k_max - 1),
        "strong": STRONG_TOURNAMENTS[n],
        "disagreements": 0,
    }
    for key, value in want.items():
        if totals.get(key) != str(value):
            return f"= {key} {totals.get(key)}, expected {value}"
    if rows != len(expected_aw):
        return f"{rows} rows, expected {len(expected_aw)}"
    return None
