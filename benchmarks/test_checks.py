"""Tests of the benchmark's own checkers.

    python3 -m pytest -q benchmarks

The checkers must agree with brute force on small inputs, accept the
program's real answers, and reject an answer with one thing wrong.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from klights import cli, enumerate_tournaments  # noqa: E402


def det_leibniz(rows):
    n = len(rows)
    if n == 0:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * det_leibniz([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(n)
        if rows[0][j]
    )


def winnable_boards(n, arcs, k):
    """Every board some toggle vector clears, by trying all k^n of them."""
    outs = checks.out_lists(n, arcs)
    return {
        tuple(-x % k for x in checks.press(outs, [0] * n, list(t), k))
        for t in product(range(k), repeat=n)
    }


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def write_graph(tmp_path, n, arcs):
    path = tmp_path / "g.graph"
    path.write_text(cli.format_graph(cli.Digraph(n, frozenset(arcs))))
    return str(path)


def test_det_mod_p_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = det_leibniz(rows)
        for p in (2, 3, 5, 7, 1_000_003):
            assert checks.det_mod_p(rows, p) == det % p


def test_kernel_vector_exists_iff_singular():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 5)
        p = rng.choice((2, 3, 5))
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        y = checks.kernel_vector_mod_p(rows, p)
        if checks.det_mod_p(rows, p):
            assert y is None
        else:
            assert any(y)
            assert all(sum(a * b for a, b in zip(row, y)) % p == 0 for row in rows)


def test_certificates_agree_with_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        arcs = workloads.random_digraph(n, rng.random(), rng.randrange(1000))
        rows = checks.neighborhood_rows(n, arcs)
        for k in (2, 3, 4, 6):
            winnable = winnable_boards(n, arcs, k)
            y = checks.unwinnable_certificate(rows, k)
            assert (y is None) == (len(winnable) == k**n)
            for board in product(range(k), repeat=n):
                if y is not None and checks.is_certificate(rows, y, list(board), k):
                    assert board not in winnable


def test_triangle_packing_certifies_the_minimum_fas():
    rng = random.Random(4)
    for n in (5, 6, 7):
        for m in (1, 2):
            arcs = workloads.planted_tournament(rng, n, m)
            acyclic_at = [
                any(checks.is_acyclic(n, arcs - set(c)) for c in combinations(sorted(arcs), size))
                for size in range(m + 1)
            ]
            assert acyclic_at == [False] * m + [True]
            assert checks.minimum_fas_sets(n, arcs)[0] == m


def test_packing_rejects_shared_arcs():
    arcs = {(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)}
    assert checks.is_triangle_packing(arcs, [(0, 1, 2)])
    assert checks.is_triangle_packing(arcs, [(0, 1, 3)])
    assert not checks.is_triangle_packing(arcs, [(0, 1, 2), (0, 1, 3)])
    assert not checks.is_triangle_packing(arcs, [(0, 2, 1)])
    assert checks.triangle_packing(arcs, [(2, 0), (3, 0)]) is None


def test_tournament_masks_follow_the_documented_order():
    for mask, t in enumerate(enumerate_tournaments(4)):
        assert checks.tournament_from_mask(4, mask) == set(t.arcs)


def test_solve_check_rejects_one_changed_toggle(tmp_path):
    n, arcs, k = 25, workloads.grid(5), 6
    path = write_graph(tmp_path, n, arcs)
    rng = random.Random(5)
    board = [-x % k for x in checks.press(
        checks.out_lists(n, arcs), [0] * n, [rng.randrange(k) for _ in range(n)], k)]
    rc, out = run_cli(["solve", "--k", str(k), "--labels", ",".join(map(str, board)), path])
    assert checks.check_solve(n, arcs, k, board, True, rc, out) is None
    toggles = [int(x) for x in out.split(",")]
    toggles[7] = (toggles[7] + 1) % k
    bad = ",".join(map(str, toggles)) + "\n"
    assert checks.check_solve(n, arcs, k, board, True, rc, bad) is not None
    assert checks.check_solve(n, arcs, k, board, False, rc, out) is not None
    assert checks.check_solve(n, arcs, k, board, True, 1, "UNWINNABLE\n") is not None


def test_solve_check_on_a_certified_unwinnable_board(tmp_path):
    n, arcs, k = 25, workloads.grid(5), 12
    rows = checks.neighborhood_rows(n, arcs)
    y = checks.unwinnable_certificate(rows, k)
    board = [0] * n
    board[next(i for i, x in enumerate(y) if x)] = 1
    assert checks.is_certificate(rows, y, board, k)
    rc, out = run_cli(["solve", "--k", str(k), "--labels", ",".join(map(str, board)),
                       write_graph(tmp_path, n, arcs)])
    assert checks.check_solve(n, arcs, k, board, False, rc, out) is None


def classify_case(tmp_path):
    rng = random.Random(6)
    arcs, _ = workloads.block_chain(rng, 3, 4, 0.3, 0.2)
    n = 12
    rows = checks.neighborhood_rows(n, arcs)
    dets = {p: checks.det_mod_p(rows, p) for p in checks.DET_PRIMES}
    rc, out = run_cli(["classify", "--k-max", "12", write_graph(tmp_path, n, arcs)])
    return n, arcs, dets, rc, out


def test_classify_check_rejects_merged_components(tmp_path):
    n, arcs, dets, rc, out = classify_case(tmp_path)
    assert checks.check_classify(n, arcs, 12, dets, False, rc, out) is None
    lines = out.splitlines()
    assert lines[1].count("{") == 3
    lines[1] = lines[1].replace("} {", ",", 1)
    merged = "\n".join(lines) + "\n"
    assert checks.check_classify(n, arcs, 12, dets, False, rc, merged) is not None


def test_classify_check_rejects_a_wrong_det_or_verdict(tmp_path):
    n, arcs, dets, rc, out = classify_case(tmp_path)
    lines = out.splitlines()
    det = int(lines[0].split("= ")[1])
    wrong_det = "\n".join([f"det(N) = {det + 1}"] + lines[1:])
    assert checks.check_classify(n, arcs, 12, dets, False, rc, wrong_det) is not None
    flipped = lines[:2] + [
        line.replace("not k-AW", "k-AW") if "not" in line else line.replace("k-AW", "not k-AW")
        for line in lines[2:3]
    ] + lines[3:]
    assert checks.check_classify(n, arcs, 12, dets, False, rc, "\n".join(flipped)) is not None


@pytest.mark.parametrize("listing", [False, True])
def test_min_fas_check_rejects_size_off_by_one(tmp_path, listing):
    n, m = 7, 2
    arcs = workloads.planted_tournament(random.Random(7), n, m)
    min_sets = checks.minimum_fas_sets(n, arcs)[1] if listing else None
    argv = ["min-fas"] + (["--all"] if listing else []) + [write_graph(tmp_path, n, arcs)]
    rc, out = run_cli(argv)
    assert checks.check_min_fas(n, arcs, m, min_sets, rc, out) is None
    assert checks.check_min_fas(n, arcs, m + 1, min_sets, rc, out) is not None
    assert checks.check_min_fas(n, arcs, m - 1, min_sets, rc, out) is not None
    bad = out.replace(f"size {m}", f"size {m + 1}", 1)
    assert checks.check_min_fas(n, arcs, m, min_sets, rc, bad) is not None
    if listing:
        dropped = "\n".join(out.splitlines()[:-1]) + "\n"
        assert checks.check_min_fas(n, arcs, m, min_sets, rc, dropped) is not None


def test_census_check_rejects_one_flipped_row():
    expected = workloads.census_expectation(4, 8)
    rc, out = run_cli(["census", "--n", "4", "--k-max", "8"])
    assert checks.check_census(4, 8, expected, rc, out) is None
    lines = out.splitlines()
    f = lines[1].split("\t")
    f[3] = "1" if f[3] == "0" else "0"
    bad = "\n".join([lines[0], "\t".join(f)] + lines[2:]) + "\n"
    assert checks.check_census(4, 8, expected, rc, bad) is not None
    assert checks.check_census(4, 8, expected, rc, out.replace("= strong 24", "= strong 23")) is not None
