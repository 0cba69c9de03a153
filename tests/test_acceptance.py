"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts both the mathematical claim and its time budget.  Criteria 7
and 8 sweep tournaments up to n=5 by default; set KLIGHTS_CENSUS_N6=1
to extend them to all 32768 labeled tournaments on 6 vertices, which
adds about a minute: this file took 63 s instead of 5 s on a 2-core
Intel Xeon machine with Python 3.11.7.
"""

import os
import random
import time
from functools import lru_cache
from math import gcd

from klights import (
    Digraph,
    Labeling,
    acyclic_ordering,
    all_minimum_fas,
    apply_toggles,
    brute_force_is_k_aw,
    brute_force_solve,
    build_path_matrix,
    build_star_matrix,
    classify_arc_induced,
    det_int,
    enumerate_tournaments,
    feedback_arcs_of_ordering,
    fibonacci_mod,
    greedy_play,
    is_k_aw,
    is_k_aw_componentwise,
    is_strongly_connected,
    random_digraph,
    solve_labeling,
)
from klights.cli import main

from oracles import all_digraphs, fib


def _verdict(capsys, num, name, failures, elapsed, budget):
    ok = failures == 0 and elapsed < budget
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"criterion {num:2d} [{name}]: {status} "
            f"({failures} failures, {elapsed:.2f}s of {budget:.0f}s budget)"
        )
    assert failures == 0, f"criterion {num}: {failures} failures"
    assert elapsed < budget, f"criterion {num}: took {elapsed:.2f}s, budget {budget}s"


def _random_dag(rng, n_max):
    n = rng.randint(1, n_max)
    order = list(range(n))
    rng.shuffle(order)
    p = rng.random()
    arcs = {
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    }
    return Digraph(n, frozenset(arcs))


@lru_cache(maxsize=None)
def _strong_tournament_shapes(n):
    """(tournament, classified minimum-FAS witnesses) for strong tournaments."""
    out = []
    for t in enumerate_tournaments(n):
        if not is_strongly_connected(t):
            continue
        shapes = [classify_arc_induced(t, fas) for fas in all_minimum_fas(t)]
        out.append((t, shapes))
    return out


def _census_sizes():
    """Tournament sizes to sweep, with the matching time budget in seconds."""
    if os.environ.get("KLIGHTS_CENSUS_N6") == "1":
        return range(1, 7), 600.0
    return range(1, 6), 120.0


def test_criterion_01_fibonacci_determinant_identity(capsys):
    start = time.perf_counter()
    failures = sum(det_int(build_path_matrix(m)) != fib(m + 2) for m in range(1, 26))
    _verdict(capsys, 1, "fibonacci determinant", failures, time.perf_counter() - start, 1.0)


def test_criterion_02_star_matrix_determinant(capsys):
    def compositions(total):
        if total == 0:
            yield []
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield [first] + rest

    start = time.perf_counter()
    failures = 0
    for total in range(1, 8):  # matrix dimension is total + 1 <= 8
        for sizes in compositions(total):
            for s in range(4):
                if det_int(build_star_matrix(sizes, s)) != len(sizes) + s + 1:
                    failures += 1
    _verdict(capsys, 2, "star matrix determinant", failures, time.perf_counter() - start, 1.0)


def test_criterion_03_acyclic_digraphs_always_winnable(capsys):
    start = time.perf_counter()
    rng = random.Random(1003)
    failures = 0
    for _ in range(200):
        d = _random_dag(rng, 7)
        order = acyclic_ordering(d)
        if order is None:
            failures += 1
            continue
        for k in range(2, 13):
            if not is_k_aw(d, k):
                failures += 1
            for _ in range(20):
                lam = Labeling(tuple(rng.randrange(k) for _ in range(d.n)), k)
                if any(greedy_play(d, order, lam).final.values):
                    failures += 1
    _verdict(capsys, 3, "acyclic always winnable", failures, time.perf_counter() - start, 10.0)


def test_criterion_04_strong_component_reduction(capsys):
    start = time.perf_counter()
    rng = random.Random(1004)
    failures = 0
    for i in range(500):
        n = rng.randint(0, 8)
        d = random_digraph(n, rng.random(), seed=20000 + i)
        for k in range(2, 7):
            if is_k_aw(d, k) != is_k_aw_componentwise(d, k):
                failures += 1
    _verdict(capsys, 4, "component reduction", failures, time.perf_counter() - start, 30.0)


def test_criterion_05_oracle_equivalence(capsys):
    from itertools import product

    start = time.perf_counter()
    failures = 0
    for n in range(1, 5):
        for t in enumerate_tournaments(n):
            for k in range(2, 7):
                if is_k_aw(t, k) != brute_force_is_k_aw(t, k):
                    failures += 1
    for n in range(0, 4):
        for d in all_digraphs(n):
            for k in range(2, 5):
                for lab in product(range(k), repeat=n):
                    lam = Labeling(lab, k)
                    fast = solve_labeling(d, lam)
                    slow = brute_force_solve(d, lam)
                    if (fast is None) != (slow is None):
                        failures += 1
                    elif fast is not None:
                        zero = (0,) * n
                        if apply_toggles(d, lam, fast).values != zero:
                            failures += 1
                        if apply_toggles(d, lam, slow).values != zero:
                            failures += 1
    _verdict(capsys, 5, "oracle equivalence", failures, time.perf_counter() - start, 60.0)


def test_criterion_06_minimum_fas_gap(capsys):
    from klights import check_min_fas_gap

    start = time.perf_counter()
    failures = 0
    for n in range(1, 6):
        for t in enumerate_tournaments(n):
            for fas in all_minimum_fas(t):
                if not check_min_fas_gap(fas):
                    failures += 1
    _verdict(capsys, 6, "minimum FAS gap", failures, time.perf_counter() - start, 60.0)


def test_criterion_07_path_theorem_census(capsys):
    start = time.perf_counter()
    failures = 0
    sizes, budget = _census_sizes()
    for n in sizes:
        for t, shapes in _strong_tournament_shapes(n):
            ms = {s.path_arcs for s in shapes if s.kind == "path"}
            for m in ms:
                for k in range(2, 31):
                    predicted = gcd(k, fibonacci_mod(m + 2, k)) == 1
                    if is_k_aw(t, k) != predicted:
                        failures += 1
    _verdict(capsys, 7, "path theorem census", failures, time.perf_counter() - start, budget)


def test_criterion_08_star_theorem_census(capsys):
    start = time.perf_counter()
    failures = 0
    sizes, budget = _census_sizes()
    for n in sizes:
        for t, shapes in _strong_tournament_shapes(n):
            ms = {s.intervals for s in shapes if s.kind == "star"}
            for m in ms:
                for k in range(2, 31):
                    if is_k_aw(t, k) != (gcd(k, m) == 1):
                        failures += 1
    _verdict(capsys, 8, "star theorem census", failures, time.perf_counter() - start, budget)


def test_criterion_09_greedy_play_lemma(capsys):
    start = time.perf_counter()
    rng = random.Random(1009)
    failures = 0
    for i in range(300):
        n = rng.randint(1, 8)
        d = random_digraph(n, rng.random(), seed=30000 + i)
        k = rng.randint(2, 9)
        lam = Labeling(tuple(rng.randrange(k) for _ in range(n)), k)
        sigma = list(range(n))
        rng.shuffle(sigma)
        heads = {v for _, v in feedback_arcs_of_ordering(d, tuple(sigma)).arcs}
        final = greedy_play(d, tuple(sigma), lam).final.values
        failures += sum(
            1 for v in range(n) if v not in heads and final[v] != 0
        )
    _verdict(capsys, 9, "greedy play lemma", failures, time.perf_counter() - start, 10.0)


def test_criterion_10_cli_classify_c3(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "c3.dg"
    path.write_text("n 3\n0 1\n1 2\n2 0\n")
    code = main(["classify", "--k-min", "2", "--k-max", "30", str(path)])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    expected = ["det(N) = 2", "components: {0,1,2}"]
    expected += [f"{k}: {'k-AW' if k % 2 else 'not k-AW'}" for k in range(2, 31)]
    failures = int(code != 0) + int(out.splitlines() != expected)
    _verdict(capsys, 10, "cli classify C3", failures, elapsed, 1.0)
