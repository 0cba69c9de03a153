import random
import subprocess
import sys

import pytest

from klights import (
    ParseError,
    brute_force_is_k_aw,
    det_int,
    from_arcs,
    neighborhood_matrix,
    random_digraph,
)
from klights.cli import _build_parser, format_graph, main, parse_graph

C3_TEXT = "n 3\n0 1\n1 2\n2 0\n"


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.dg"
    path.write_text(C3_TEXT)
    return str(path)


class TestParseGraph:
    def test_c3(self):
        d = parse_graph(C3_TEXT)
        assert d.n == 3 and d.arcs == {(0, 1), (1, 2), (2, 0)}

    def test_comments_and_blank_lines(self):
        d = parse_graph("# a comment\n\nn 1\n")
        assert d.n == 1 and not d.arcs

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("n 2\n0 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("0 1\n")
        with pytest.raises(ParseError, match="header"):
            parse_graph("# only a comment\n")

    def test_malformed_arc_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("n 2\n0 1 2\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("n 2\n0 1\nx y\n")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_graph("n 2\n0 2\n")

    def test_duplicate_arc(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("n 2\n0 1\n0 1\n")

    def test_round_trip_random(self):
        rng = random.Random(55)
        for i in range(50):
            d = random_digraph(rng.randint(0, 7), rng.random(), seed=i)
            assert parse_graph(format_graph(d)) == d

    def test_round_trip_c3(self):
        assert format_graph(parse_graph(C3_TEXT)) == C3_TEXT


class TestSolveCommand:
    def test_winnable(self, c3_file, capsys):
        assert main(["solve", "--k", "3", "--labels", "1,1,1", c3_file]) == 0
        assert capsys.readouterr().out == "1,1,1\n"

    def test_unwinnable(self, c3_file, capsys):
        assert main(["solve", "--k", "2", "--labels", "1,0,0", c3_file]) == 1
        assert capsys.readouterr().out == "UNWINNABLE\n"

    def test_unwinnable_certificate_on_stderr(self, c3_file, capsys):
        assert main(["solve", "--k", "2", "--labels", "1,0,0", c3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "UNWINNABLE\n"
        key, _, value = captured.err.strip().rpartition(" ")
        assert key == "= certificate"
        y = [int(v) for v in value.split(",")]
        # Each closed out-neighbourhood of C3 is {v, v+1}; y . (1, 0, 0) is y[0].
        assert all((y[v] + y[(v + 1) % 3]) % 2 == 0 for v in range(3))
        assert y[0] % 2 == 1

    def test_label_count_mismatch(self, c3_file, capsys):
        assert main(["solve", "--k", "3", "--labels", "1,1", c3_file]) == 2
        assert "expected 3 labels" in capsys.readouterr().err

    def test_label_out_of_range(self, c3_file, capsys):
        assert main(["solve", "--k", "3", "--labels", "1,1,5", c3_file]) == 2
        assert "outside" in capsys.readouterr().err

    def test_bad_k(self, c3_file, capsys):
        assert main(["solve", "--k", "1", "--labels", "0,0,0", c3_file]) == 2


class TestClassifyCommand:
    def test_c3_golden(self, c3_file, capsys):
        assert main(["classify", "--k-min", "2", "--k-max", "6", c3_file]) == 0
        assert capsys.readouterr().out == (
            "det(N) = 2\n"
            "components: {0,1,2}\n"
            "2: not k-AW\n"
            "3: k-AW\n"
            "4: not k-AW\n"
            "5: k-AW\n"
            "6: not k-AW\n"
        )

    def test_bad_range(self, c3_file, capsys):
        assert main(["classify", "--k-min", "5", "--k-max", "3", c3_file]) == 2

    def test_det_and_verdicts_against_full_matrix_and_brute_force(self, tmp_path, capsys):
        sizes = enumerate((0, 1, 2, 3, 4, 4, 5))
        graphs = [random_digraph(n, p, seed) for seed, n in sizes for p in (0.2, 0.6)]
        graphs.append(from_arcs(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2)]))
        for i, d in enumerate(graphs):
            path = tmp_path / f"g{i}.dg"
            path.write_text(format_graph(d))
            assert main(["classify", "--k-max", "6", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == f"det(N) = {det_int(neighborhood_matrix(d))}"
            verdicts = [
                f"{k}: {'k-AW' if brute_force_is_k_aw(d, k) else 'not k-AW'}" for k in range(2, 7)
            ]
            assert lines[2:] == verdicts


class TestMinFasCommand:
    def test_c3_all_golden(self, c3_file, capsys):
        assert main(["min-fas", "--all", c3_file]) == 0
        assert capsys.readouterr().out == (
            "size 1\n"
            "ordering 1 2 0\n"
            "arcs 0->1\n"
            "sets 3\n"
            "set 1: 0->1 [directed path, m=1]\n"
            "set 2: 1->2 [directed path, m=1]\n"
            "set 3: 2->0 [directed path, m=1]\n"
        )

    def test_dag(self, tmp_path, capsys):
        path = tmp_path / "dag.dg"
        path.write_text("n 3\n0 1\n1 2\n")
        assert main(["min-fas", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "size 0"
        assert "arcs -" in out


class TestSccCommand:
    def test_bridged_cycles(self, tmp_path, capsys):
        path = tmp_path / "g.dg"
        path.write_text(format_graph(
            from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        ))
        assert main(["scc", str(path)]) == 0
        assert capsys.readouterr().out == (
            "components 2\n"
            "component 1: 0 1 2\n"
            "component 2: 3 4 5\n"
        )


class TestCensusCommand:
    def test_small_run(self, capsys):
        assert main(["census", "--n", "3", "--k-max", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# graph\tn\tk\taw\tfas\tshape\tpred\toracle\tagree"
        assert "= graphs 8" in lines
        assert "= disagreements 0" in lines

    def test_capacity_exit_code(self, capsys):
        assert main(["census", "--n", "7", "--k-max", "5"]) == 2
        assert "census supports" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["scc", "/nonexistent/g.dg"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.dg"
        path.write_text("n 2\n0 0\n")
        assert main(["scc", str(path)]) == 2
        assert "self-loop" in capsys.readouterr().err


def test_repeated_main_calls_match_lone_calls(c3_file, capsys):
    """One process, several commands on the one cached parser, each as if run alone."""
    commands = [
        ["solve", "--k", "2", "--labels", "1,0,0", c3_file],
        ["classify", "--k-max", "4", c3_file],
        ["solve", "--k", "three", "--labels", "1,1,1", c3_file],
        ["solve", "--k", "3", "--labels", "1,1,1", c3_file],
    ]
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        lone = subprocess.run(
            [sys.executable, "-m", "klights.cli", *argv], capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (lone.returncode, lone.stdout, lone.stderr)
    assert _build_parser() is _build_parser()


def test_module_entry_point(c3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "klights.cli", "classify", "--k-max", "3", c3_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "3: k-AW" in proc.stdout
