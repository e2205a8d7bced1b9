import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rlgl import cli, matrix, mdp, models, pushloop, schedules, solvers
from rlgl.errors import ConfigError, InvalidParamsError
from rlgl.matrix import build_transition, google_matrix, gth_stationary


def read_estimate(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "node,value"
    nodes, vals = [], []
    for line in lines[1:]:
        a, b = line.split(",")
        nodes.append(int(a))
        vals.append(float(b))
    return np.array(nodes), np.array(vals)


class TestSolve:
    def test_example31_round_robin(self, tmp_path, four_state):
        code = cli.main(
            ["solve", "--graph", "example31", "--method", "rlgl+rr",
             "--eps", "1e-10", "--out", str(tmp_path)]
        )
        assert code == 0
        _, vals = read_estimate(tmp_path / "estimate.csv")
        assert np.abs(vals - gth_stationary(four_state)).sum() <= 1e-8
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,updates,cum_cost,scan_cost,cash_l1"

    def test_two_wheels_power_iteration(self, tmp_path):
        code = cli.main(
            ["solve", "--graph", "two-wheels", "--method", "pi", "--eps", "1e-10",
             "--out", str(tmp_path)]
        )
        assert code == 0
        und, n = models.two_wheels()
        from rlgl.matrix import build_transition

        P = build_transition(models.symmetrize(und), n)
        _, vals = read_estimate(tmp_path / "estimate.csv")
        assert np.abs(vals - gth_stationary(P)).sum() <= 1e-8

    def test_disconnected_raw_mode_rejected(self, tmp_path):
        graph = tmp_path / "two_parts.edges"
        graph.write_text("0 1\n1 0\n2 3\n3 2\n")
        code = cli.main(
            ["solve", "--graph", str(graph), "--method", "pi", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_CONFIG

    def test_lcc_flag_solves_component(self, tmp_path):
        graph = tmp_path / "two_parts.edges"
        graph.write_text("0 1\n1 0\n2 3\n3 4\n4 2\n")
        code = cli.main(
            ["solve", "--graph", str(graph), "--method", "pi", "--lcc", "--out", str(tmp_path)]
        )
        assert code == 0
        nodes, vals = read_estimate(tmp_path / "estimate.csv")
        assert nodes.tolist() == [2, 3, 4]
        assert vals.sum() == pytest.approx(1.0, abs=1e-9)

    def test_undirected_file_solves_as_its_mirrored_file(self, tmp_path):
        one_way, both_ways = tmp_path / "one-way.edges", tmp_path / "both-ways.edges"
        edges = [("0", "1", "2"), ("1", "2", "1"), ("2", "0", "0.5"), ("2", "3", "3")]
        one_way.write_text("".join(f"{a} {b} {w}\n" for a, b, w in edges))
        both_ways.write_text("".join(f"{a} {b} {w}\n{b} {a} {w}\n" for a, b, w in edges))
        outs = []
        for graph, flags in ((one_way, ["--undirected"]), (both_ways, [])):
            out = tmp_path / graph.stem
            assert cli.main(["solve", "--graph", str(graph), *flags, "--method", "pi", "--out", str(out)]) == 0
            outs.append([(out / name).read_bytes() for name in ("estimate.csv", "trace.csv")])
        assert outs[0] == outs[1]

    # 2 -> 0 has weight 0: the matrix drops it and makes node 2 absorbing
    ZERO_WEIGHT_EDGES = "0 1\n1 0\n1 2\n2 2\n2 0 0\n"

    def test_zero_weight_edge_raw_mode_rejected(self, tmp_path):
        graph = tmp_path / "zero.edges"
        graph.write_text(self.ZERO_WEIGHT_EDGES)
        code = cli.main(["solve", "--graph", str(graph), "--method", "pi", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_zero_weight_edge_lcc_solves_pair(self, tmp_path):
        graph = tmp_path / "zero.edges"
        graph.write_text(self.ZERO_WEIGHT_EDGES)
        code = cli.main(["solve", "--graph", str(graph), "--method", "pi", "--lcc", "--out", str(tmp_path)])
        assert code == 0
        nodes, vals = read_estimate(tmp_path / "estimate.csv")
        assert nodes.tolist() == [0, 1]
        assert vals == pytest.approx([0.5, 0.5], abs=1e-12)

    # node 3 has no out-edges: the matrix builder rejects it before any SCC check
    DANGLING_EDGES = "0 1\n1 2\n2 0\n2 3\n"

    def test_dangling_node_raw_mode_rejected(self, tmp_path, capsys):
        graph = tmp_path / "dangling.edges"
        graph.write_text(self.DANGLING_EDGES)
        code = cli.main(["solve", "--graph", str(graph), "--method", "pi", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: raw stationary mode needs a strongly connected graph (or --lcc)"]

    def test_dangling_node_lcc_solves_cycle(self, tmp_path):
        graph = tmp_path / "dangling.edges"
        graph.write_text(self.DANGLING_EDGES)
        code = cli.main(["solve", "--graph", str(graph), "--method", "pi", "--lcc", "--out", str(tmp_path)])
        assert code == 0
        nodes, vals = read_estimate(tmp_path / "estimate.csv")
        assert nodes.tolist() == [0, 1, 2]
        assert vals == pytest.approx([1 / 3] * 3, abs=1e-9)

    @pytest.mark.parametrize(
        "text",
        [
            "0 1.5\n1 0\n",
            "0 1\n1 0 abc\n",
            "0 1 inf\n1 0\n",
            "0 1 nan\n1 0\n",
            "0 4000000000\n4000000000 0\n",  # too many nodes for the edge sort
        ],
        ids=["float-id", "text-weight", "inf-weight", "nan-weight", "huge-id"],
    )
    def test_malformed_edge_file_exit_code(self, tmp_path, capsys, text):
        graph = tmp_path / "bad.edges"
        graph.write_text(text)
        code = cli.main(["solve", "--graph", str(graph), "--method", "pi", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_pagerank_mode(self, tmp_path):
        code = cli.main(
            ["solve", "--graph", "two-wheels", "--pagerank", "--damping", "0.85",
             "--method", "gso:greedy-max", "--eps", "1e-12", "--out", str(tmp_path)]
        )
        assert code == 0
        und, n = models.two_wheels()
        G = google_matrix(models.symmetrize(und), 0.85, n=n)
        _, vals = read_estimate(tmp_path / "estimate.csv")
        assert np.abs(vals - gth_stationary(G)).sum() <= 1e-10

    def test_no_convergence_exit_code(self, tmp_path):
        blocks = tmp_path / "cycle.txt"
        blocks.write_text("0\n1\n3\n2\n")
        m0 = tmp_path / "m0.txt"
        m0.write_text("0.1 0.2 0.3 0.4\n")
        code = cli.main(
            ["solve", "--graph", "example31", "--method", f"rlgl+blocks:{blocks}", "--m0", str(m0),
             "--eps", "1e-10", "--max-steps", "200", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_NO_CONVERGENCE

    def test_degenerate_history_exit_code(self, tmp_path):
        blocks = tmp_path / "only0.txt"
        blocks.write_text("0\n")
        m0 = tmp_path / "m0.txt"
        m0.write_text("1 0 0 0\n")
        code = cli.main(
            ["solve", "--graph", "example31", "--method", f"rlgl+blocks:{blocks}", "--m0", str(m0),
             "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_DEGENERATE

    def test_trace_stride_below_one_rejected(self, tmp_path):
        # the stride is a library setting: gs checks it, and no flag sets it
        with pytest.raises(InvalidParamsError, match="stride"):
            solvers.gauss_seidel(models.four_state_chain(), trace_stride=0)
        assert cli.main(["solve", "--graph", "two-wheels", "--trace-stride", "1",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_unknown_method(self, tmp_path):
        code = cli.main(["solve", "--graph", "example31", "--method", "nope", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    # each once ran another method, picked by prefix, and exited 0
    @pytest.mark.parametrize("method", ["gsofoo", "rlglx", "gmresx", "rlgl:rr", "gso+rr", "gmres10"])
    def test_method_names_are_exact(self, tmp_path, capsys, method):
        code = cli.main(["solve", "--graph", "two-wheels", "--pagerank", "--method", method, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: unknown method {method!r}"]
        with pytest.raises(ConfigError):
            cli.parse_method(cli.ExperimentConfig(graph="two-wheels", method=method, pagerank=True))
        assert not (tmp_path / "estimate.csv").exists()

    def test_method_checked_before_the_graph_is_built(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_problem", lambda cfg: pytest.fail("the graph was built first"))
        code = cli.main(["solve", "--graph", "two-wheels", "--method", "rlgl+greedy", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["error: unknown schedule 'greedy'"]

    # a schedule argument compares as (class, the parameters its descriptor set)
    @pytest.mark.parametrize(
        "method,expected",
        [("rlgl", ("rlgl", (schedules.RoundRobin, {}))),
         ("rlgl+theta:2", ("rlgl", (schedules.Theta, {"r": 2.0}))), ("pi", ("pi", None)),
         ("gs", ("gs", None)), ("gmres", ("gmres", 10)), ("gmres:7", ("gmres", 7)),
         ("gso", ("gso", (schedules.MaxCash, {}))), ("gso:pc:1", ("gso", (schedules.ProportionalCash, {"seed": 1})))],
    )
    def test_method_descriptors(self, method, expected):
        cfg = cli.ExperimentConfig(graph="two-wheels", method=method, pagerank=True, seed=5)
        name, arg = cli.parse_method(cfg)
        if isinstance(arg, schedules.Schedule):
            arg = (type(arg), {k: v for k, v in vars(arg).items() if k in ("r", "seed")})
        assert (name, arg) == expected

    def test_one_spelling_per_setting(self, tmp_path):
        # bare rlgl is rlgl+rr, byte for byte
        outs = []
        for method in ("rlgl", "rlgl+rr"):
            out = tmp_path / method
            assert cli.main(["solve", "--graph", "two-wheels", "--method", method, "--out", str(out)]) == 0
            outs.append([(out / name).read_bytes() for name in ("estimate.csv", "trace.csv")])
        assert outs[0] == outs[1]
        # the removed spellings fail loudly
        assert cli.main(["solve", "--graph", "two-wheels", "--criterion", "cash",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert cli.main(["solve", "--graph", "two-wheels", "--schedule", "rr",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert cli.main(["solve", "--graph", "two_wheels", "--out", str(tmp_path / "alias")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "alias").exists()

    # two 3-cycles joined one way (2 -> 3): {3, 4, 5} completes first, and
    # --lcc takes {0, 1, 2}, the largest component holding the smallest id
    ONE_WAY_EDGES = "0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n"

    def test_connectivity_check_same_on_both_paths(self, tmp_path, capsys, kernel, monkeypatch):
        graph = tmp_path / "one-way.edges"
        graph.write_text(self.ONE_WAY_EDGES)

        def solve(out, *flags):
            code = cli.main(["solve", "--graph", str(graph), *flags, "--method", "pi", "--out", str(tmp_path / out)])
            return code, capsys.readouterr().err.splitlines()

        if kernel == "c":
            assert pushloop.load() is not None
        compiled = solve("c"), solve("c-lcc", "--lcc")
        monkeypatch.setattr(pushloop, "load", lambda: None)
        assert (solve("py"), solve("py-lcc", "--lcc")) == compiled
        assert compiled == (
            (cli.EXIT_CONFIG, ["error: raw stationary mode needs a strongly connected graph (or --lcc)"]),
            (cli.EXIT_OK, []),
        )
        estimate = (tmp_path / "c-lcc" / "estimate.csv").read_bytes()
        assert (tmp_path / "py-lcc" / "estimate.csv").read_bytes() == estimate
        assert read_estimate(tmp_path / "c-lcc" / "estimate.csv")[0].tolist() == [0, 1, 2]


# graph files for the compiled/Python comparison
GRAPH_FILES = {
    # node 3 has no out-edges: its empty row restarts on s
    "dangling": "0 1\n1 2\n2 0\n2 3\n",
    # weighted, every node with a self-loop
    "loops": "0 0 1\n0 1 2\n0 3 1\n1 1 3\n1 2 1\n1 4 1\n2 2 1\n2 3 1\n2 5 4\n"
             "3 3 2\n3 4 1\n3 0 1\n4 4 1\n4 5 2\n4 1 3\n5 5 1\n5 0 1\n5 2 1\n",
}
PAGERANK_PUSH_METHODS = ["rlgl+maxc", "rlgl+theta:1", "gso:greedy-max", "gso:rr", "gso:theta", "gs"]
# solves whose products are the compiled rlgl_mul_left on the C path
PRODUCT_METHODS = ["pi", "gmres:10", "rlgl+all"]
SBM500 = "sbm:250,250:0.03:0.004:7"
MEANFIELD = "meanfield:50,20,10:0.1:0.01"


def _comparison_files(tmp_path):
    """The placeholders of the compiled/Python comparison: ``GRAPH_FILES``; ``sbm``, the 120-node
    file of ``rlgl gen sbm``; ``pr``, that file with nodes 120..122 dangling; and ``halves``, a
    block file of its two halves."""
    files = {name: tmp_path / name for name in (*GRAPH_FILES, "sbm", "pr", "halves")}
    for name, text in GRAPH_FILES.items():
        files[name].write_text(text)
    assert cli.main(["gen", "sbm", str(files["sbm"]), "--sizes", "60,60", "--p", "0.1", "--q", "0.01",
                     "--seed", "3"]) == cli.EXIT_OK
    files["pr"].write_text(files["sbm"].read_text() + "0 120\n5 121\n7 122\n")
    files["halves"].write_text(" ".join(map(str, range(60))) + "\n" + " ".join(map(str, range(60, 120))) + "\n")
    return files


@pytest.mark.parametrize(
    "args",
    [
        ["two-wheels", "rlgl+pc:1"],
        ["{loops}", "gs"],
        *(["two-wheels", "--pagerank", m] for m in PAGERANK_PUSH_METHODS + ["gso:maxc", "gso:theta:2", "gso:pc:1"]),
        *(["{dangling}", "--pagerank", m] for m in PAGERANK_PUSH_METHODS),
        *(["{loops}", m] for m in PRODUCT_METHODS),
        *(["{dangling}", "--pagerank", m] for m in PRODUCT_METHODS),
        *([MEANFIELD, m] for m in ("rlgl+maxc", "gs")),
        # each compiled loop: the pc pick (cached prefix sums, bracketed total), the maxc
        # tournament raw and on a PageRank run's damped copy, and theta:1's refresh in C
        *([SBM500, m] for m in ("rlgl+theta:1", "rlgl+maxc", "rlgl+pc:1")),
        [SBM500, "--pagerank", "gso:greedy-max"],
        *([MEANFIELD, "--eps", "1e-11", m] for m in ("rlgl+rr", "rlgl+theta:1", "rlgl+maxc", "rlgl+pc:1")),
        # converged runs on a generated file, with the schedules that always take Python steps
        *(["{sbm}", m] for m in ("rlgl+rr", "rlgl+theta:2", "rlgl+maxc", "rlgl+rand:1", "rlgl+blocks:{halves}", "gs")),
        ["{sbm}", "--pagerank", "gso:theta"],
        # PageRank pushes add the restart part to all of C in one compiled pass
        *(["{pr}", "--pagerank", m]
          for m in ("rlgl+rr", "rlgl+theta:1", "rlgl+maxc", "rlgl+pc:1", "rlgl+rand:1", "gso:maxc", "gs")),
        # a run of each solver family stopped at --max-steps writes its partial estimate and trace
        [SBM500, "--max-steps", "50", "rlgl+maxc"],
        *([SBM500, "--max-steps", "3", m] for m in ("pi", "gmres:10", "gs")),
        [SBM500, "--pagerank", "--max-steps", "3", "gso:theta"],
    ],
    ids=" ".join,
)
def test_compiled_and_python_runs_write_the_same_bytes(tmp_path, kernel, monkeypatch, args):
    files = _comparison_files(tmp_path)
    graph, *mode, method = (a.format(**files) for a in args)
    if kernel == "c":
        assert pushloop.load() is not None

    def solve(out):
        code = cli.main(["solve", "--graph", graph, *mode, "--method", method, "--out", str(out)])
        return code, [(out / name).read_bytes() for name in ("estimate.csv", "trace.csv")]

    compiled = solve(tmp_path / "c")
    assert compiled[0] == (cli.EXIT_NO_CONVERGENCE if "--max-steps" in mode else cli.EXIT_OK)
    monkeypatch.setattr(pushloop, "load", lambda: None)
    assert solve(tmp_path / "py") == compiled


def _bad_input_files(tmp_path):
    """Vector files for two-wheels that no --m0 or --restart-s may accept, block files that no
    ``blocks:`` schedule may accept on example31, and a file that is no --out directory."""
    n = models.two_wheels()[1]
    files = {name: tmp_path / f"{name}.txt" for name in ("missing", "text", "short", "nan")}
    files["text"].write_text("0.5 x\n")  # a non-numeric entry
    files["short"].write_text("0.5 0.5\n")  # a distribution of the wrong length
    files["nan"].write_text("nan\n" + f"{1 / (n - 1)!r}\n" * (n - 1))  # sums to 1 but for the NaN
    for name, data in (("letters", b"0 1\na b\n"), ("binary", b"\xff\xfe"), ("outside", b"0 1\n2 3 4\n")):
        files[name] = tmp_path / f"{name}.blocks"
        files[name].write_bytes(data)
    files["file"] = tmp_path / "file"
    files["file"].write_text("not a directory\n")
    return files


@pytest.mark.parametrize(
    "extra",
    [
        ["--method", "rlgl+theta:1:0"],
        ["--method", "rlgl+theta:1:-3"],
        ["--method", "rlgl+rand:1.5"],
        ["--method", "rlgl+theta:abc"],
        ["--method", "rlgl+theta:inf"],
        ["--method", "gmres:x"],
        ["--method", "rlgl+greedy"],
        ["--graph", "sbm:40,40:0.1"],
        ["--graph", "sbm:40,x:0.1:0.01"],
        ["--graph", "meanfield:5,2:0.1"],
        # each once ran, dropping the flag
        ["--graph", "meanfield:5,2:0.1:0.01", "--lcc"],
        ["--one-based"],
        ["--undirected"],
        ["--graph", "sbm:10,10:0.5:0.1:3", "--one-based"],
        ["--method", "rlgl+blocks:{missing}"],
        ["--method", "rlgl", "--m0", "{missing}"],
        ["--method", "rlgl+rand:-1"],
        ["--method", "rlgl+pc", "--seed", "-2"],
        ["--method", "rlgl", "--m0", "{text}"],
        ["--method", "rlgl", "--m0", "{short}"],
        ["--method", "rlgl", "--m0", "{nan}"],
        ["--pagerank", "--restart-s", "{text}"],
        ["--pagerank", "--restart-s", "{nan}"],
        ["--pagerank", "--restart-s", "{short}"],
        ["--pagerank", "--method", "gso:theta:0.5"],
        ["--pagerank", "--method", "gso:theta:1:0"],
        ["--method", "rlgl", "--eps", "inf"],
        ["--method", "rlgl", "--eps", "nan"],
        # once numpy's ValueError, exit 1
        ["--graph", "sbm:10,10:0.5:0.1:-1"],
        ["--graph", "sbm:10,10:0.5:0.1", "--seed", "-3"],
        # once ran, dropping the 9
        ["--graph", "sbm:10,10:0.5:0.1:3:9"],
        # once a ValueError, a UnicodeDecodeError, and a run that never reached the bad block
        ["--method", "rlgl+blocks:{letters}"],
        ["--method", "rlgl+blocks:{binary}"],
        ["--graph", "example31", "--method", "rlgl+blocks:{outside}"],
        ["--out", "{file}/sub"],
    ],
    ids=lambda extra: " ".join(extra),
)
def test_bad_descriptor_is_one_error_line(tmp_path, capsys, extra):
    files = _bad_input_files(tmp_path)
    args = ["solve", "--graph", "two-wheels", "--method", "pi", "--out", str(tmp_path)]
    args += [a.format(**files) for a in extra]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if "theta:1:" in extra[-1]:  # theta takes r alone: no period field
        assert err[0].endswith("too many fields")


@pytest.mark.parametrize("data, lineno", [(b"\xff\xfe0 1\n1 0\n", 1), (b"0 1\n1 0 \xe9\n", 2)], ids=["ids", "weight"])
def test_undecodable_edge_file_is_one_path_line_error(tmp_path, capsys, data, lineno):
    # once a UnicodeDecodeError traceback, exit 1
    graph = tmp_path / "f.edges"
    graph.write_bytes(data)
    assert cli.main(["solve", "--graph", str(graph), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    expected = f"error: {graph}:{lineno}: ids must be integers, the weight a number"
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", ["c", "numpy"])
@pytest.mark.parametrize("mode", [[], ["--pagerank"], ["--lcc"]], ids=["raw", "pagerank", "lcc"])
@pytest.mark.parametrize("method", ["pi", "rlgl+rr", "gmres:10"])
@pytest.mark.parametrize("data", ["0 1 1e308\n0 2 1e308\n1 0\n2 0\n1 2\n", "0 1 1e308\n0 1 1e308\n1 0\n"],
                         ids=["row", "merged"])
def test_overflowing_row_is_one_error_line(tmp_path, capsys, monkeypatch, data, method, mode, path):
    # once exit 0 with zeros, estimates near 1e-11, exit 3, or NaN rows that gmres restarted on for a minute
    graph = tmp_path / "f.edges"
    graph.write_text(data)
    if path == "numpy":
        monkeypatch.setattr(pushloop, "load", lambda: None)
    out = tmp_path / "out"
    assert cli.main(["solve", "--graph", str(graph), "--method", method, *mode, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["error: node 0: its edge weights sum past the largest float"]
    assert not out.exists()


AS_LIMIT = 3 << 29  # 1.5 GiB of address space: the CLI runs normally under it


def _run_cli_limited(args):
    """``rlgl <args>`` in a child process whose address space alone is capped at AS_LIMIT."""
    resource = pytest.importorskip("resource")

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT if hard < 0 else min(AS_LIMIT, hard), hard))

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    # one BLAS thread, so the child's address space does not grow with the core count
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "rlgl.cli", *args], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--graph", "{huge}", "--pagerank", "--method", "pi", "--out", "{out}"],
        ["solve", "--graph", "{huge}", "--lcc", "--method", "pi", "--out", "{out}"],
        ["solve", "--graph", "sbm:100000,100000:0.001:0.0001:1", "--method", "pi", "--out", "{out}"],
        ["gen", "sbm", "{out}", "--sizes", "100000,100000"],
    ],
    ids=["pagerank-huge-id", "lcc-huge-id", "sbm-graph", "gen-sbm"],
)
def test_input_too_big_for_memory_is_one_error_line(tmp_path, args):
    # once a numpy _ArrayMemoryError traceback, exit 1 (22.4 GiB for the id, 37.3 GiB for the sbm)
    huge = tmp_path / "huge.edges"
    huge.write_text("0 2999999999\n2999999999 1\n1 0\n")
    run = _run_cli_limited([a.format(huge=huge, out=tmp_path / "out") for a in args])
    assert run.returncode == cli.EXIT_CONFIG, run.stderr
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: "), run.stderr


def test_cli_runs_under_the_memory_cap(tmp_path):
    run = _run_cli_limited(["solve", "--graph", "two-wheels", "--method", "pi", "--out", str(tmp_path)])
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "estimate.csv").exists()


def test_bare_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def no_room(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_solve", no_room)
    assert cli.main(["solve", "--graph", "two-wheels", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "sbm", "{out}", "--sizes", "40,x"],
        ["gen", "meanfield", "{out}", "--sizes", "40,x"],
        ["mdp", "--sizes", "50,x", "--out", "{out}"],
        ["mdp", "--grid", "10", "--out", "{out}"],
        ["gen", "sbm", "{out}", "--seed", "-1"],
    ],
    ids=lambda args: " ".join(a for a in args if a != "{out}"),
)
def test_bad_integer_flag_is_one_error_line(tmp_path, capsys, args):
    assert cli.main([a.format(out=tmp_path / "out") for a in args]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _block_study_main():
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "block_schedule_study.py")
    return runpy.run_path(script)["main"]


@pytest.mark.parametrize("flags", [["--grid", "10"], ["--sizes", "50,x"]], ids=" ".join)
def test_block_study_script_bad_integer_flag_is_one_error_line(tmp_path, capsys, flags):
    assert _block_study_main()([*flags, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--graph", "two-wheels", "--out", "{file}"],
        ["solve", "--graph", "two-wheels", "--out", "{file}/sub"],
        ["bench", "--graph", "two-wheels", "--method", "pi,gs", "--out", "{file}"],
        ["bench", "--graph", "two-wheels", "--method", "pi,gs", "--out", "{file}/sub"],
        ["mdp", "--grid", "20x5", "--out", "{file}"],
        ["mdp", "--grid", "20x5", "--out", "{file}/sub"],
        ["block-study", "--grid", "20x5", "--out", "{file}"],
        ["block-study", "--grid", "20x5", "--out", "{file}/sub"],
        ["gen", "two-wheels", "{file}/x.edges"],
        ["gen", "meanfield", "{file}/x.edges"],
    ],
    ids=" ".join,
)
def test_out_path_through_a_file_is_one_error_line(tmp_path, capsys, monkeypatch, args):
    # each once died with a FileExistsError or NotADirectoryError traceback, exit 1
    file = tmp_path / "file"
    file.write_text("kept\n")
    if args[-1] == "{file}":  # an --out that is a file fails before any work
        monkeypatch.setattr(cli, "build_problem", lambda cfg: pytest.fail("the graph was built"))
        monkeypatch.setattr(mdp, "solve_policy", lambda *a, **k: pytest.fail("the policy was solved"))
    command, *rest = (a.format(file=file) for a in args)
    code = _block_study_main()(rest) if command == "block-study" else cli.main([command, *rest])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert file.read_text() == "kept\n"


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("script", [False, True], ids=["mdp", "block-study"])
def test_bad_mdp_eps_is_one_error_line(tmp_path, capsys, script, eps):
    # eps 0 once died with ZeroDivisionError, -1 and nan after writing a policy of nans
    out = tmp_path / "out"
    args = [f"--eps={eps}", "--grid", "20x5", "--out", str(out)]
    assert (_block_study_main()(args) if script else cli.main(["mdp", *args])) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_mdp_max_steps_below_one_fails_before_the_solve(tmp_path, capsys, monkeypatch, steps):
    # once solved the whole grid, wrote a one-row trajectory and exited 2
    monkeypatch.setattr(mdp, "meanfield_init", lambda *a, **k: pytest.fail("the start was computed"))
    out = tmp_path / "out"
    assert cli.main(["mdp", "--grid", "20x5", "--max-steps", steps, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: max-steps must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("script", [False, True], ids=["mdp", "block-study"])
@pytest.mark.parametrize("grid, steps", [("20x5", 3), ("2x2", 2000)], ids=["max-steps-3", "grid-2x2"])
def test_mdp_no_convergence_is_one_line_after_the_files(tmp_path, capsys, monkeypatch, script, grid, steps):
    # both once exited 2 with an empty stderr (rlgl mdp) or died with a
    # NoConvergenceError traceback, exit 1 (the script); the 2x2 grid's policy
    # stalls at the default max-steps too, after 1e5 steps
    args = ["--grid", grid, "--out", str(tmp_path / "out")]
    if script:  # the script takes the default max-steps (its races 5e4), capped here
        simulate = mdp.simulate_policy

        def capped(*a, max_steps=100_000, **k):
            return simulate(*a, max_steps=min(max_steps, steps), **k)

        monkeypatch.setattr(mdp, "simulate_policy", capped)
        assert _block_study_main()(args) == cli.EXIT_NO_CONVERGENCE
    else:
        assert cli.main(["mdp", *args, "--max-steps", str(steps)]) == cli.EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == f"no convergence: block simulation: no convergence in {steps} steps\n"
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "step,action,cash_l1,cum_cost" and len(traj) == steps + 2
    assert (tmp_path / "out" / "policy.csv").exists()
    if script:
        race = (tmp_path / "out" / "race.csv").read_text().splitlines()
        assert race[1] == f"optimal,{steps},{traj[-1].split(',')[3]},false"
        # rlgl mdp at the same settings writes the script's bytes
        mdp_args = ["mdp", "--grid", grid, "--max-steps", str(steps), "--out", str(tmp_path / "mdp")]
        assert cli.main(mdp_args) == cli.EXIT_NO_CONVERGENCE
        for name in ("policy.csv", "trajectory.csv"):
            assert (tmp_path / "mdp" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


@pytest.mark.parametrize("method", ["rlgl+rr", "rlgl+theta:1", "rlgl+maxc", "rlgl+pc:1", "gs"])
def test_solve_at_max_steps_writes_the_partial_estimate(tmp_path, capsys, method):
    # an rlgl run once wrote only trace.csv here, while gs wrote both files
    out = tmp_path / "out"
    args = ["solve", "--graph", "two-wheels", "--method", method, "--max-steps", "5", "--out", str(out)]
    assert cli.main(args) == cli.EXIT_NO_CONVERGENCE
    assert len(capsys.readouterr().err.splitlines()) == 1
    nodes, vals = read_estimate(out / "estimate.csv")
    assert nodes.tolist() == list(range(nodes.size)) and abs(vals.sum() - 1.0) <= 1e-12
    assert (out / "trace.csv").read_text().splitlines()[-1].split(",")[0] == "5"


SEED_ERROR = "--seed applies only to a seedless sbm: graph and to a rand or pc schedule without its own seed"
# the five-node graph 0 <-> 1 -> 2 <-> 3 <-> 4, whose largest component is {2, 3, 4}
MODE_FLAG_ERRORS = {
    "solve-pagerank-lcc": (["solve", "--pagerank", "--lcc"],
                           "rlgl solve: argument --lcc: not allowed with argument --pagerank"),
    "bench-pagerank-lcc": (["bench", "--method", "pi", "--pagerank", "--lcc"],
                           "rlgl bench: argument --lcc: not allowed with argument --pagerank"),
    "solve-damping": (["solve", "--damping", "0.9"], "--damping applies to --pagerank mode only"),
    "bench-damping": (["bench", "--method", "pi", "--damping", "0.9"], "--damping applies to --pagerank mode only"),
    "solve-restart-s": (["solve", "--restart-s", "{s}"], "--restart-s applies to --pagerank mode only"),
    "bench-restart-s": (["bench", "--method", "pi", "--restart-s", "{s}"], "--restart-s applies to --pagerank mode only"),
    "dobrushin-lcc": (["analyze", "dobrushin", "--lcc", "--damping", "0.85"],
                      "rlgl analyze dobrushin: argument --damping: not allowed with argument --lcc"),
    "cyclic-damping": (["analyze", "cyclic", "--blocks", "{blocks}", "--damping", "0.85"],
                       "rlgl: unrecognized arguments: --damping 0.85"),
    "solve-m0": (["solve", "--method", "gmres", "--m0", "{s}"], "--m0 applies to rlgl methods only"),
    "solve-seed": (["solve", "--method", "pi", "--seed", "3"], SEED_ERROR),
    "solve-seeded-pc": (["solve", "--method", "rlgl+pc:1", "--seed", "3"], SEED_ERROR),
    "bench-seed": (["bench", "--method", "pi,rlgl+rand:2,gso:pc:1", "--pagerank", "--seed", "3"], SEED_ERROR),
    "dobrushin-seed": (["analyze", "dobrushin", "--seed", "3"], SEED_ERROR),
    "cyclic-seed": (["analyze", "cyclic", "--blocks", "{blocks}", "--seed", "3"], SEED_ERROR),
    "bench-m0": (["bench", "--method", "pi,gs,gso", "--pagerank", "--m0", "{s}"],
                 "--m0 applies to rlgl methods only"),
}


@pytest.mark.parametrize("case", list(MODE_FLAG_ERRORS))
def test_dropped_mode_flag_is_one_error_line(tmp_path, capsys, monkeypatch, case):
    # each once ran in the other mode and exited 0: --lcc was ignored under
    # PageRank, --damping or --restart-s under raw stationary mode, and
    # --m0 by every method but rlgl
    graph = tmp_path / "five.edges"
    graph.write_text("0 1\n1 0\n1 2\n2 3\n3 2\n3 4\n4 3\n")
    (tmp_path / "s.txt").write_text("0.2 0.2 0.2 0.2 0.2\n")
    (tmp_path / "blocks.txt").write_text("0 1\n2 3 4\n")
    flags, message = MODE_FLAG_ERRORS[case]
    args = [a.format(s=tmp_path / "s.txt", blocks=tmp_path / "blocks.txt") for a in flags] + ["--graph", str(graph)]
    if args[0] != "analyze":
        args += ["--out", str(tmp_path / "out")]
    monkeypatch.setattr(cli, "build_problem", lambda cfg: pytest.fail("the graph was built first"))
    assert cli.main(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


# the flags each gen and analyze kind reads, after the arguments of a valid run; a kind
# rejects every other flag of its command
GRAPH_FLAGS = ["--graph", "--one-based", "--undirected", "--seed", "--lcc"]
KIND_FLAGS = {
    "analyze dobrushin": (["--graph", "two-wheels"], GRAPH_FLAGS + ["--damping"]),
    "analyze cyclic": (["--graph", "example31", "--blocks", "{blocks}"], GRAPH_FLAGS + ["--blocks"]),
    "analyze sbm2": ([], ["--p", "--q", "--K"]),
    "analyze random-rate": ([], ["--n", "--r", "--eta"]),
    "gen two-wheels": (["{out}"], []),
    "gen sbm": (["{out}"], ["--sizes", "--p", "--q", "--seed"]),
    "gen meanfield": (["{out}"], ["--sizes", "--p", "--q"]),
}
FLAG_VALUES = {"--graph": ["two-wheels"], "--one-based": [], "--undirected": [], "--seed": ["1"], "--lcc": [],
               "--damping": ["0.5"], "--blocks": ["{blocks}"], "--p": ["0.3"], "--q": ["0.01"], "--K": ["2"],
               "--n": ["10"], "--r": ["1"], "--eta": ["0.3"], "--sizes": ["5,5"]}
COMMAND_FLAGS = {c: {f for k, (_, fs) in KIND_FLAGS.items() if k.split()[0] == c for f in fs} for c in ("gen", "analyze")}
FOREIGN_FLAGS = [(kind, flag) for kind, (_, own) in KIND_FLAGS.items()
                 for flag in sorted(COMMAND_FLAGS[kind.split()[0]] - set(own))]


@pytest.mark.parametrize("kind, flag", FOREIGN_FLAGS, ids=[" ".join(case) for case in FOREIGN_FLAGS])
def test_foreign_flag_of_a_kind_is_one_error_line(tmp_path, capsys, monkeypatch, kind, flag):
    # each once ran and exited 0, dropping the flag
    (tmp_path / "blocks.txt").write_text("1\n0\n2\n3\n")
    args, _ = KIND_FLAGS[kind]
    args = [*kind.split(), *(a.format(blocks=tmp_path / "blocks.txt", out=tmp_path / "out") for a in args)]
    extra = [flag, *(a.format(blocks=tmp_path / "blocks.txt") for a in FLAG_VALUES[flag])]
    for name in ("build_problem", "_int_fields"):
        monkeypatch.setattr(cli, name, lambda *a: pytest.fail("work began"))
    monkeypatch.setattr(models, "two_wheels", lambda *a: pytest.fail("work began"))
    assert cli.main(args + extra) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: rlgl: unrecognized arguments: {' '.join(extra)}"]
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()  # and the same run without the flag succeeds
    assert cli.main(args) == cli.EXIT_OK
    assert (tmp_path / "out").exists() == (kind.split()[0] == "gen")


@pytest.mark.parametrize(
    "flags, seeded",
    [
        (["--graph", "sbm:20,20:0.5:0.1", "--method", "gmres:10"], ["--graph", "sbm:20,20:0.5:0.1:3"]),
        (["--graph", "two-wheels", "--method", "rlgl+rand"], ["--method", "rlgl+rand:3"]),
        (["--graph", "two-wheels", "--method", "rlgl+pc"], ["--method", "rlgl+pc:3"]),
        (["--graph", "two-wheels", "--pagerank", "--method", "gso:pc"], ["--method", "gso:pc:3"]),
    ],
    ids=["sbm", "rand", "pc", "gso-pc"],
)
def test_seed_is_read_where_it_applies(tmp_path, flags, seeded):
    # --seed 3 writes the bytes of the run that names seed 3 itself
    outs = []
    for name, args in (("flag", [*flags, "--seed", "3"]), ("named", [*flags, *seeded])):
        assert cli.main(["solve", *args, "--out", str(tmp_path / name)]) == cli.EXIT_OK
        outs.append([(tmp_path / name / f).read_bytes() for f in ("estimate.csv", "trace.csv")])
    assert outs[0] == outs[1]


def test_bench_reads_seed_when_one_method_does(tmp_path):
    bench = ["bench", "--graph", "two-wheels", "--method", "pi,rlgl+pc", "--seed", "3", "--out", str(tmp_path)]
    assert cli.main(bench) == cli.EXIT_OK


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--graph", "two-wheels", "--meth", "pi", "--out", "{out}"],
        ["bench", "--graph", "two-wheels", "--method", "pi", "--pager", "--out", "{out}"],
        ["solve", "--gr", "two-wheels", "--method", "pi", "--out", "{out}"],
        ["analyze", "random-rate", "--e", "0.5"],
        ["gen", "sbm", "{out}", "--see", "3"],
        ["mdp", "--gri", "10x5", "--out", "{out}"],
    ],
    ids=lambda args: " ".join(a for a in args if a != "{out}"),
)
def test_flag_prefix_is_one_error_line(tmp_path, capsys, args):
    # each once ran as the flag it begins
    assert cli.main([a.format(out=tmp_path / "out") for a in args]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: rlgl")  # the parser's message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, rows", [(["--lcc"], 3), (["--pagerank"], 5), (["--pagerank", "--damping", "0.9"], 5)])
def test_mode_flags_of_their_own_mode_still_run(tmp_path, flags, rows):
    graph = tmp_path / "five.edges"
    graph.write_text("0 1\n1 0\n1 2\n2 3\n3 2\n3 4\n4 3\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--graph", str(graph), *flags, "--method", "gmres:10", "--out", str(out)]) == 0
    assert read_estimate(out / "estimate.csv")[0].size == rows


RAW_GRAPHS = ["two-wheels", "sbm:250,250:0.03:0.004:7", "ring.edges"]


def _raw_config(tmp_path, graph):
    if graph.endswith(".edges"):
        n = 300  # a ring plus weighted chords, written as an edge file
        ring = [(i, (i + 1) % n, 1.0) for i in range(n)]
        chords = [(i, (7 * i + 3) % n, 1.0 + i % 4) for i in range(n)]
        graph = str(tmp_path / graph)
        models.write_edge_file(graph, np.array(ring + chords))
    return cli.ExperimentConfig(graph=graph)


@pytest.mark.parametrize("graph", RAW_GRAPHS)
def test_raw_build_problem_is_build_transition(tmp_path, graph):
    cfg = _raw_config(tmp_path, graph)
    P, node_map = cli.build_problem(cfg)
    edges, n = cli.load_graph(cfg.graph)
    Q = build_transition(edges, n)
    assert node_map is None and P.n == Q.n
    for name in ("indptr", "indices", "data", "out_degree"):
        a, b = getattr(P, name), getattr(Q, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("graph", RAW_GRAPHS)
def test_raw_build_problem_coalesces_once(tmp_path, monkeypatch, graph):
    cfg = _raw_config(tmp_path, graph)
    calls = []
    original = matrix._coalesce_edges

    def counted(edges, n):
        calls.append(n)
        return original(edges, n)

    # patch every rlgl module that holds the function, not just its home
    for name, module in list(sys.modules.items()):
        if name.startswith("rlgl") and getattr(module, "_coalesce_edges", None) is original:
            monkeypatch.setattr(module, "_coalesce_edges", counted)
    cli.build_problem(cfg)
    assert len(calls) == 1


def test_estimate_and_bench_lines_are_the_format_of_their_values(tmp_path):
    # the f-strings these files were written with before they shared one writer
    graph = tmp_path / "offset.edges"
    graph.write_text("5 6\n6 7\n7 5\n7 8\n")  # --lcc keeps nodes 5, 6 and 7
    cfg = cli.ExperimentConfig(graph=str(graph), lcc=True, method="rlgl+theta:1")
    P, node_map = cli.build_problem(cfg)
    x = cli.run_method(P, cfg)[0]
    out = tmp_path / "solve"
    assert cli.main(["solve", "--graph", str(graph), "--lcc", "--method", cfg.method, "--out", str(out)]) == 0
    lines = [f"{int(node_map[i])},{v:.17g}\n" for i, v in enumerate(x)]
    assert (out / "estimate.csv").read_bytes().decode() == "node,value\n" + "".join(lines)

    methods = ["pi", "gs", "rlgl+theta:1", "gmres:10"]
    out = tmp_path / "bench"
    assert cli.main(["bench", "--graph", "two-wheels", "--method", ",".join(methods), "--out", str(out)]) == 0
    P, _ = cli.build_problem(cli.ExperimentConfig(graph="two-wheels"))
    lines = ["method,step,cum_cost,residual,residual_kind\n"]
    for method in methods:
        _, trace, kind, _ = cli.run_method(P, cli.ExperimentConfig(graph="two-wheels", method=method))
        for step, _, cost, _, resid in trace.rows:
            lines.append(f"{method},{step},{cost:.17g},{resid:.17g},{kind}\n")
    assert (out / "bench.csv").read_bytes().decode() == "".join(lines)


class TestBench:
    def test_deterministic_bytes_and_monotone(self, tmp_path):
        args = ["bench", "--graph", "sbm:20,20:0.2:0.02:3", "--method",
                "pi,rlgl+theta:1,rlgl+rr", "--eps", "1e-9", "--out"]
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli.main(args + [str(out1)]) == 0
        assert cli.main(args + [str(out2)]) == 0
        data1 = (out1 / "bench.csv").read_bytes()
        assert data1 == (out2 / "bench.csv").read_bytes()
        lines = data1.decode().splitlines()
        assert lines[0] == "method,step,cum_cost,residual,residual_kind"
        rows = [line.split(",") for line in lines[1:]]
        for method in ("pi", "rlgl+theta:1", "rlgl+rr"):
            sub = [r for r in rows if r[0] == method]
            costs = [float(r[2]) for r in sub]
            resid = [float(r[3]) for r in sub]
            assert costs == sorted(costs)
            if method.startswith("rlgl"):
                assert all(b <= a + 1e-14 for a, b in zip(resid, resid[1:]))

    def test_pi_gs_writes_bench_csv(self, tmp_path):
        code = cli.main(["bench", "--graph", "two-wheels", "--method", "pi,gs",
                         "--eps", "1e-9", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "bench.csv").exists()

    def test_failed_rows_carry_method_kind(self, tmp_path):
        code = cli.main(["bench", "--graph", "sbm:40,40:0.1:0.005:2", "--method",
                         "pi,gs,gmres:2,rlgl+rr", "--max-steps", "20", "--out", str(tmp_path)])
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "bench.csv").read_text().splitlines()[1:]]
        kinds = {"pi": "delta_l1", "gs": "cash_l1", "gmres:2": "gmres_rel", "rlgl+rr": "cash_l1"}
        for method, kind in kinds.items():
            sub = [r for r in rows if r[0] == method]
            assert sub and all(r[4] == kind for r in sub), method

    @pytest.mark.parametrize(
        "method,mode,residual",
        [("rlgl+rr", [], "cash_l1"), ("pi", [], "delta_l1"), ("gs", [], "cash_l1"),
         ("gmres:10", [], "gmres_rel"), ("gso:theta", ["--pagerank"], "cash_l1")],
        ids=["rlgl+rr", "pi", "gs", "gmres:10", "gso:theta-pagerank"],
    )
    def test_one_trace_schema_in_trace_and_bench(self, tmp_path, method, mode, residual):
        args = ["--graph", "sbm:20,20:0.2:0.02:3", *mode, "--method", method, "--eps", "1e-9", "--out"]
        assert cli.main(["solve", *args, str(tmp_path / "solve")]) == 0
        assert cli.main(["bench", *args, str(tmp_path / "bench")]) == 0
        trace = (tmp_path / "solve" / "trace.csv").read_text().splitlines()
        assert trace[0] == f"step,updates,cum_cost,scan_cost,{residual}"
        want = [[method, r[0], r[2], r[4], residual] for r in (line.split(",") for line in trace[1:])]
        bench = [line.split(",") for line in (tmp_path / "bench" / "bench.csv").read_text().splitlines()[1:]]
        assert want and bench == want

    @pytest.mark.parametrize("m0", ["text", "short", "nan"])
    def test_bad_m0_is_one_error_line(self, tmp_path, capsys, m0):
        path = _bad_input_files(tmp_path)[m0]
        code = cli.main(["bench", "--graph", "two-wheels", "--method", "rlgl+rr,pi",
                         "--m0", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out" / "bench.csv").exists()

    def test_m0_seeds_the_rlgl_methods_of_a_mix(self, tmp_path):
        m0 = tmp_path / "m0.txt"
        m0.write_text("1\n" + "0\n" * (models.two_wheels()[1] - 1))
        runs = []
        for flags in ([], ["--m0", str(m0)]):
            out = tmp_path / str(len(flags))
            args = ["bench", "--graph", "two-wheels", "--method", "pi,rlgl+rr", *flags, "--out", str(out)]
            assert cli.main(args) == 0
            rows = (out / "bench.csv").read_text().splitlines()[1:]
            runs.append({m: [r for r in rows if r.startswith(m + ",")] for m in ("pi", "rlgl+rr")})
        assert runs[0]["pi"] == runs[1]["pi"] and runs[0]["rlgl+rr"] != runs[1]["rlgl+rr"]

    # each but the first once ran pi, wrote bench.csv and exited 0
    BAD_METHODS = {
        "pi,gsofoo": "unknown method 'gsofoo'",
        "pi,rlgl+bogus": "unknown schedule 'bogus'",
        "pi,rlgl+greedy": "unknown schedule 'greedy'",
        "pi,gmres:x": "method 'gmres:x': expected gmres:<integer M >= 1>",
        "pi,gmres:0": "method 'gmres:0': expected gmres:<integer M >= 1>",
        "pi,rlgl+theta:0": "theta exponent r must be finite and >= 1",
        "pi,rlgl+pc:-1": "pc seed must be >= 0, got -1",
        "pi,rlgl+rr:5": "schedule 'rr:5': too many fields",
        "pi,gso:maxc": "gso applies to the pagerank mode only",
    }

    @pytest.mark.parametrize("methods", list(BAD_METHODS))
    def test_unknown_method_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, methods):
        monkeypatch.setattr(cli, "build_problem", lambda cfg: pytest.fail("the graph was built first"))
        code = cli.main(["bench", "--graph", "two-wheels", "--method", methods, "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: {self.BAD_METHODS[methods]}"]
        assert not (tmp_path / "bench.csv").exists()

    def test_block_id_outside_the_graph_is_one_error_line(self, tmp_path, capsys):
        # once printed as rlgl+blocks' failure, after pi's rows were written, exit 0
        blocks = tmp_path / "outside.blocks"
        blocks.write_text("2 3 40\n")
        code = cli.main(["bench", "--graph", "two-wheels", "--method", f"pi,rlgl+blocks:{blocks}",
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["error: block sequence has a node outside [0, 12)"]
        assert not (tmp_path / "out" / "bench.csv").exists()

    def test_empty_method_list_rejected(self, tmp_path):
        code = cli.main(["bench", "--graph", "two-wheels", "--method", ",",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG


class TestGen:
    def test_two_wheels_file(self, tmp_path):
        out = tmp_path / "tw.edges"
        assert cli.main(["gen", "two-wheels", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 21

    def test_sbm_roundtrip(self, tmp_path):
        out = tmp_path / "sbm.edges"
        assert cli.main(["gen", "sbm", str(out), "--sizes", "20,20", "--p", "0.3",
                         "--q", "0.05", "--seed", "1"]) == 0
        edges, n = models.parse_edge_file(out)
        assert n == 40

    def test_sbm_defaults_draw_a_graph(self, tmp_path, capsys):
        # the defaults once left a node isolated twice and exited 64
        out = tmp_path / "sbm.edges"
        assert cli.main(["gen", "sbm", str(out)]) == 0
        assert capsys.readouterr().err == ""
        edges, n = models.parse_edge_file(out)
        assert n == 80 and np.bincount(edges[:, 0].astype(int), minlength=n).min() > 0

    @pytest.mark.parametrize(
        "p, seed, code, err",
        [
            ("0.1", "0", 0, ["warning: seed 0: isolated node, resampling once"]),
            ("0.05", "1", cli.EXIT_CONFIG,
             ["warning: seed 1: isolated node, resampling once", "error: seed 1: isolated node after resampling"]),
        ],
        ids=["resampled", "rejected"],
    )
    def test_sbm_resample_warning_is_one_line(self, tmp_path, capsys, p, seed, code, err):
        # the warning once took two lines, its source path and its code line
        args = ["gen", "sbm", str(tmp_path / "sbm.edges"), "--sizes", "30,30", "--p", p, "--q", "0.01", "--seed", seed]
        for _ in range(2):  # and the same line on a second command in one process
            assert cli.main(args) == code
            assert capsys.readouterr().err.splitlines() == err

    @pytest.mark.parametrize("spec", ["5,4,3", "50,20,10"])
    def test_meanfield_file_lists_expanded_rows(self, tmp_path, spec):
        out = tmp_path / "mf.edges"
        assert cli.main(["gen", "meanfield", str(out), "--sizes", spec, "--p", "0.3",
                         "--q", "0.05"]) == 0
        P = models.meanfield_sbm([int(s) for s in spec.split(",")], 0.3, 0.05).expand()
        rows = []
        for i in range(P.n):
            cols, vals = P.row(i)
            rows.extend((i, int(j), float(v)) for j, v in zip(cols, vals))
        ref = tmp_path / "ref.edges"
        models.write_edge_file(ref, np.array(rows), comment="mean-field block model")
        assert out.read_bytes() == ref.read_bytes()


class TestAnalyze:
    def test_dobrushin_report(self, tmp_path, capsys):
        code = cli.main(["analyze", "dobrushin", "--graph", "two-wheels",
                         "--damping", "0.85"])
        assert code == 0
        report = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(report["dobrushin"]) <= 0.85 + 1e-12
        assert report["within_bound"] == "true"

    def test_sbm2_report(self, capsys):
        assert cli.main(["analyze", "sbm2", "--p", "0.1", "--q", "0.01", "--K", "2"]) == 0
        report = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(report["lambda2"]) == pytest.approx(0.0198 / 0.0252)

    def test_random_rate_report(self, capsys):
        assert cli.main(["analyze", "random-rate", "--n", "10", "--r", "1", "--eta", "0.3"]) == 0
        report = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(report["rate_exponent"]) > 0

    def test_cyclic_report(self, tmp_path, capsys):
        blocks = tmp_path / "cycle.txt"
        blocks.write_text("1\n0\n2\n3\n")
        assert cli.main(["analyze", "cyclic", "--graph", "example31",
                         "--blocks", str(blocks)]) == 0
        report = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert report["r"] == "1"
        assert float(report["eta"]) == 0.5

    def test_cyclic_without_blocks_rejected(self, capsys):
        # once a TypeError traceback from opening the None path
        assert cli.main(["analyze", "cyclic", "--graph", "two-wheels"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: rlgl analyze cyclic: the following arguments are required: --blocks\n"


class TestMdpCommand:
    def test_writes_policy_and_trajectory(self, tmp_path):
        code = cli.main(["mdp", "--sizes", "50,20,10", "--p", "0.1", "--q", "0.01",
                         "--eps", "1e-6", "--grid", "300x41", "--out", str(tmp_path)])
        assert code == 0
        policy = (tmp_path / "policy.csv").read_text().splitlines()
        assert policy[0] == "z1,z2,action,V"
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "step,action,cash_l1,cum_cost"
        assert float(traj[-1].split(",")[2]) <= 1e-6

    def test_compiled_and_numpy_policy_rows_write_the_same_bytes(self, tmp_path, kernel, monkeypatch):
        if kernel == "c":
            assert pushloop.load() is not None

        def solve(out):
            assert cli.main(["mdp", "--grid", "200x41", "--out", str(out)]) == 0
            return [(out / name).read_bytes() for name in ("policy.csv", "trajectory.csv")]

        compiled = solve(tmp_path / "c")
        monkeypatch.setattr(pushloop, "load", lambda: None)
        assert solve(tmp_path / "py") == compiled


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve", "--graph", "two-wheels", "--max-steps", "0"], "max-steps must be >= 1"),
        (["solve", "--graph", "meanfield:50,20,10:0.1:0.01", "--pagerank"],
         "pagerank mode is not defined for the mean-field builtin"),
        (["bench", "--graph", "two-wheels"], "bench needs a comma-separated --method list"),
    ],
    ids=["solve-max-steps-0", "pagerank-on-meanfield", "bench-without-method"],
)
def test_typed_errors(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
