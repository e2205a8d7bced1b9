import sys

import numpy as np
import pytest

from rlgl import cli, matrix, models
from rlgl.errors import ConfigError
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
            ["solve", "--graph", "example31", "--method", "rlgl", "--schedule", "rr",
             "--eps", "1e-10", "--out", str(tmp_path)]
        )
        assert code == 0
        _, vals = read_estimate(tmp_path / "estimate.csv")
        assert np.abs(vals - gth_stationary(four_state)).sum() <= 1e-8
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,updates,cum_cost,scan_cost,cash_l1,err_l1"

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
        ["0 1.5\n1 0\n", "0 1\n1 0 abc\n", "0 1 inf\n1 0\n", "0 1 nan\n1 0\n"],
        ids=["float-id", "text-weight", "inf-weight", "nan-weight"],
    )
    def test_malformed_edge_file_exit_code(self, tmp_path, capsys, text):
        graph = tmp_path / "bad.edges"
        graph.write_text(text)
        code = cli.main(["solve", "--graph", str(graph), "--method", "pi", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

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
            ["solve", "--graph", "example31", "--method", "rlgl",
             "--schedule", f"blocks:{blocks}", "--m0", str(m0),
             "--eps", "1e-10", "--max-steps", "200", "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_NO_CONVERGENCE

    def test_degenerate_history_exit_code(self, tmp_path):
        blocks = tmp_path / "only0.txt"
        blocks.write_text("0\n")
        m0 = tmp_path / "m0.txt"
        m0.write_text("1 0 0 0\n")
        code = cli.main(
            ["solve", "--graph", "example31", "--method", "rlgl",
             "--schedule", f"blocks:{blocks}", "--m0", str(m0), "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_DEGENERATE

    def test_estimate_difference_criterion(self, tmp_path, four_state):
        code = cli.main(
            ["solve", "--graph", "example31", "--method", "rlgl", "--schedule", "rr",
             "--eps", "1e-10", "--criterion", "pihat", "--out", str(tmp_path)]
        )
        assert code == 0
        _, vals = read_estimate(tmp_path / "estimate.csv")
        assert np.abs(vals - gth_stationary(four_state)).sum() <= 1e-8

    def test_trace_stride_reaches_gso(self, tmp_path):
        code = cli.main(["solve", "--graph", "two-wheels", "--pagerank", "--method", "gso:rr",
                         "--trace-stride", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        # the start row, one row per push (every rr step pushes), the stop row
        assert len(rows) == int(rows[-1].split(",")[0]) + 1

    def test_trace_stride_below_one_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.ExperimentConfig(graph="two-wheels", trace_stride=0).validate()
        code = cli.main(["solve", "--graph", "two-wheels", "--method", "rlgl",
                         "--trace-stride", "0", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_unknown_method(self, tmp_path):
        code = cli.main(["solve", "--graph", "example31", "--method", "nope", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG


def _bad_vector_files(tmp_path):
    """Vector files for two-wheels that no --m0 or --restart-s may accept."""
    n = models.two_wheels()[1]
    files = {name: tmp_path / f"{name}.txt" for name in ("missing", "text", "short", "nan")}
    files["text"].write_text("0.5 x\n")  # a non-numeric entry
    files["short"].write_text("0.5 0.5\n")  # a distribution of the wrong length
    files["nan"].write_text("nan\n" + f"{1 / (n - 1)!r}\n" * (n - 1))  # sums to 1 but for the NaN
    return files


@pytest.mark.parametrize(
    "extra",
    [
        ["--method", "rlgl", "--schedule", "theta:1:0"],
        ["--method", "rlgl", "--schedule", "theta:1:-3"],
        ["--method", "rlgl", "--schedule", "rand:1.5"],
        ["--method", "rlgl", "--schedule", "theta:abc"],
        ["--method", "gmres:x"],
        ["--graph", "sbm:40,40:0.1"],
        ["--graph", "sbm:40,x:0.1:0.01"],
        ["--graph", "meanfield:5,2:0.1"],
        ["--method", "rlgl", "--schedule", "blocks:{missing}"],
        ["--method", "rlgl", "--m0", "{missing}"],
        ["--method", "rlgl", "--schedule", "rand:-1"],
        ["--method", "rlgl", "--schedule", "pc", "--seed", "-2"],
        ["--method", "rlgl", "--m0", "{text}"],
        ["--method", "rlgl", "--m0", "{short}"],
        ["--method", "rlgl", "--m0", "{nan}"],
        ["--pagerank", "--restart-s", "{text}"],
        ["--pagerank", "--restart-s", "{nan}"],
    ],
    ids=lambda extra: " ".join(extra),
)
def test_bad_descriptor_is_one_error_line(tmp_path, capsys, extra):
    files = _bad_vector_files(tmp_path)
    args = ["solve", "--graph", "two-wheels", "--method", "pi", "--out", str(tmp_path)]
    args += [a.format(**files) for a in extra]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "sbm", "{out}", "--sizes", "40,x"],
        ["gen", "meanfield", "{out}", "--sizes", "40,x"],
        ["mdp", "--sizes", "50,x", "--out", "{out}"],
        ["mdp", "--grid", "10", "--out", "{out}"],
    ],
    ids=lambda args: " ".join(a for a in args if a != "{out}"),
)
def test_bad_integer_flag_is_one_error_line(tmp_path, capsys, args):
    assert cli.main([a.format(out=tmp_path / "out") for a in args]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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

    def test_respects_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RLGL_THREADS", "4")
        code = cli.main(["bench", "--graph", "two-wheels", "--method", "pi,gs",
                         "--eps", "1e-9", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "bench.csv").exists()

    def test_failed_rows_carry_method_kind(self, tmp_path):
        code = cli.main(["bench", "--graph", "sbm:40,40:0.1:0.005:2", "--method",
                         "pi,gs,gmres:2,rlgl+rr", "--max-steps", "20", "--out", str(tmp_path)])
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "bench.csv").read_text().splitlines()[1:]]
        kinds = {"pi": "delta_l1", "gs": "delta_l1", "gmres:2": "gmres_rel", "rlgl+rr": "cash_l1"}
        for method, kind in kinds.items():
            sub = [r for r in rows if r[0] == method]
            assert sub and all(r[4] == kind for r in sub), method

    @pytest.mark.parametrize("m0", ["text", "short", "nan"])
    def test_bad_m0_is_one_error_line(self, tmp_path, capsys, m0):
        path = _bad_vector_files(tmp_path)[m0]
        code = cli.main(["bench", "--graph", "two-wheels", "--method", "rlgl+rr,pi",
                         "--m0", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
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
