import json
from pathlib import Path

import pytest

from preclusion import emit, hypercube, mp_s
from preclusion.cli import RunReport, main

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout: str) -> dict:
    return json.loads(stdout)


def validate_schema(report: dict) -> None:
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(report, schema)


def test_gen_edges(capsys):
    code, out, _ = run_cli(capsys, "gen", "hypercube", "3", "--format", "edges")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "8 12"
    assert len(lines) == 13


def test_gen_g6(capsys):
    code, out, _ = run_cli(capsys, "gen", "petersen", "--format", "g6")
    assert code == 0
    assert out.strip() == "IheA@GUAo"


def test_gen_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "complete_bipartite", "2", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5 and len(payload["edges"]) == 6


def test_gen_invalid_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "gen", "hypercube", "0")
    assert code == 2
    assert "error" in err


def test_gen_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "nosuchfamily", "3"])
    assert exc.value.code == 2


def test_solve_mp_q3(tmp_path, capsys):
    path = tmp_path / "q3.txt"
    path.write_text(emit(hypercube(3), "edge_list"))
    code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert code == 0
    report = report_of(out)
    assert report["result"]["value"] == 3
    assert len(report["result"]["witness"]) == 3
    assert report["input"] == {"n": 8, "m": 12, "family": None}
    validate_schema(report)


def test_schema_gives_stats_a_shape(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    path = tmp_path / "q3.txt"
    path.write_text(emit(hypercube(3), "edge_list"))
    _, out, _ = run_cli(capsys, "solve", str(path), "--mode", "mp")
    report = report_of(out)
    assert set(report["stats"]) == {"nodes", "budget_prunes", "side_prunes", "bound_prunes",
                                    "orbit_bans", "pendant_bans", "automorphisms",
                                    "deepening_rounds", "lexmin_nodes"}
    validate_schema(report)
    for broken in ({"nodes": 1}, dict(report["stats"], nodes=-1),
                   dict(report["stats"], side_prunes="0"), []):
        with pytest.raises(jsonschema.ValidationError):
            validate_schema(dict(report, stats=broken))


def test_solve_reads_the_json_gen_writes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "6", "--format", "json")
    assert code == 0
    path = tmp_path / "c6.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert code == 0, err
    assert report_of(out)["result"]["value"] == 2


def test_solve_reads_graph6_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(emit(hypercube(3), "graph6")))
    code, out, _ = run_cli(capsys, "solve", "--mode", "mps", "--s", "2")
    assert code == 0
    assert report_of(out)["result"]["value"] == 4


def test_solve_ak_infeasible_exits_1(tmp_path, capsys):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "ak")
    assert code == 1
    report = report_of(out)
    assert report["result"]["value"] == "infinity"
    assert report["result"]["reason"]
    validate_schema(report)


def test_solve_ak_odd_order_exits_2(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, _, err = run_cli(capsys, "solve", str(path), "--mode", "ak")
    assert code == 2
    assert "even-order" in err


def test_solve_mps_requires_s(tmp_path, capsys):
    path = tmp_path / "q3.txt"
    path.write_text(emit(hypercube(3), "edge_list"))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--mode", "mps"])
    assert exc.value.code == 2


def test_solve_budget_infeasible_exits_1(tmp_path, capsys):
    path = tmp_path / "q3.txt"
    path.write_text(emit(hypercube(3), "edge_list"))
    code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "mp", "--budget", "2")
    assert code == 1
    report = report_of(out)
    assert report["result"]["value"] == "infinity"
    assert "--budget" in report["command"]
    validate_schema(report)


def test_reduce_k2_with_check(tmp_path, capsys):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    code, out, _ = run_cli(capsys, "reduce", str(path), "--check", "1")
    assert code == 0
    report = report_of(out)
    gadget = report["result"]["gadget"]
    assert gadget["n"] == 6 and gadget["m"] == 7
    labels = gadget["labels"]
    assert {"u_prime", "u_dprime", "v_prime", "v_dprime", "edge_e", "edge_e_prime"} <= set(labels)
    assert report["result"]["equivalence"]["agree"]
    validate_schema(report)


def test_reduce_check_takes_s_as_given_and_rejects_bad_values(tmp_path, capsys):
    # --s 0 is checked as s = 0, which verify_equivalence rejects, not as
    # the default s = 1; a negative budget is rejected too.
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    for flags in (("--check", "1", "--s", "0"), ("--check", "-1")):
        code, out, err = run_cli(capsys, "reduce", str(path), *flags)
        assert code == 2 and out == "" and "error" in err, flags
    code, out, _ = run_cli(capsys, "reduce", str(path), "--check", "1", "--s", "2")
    assert code == 0
    assert report_of(out)["result"]["equivalence"]["s"] == 2


def test_reduce_g6_output(tmp_path, capsys):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    code, out, _ = run_cli(capsys, "reduce", str(path), "--format", "g6")
    assert code == 0
    assert "graph6" in report_of(out)["result"]["gadget"]


def test_reduce_non_bipartite_exits_2(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, _, err = run_cli(capsys, "reduce", str(path))
    assert code == 2
    assert "bipartite" in err


def test_verify_hypercube(capsys):
    code, out, _ = run_cli(capsys, "verify", "hypercube", "3", "2")
    assert code == 0
    report = report_of(out)
    assert report["result"]["passed"]
    assert report["result"]["certificate"]["value"] == 4
    validate_schema(report)


def test_verify_hypercube_reports_a_refuted_bound_as_a_failure(capsys, monkeypatch):
    # A set below 2n-2 is a counterexample (exit 1, witness in the report),
    # not a usage error (exit 2).
    import preclusion.cubes as cubes
    real_solve = cubes.solve
    monkeypatch.setattr(cubes, "solve", lambda g, kind, **kw: real_solve(g, mp_s(0)))
    code, out, _ = run_cli(capsys, "verify", "hypercube", "3", "2")
    assert code == 1
    result = report_of(out)["result"]
    assert not result["passed"] and result["expected"] == 4
    assert result["certificate"]["value"] == 3
    assert result["certificate"]["witness"] == [0, 1, 2]
    assert "refuted" in result["certificate"]["note"]
    validate_schema(report_of(out))


def test_verify_lemma4(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma4", "3")
    assert code == 0
    report = report_of(out)
    assert report["result"]["subsets_checked"] == 495
    validate_schema(report)


def test_verify_lemma5_q3_reports_counterexamples(capsys):
    # the corrected form still fails on the 3-cube's dimension cuts, so the
    # suite exits 1 and lists them alongside the literal-form counterexample
    code, out, _ = run_cli(capsys, "verify", "lemma5", "3")
    assert code == 1
    report = report_of(out)
    assert not report["result"]["passed"]
    assert len(report["result"]["corrected_failures"]) == 3
    assert report["result"]["literal_counterexample"]["contains_vertex_star"]
    assert report["result"]["trivial_conditional_sets_leave_connected"]
    validate_schema(report)


def test_verify_lemma5_q4_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma5", "4", "--count", "5000", "--seed", "1")
    assert code == 0
    report = report_of(out)
    assert report["result"]["passed"]
    assert report["result"]["seed"] == 1 and report["result"]["checked"] == 5000
    # The flags that pick the sample are echoed, so the report can be re-run.
    assert report["command"] == ["verify", "lemma5", "4", "--seed", "1", "--count", "5000"]
    validate_schema(report)


def test_verify_rejects_an_empty_sample(capsys):
    # --count 0 is an empty run, not a request for the default count.
    for suite, params in (("lemma5", ["4"]), ("chain", ["1"]), ("reduction-fuzz", ["1"])):
        for count in ("0", "-1"):
            code, out, err = run_cli(capsys, "verify", suite, *params, "--count", count)
            assert code == 2 and out == "" and "must be >= 1" in err, (suite, count)


def test_verify_command_echoes_slow_and_nothing_unasked(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma4", "3", "--slow", "--jobs", "2")
    assert code == 0
    assert report_of(out)["command"] == ["verify", "lemma4", "3", "--slow"]
    code, out, _ = run_cli(capsys, "verify", "lemma5", "3")
    report = report_of(out)
    assert report["command"] == ["verify", "lemma5", "3"]
    assert "seed" not in report["result"]  # exhaustive: no sample to seed


def usage_error(capsys, *argv) -> str:
    """Run ``argv``, which must exit 2 with nothing on stdout, whether the
    parser or the library refuses it; its last stderr line."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == "", argv
    return out.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ("solve", "C4", "--mode", "mp", "--s", "3"),
    ("solve", "C4", "--mode", "ak", "--s", "3"),
    ("bench", "--mode", "mp", "--s", "2"),
    ("reduce", "C4", "--s", "2"),
])
def test_flags_a_subcommand_would_ignore_are_usage_errors(tmp_path, capsys, argv):
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    argv = [str(path) if arg == "C4" else arg for arg in argv]
    assert "error: --s applies only" in usage_error(capsys, *argv)


def test_reduce_takes_no_deterministic_flag(tmp_path, capsys):
    # The reduction has no nondeterminism for the flag to switch off.
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    err = usage_error(capsys, "reduce", str(path), "--deterministic")
    assert "unrecognized arguments: --deterministic" in err


@pytest.mark.parametrize("argv", [
    ("hypercube", "3", "2", "7"),
    ("lemma4", "3", "4"),
    ("lemma5", "3", "4"),
    ("chain", "1", "2", "3", "4"),
    ("reduction-fuzz", "1", "2", "3"),
    ("hypercube", "3", "2", "--seed", "5"),
    ("hypercube", "3", "2", "--count", "5"),
    ("lemma4", "3", "--seed", "5"),
    ("lemma4", "3", "--count", "5"),
    ("hypercube", "3", "2", "--slow"),
    ("lemma5", "3", "--slow"),
    ("chain", "--slow"),
    ("reduction-fuzz", "--slow"),
    ("chain", "5", "--seed", "9"),
    ("chain", "5", "3", "--count", "9"),
    ("reduction-fuzz", "5", "--seed", "9"),
    ("lemma5", "3", "--seed", "5"),
    ("lemma5", "3", "--count", "7"),
])
def test_verify_rejects_parameters_it_would_ignore_or_contradict(capsys, argv):
    assert "error:" in usage_error(capsys, "verify", *argv)


def test_verify_takes_seed_and_count_as_flags_or_parameters(capsys):
    code, out, _ = run_cli(capsys, "verify", "chain", "--seed", "11", "--count", "5")
    flags = report_of(out)
    code2, out, _ = run_cli(capsys, "verify", "chain", "11", "5")
    positional = report_of(out)
    assert code == code2 == 0
    assert flags["command"] == ["verify", "chain", "--seed", "11", "--count", "5"]
    assert flags["result"] == positional["result"]


@pytest.mark.parametrize("argv", [
    ("solve", "-", "--mode", "mp"),
    ("bench",),
    ("verify", "hypercube", "3", "2"),
    ("verify", "lemma5", "3"),
    ("verify", "lemma4", "3"),
    ("verify", "chain"),
    ("verify", "reduction-fuzz"),
])
def test_jobs_below_one_is_a_usage_error_for_every_suite(capsys, argv):
    assert "error: --jobs must be >= 1" in usage_error(capsys, *argv, "--jobs", "0")


def test_reports_echo_every_flag_that_shapes_the_result(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    flags = ("--check", "1", "--s", "2", "--format", "g6")
    code, out, _ = run_cli(capsys, "reduce", str(path), *flags)
    assert code == 0 and report_of(out)["command"] == ["reduce", *flags]
    flags = ("--mode", "mps", "--s", "2", "--min-n", "3", "--max-n", "3")
    code, out, _ = run_cli(capsys, "bench", *flags)
    report = report_of(out)
    assert code == 0 and report["command"] == ["bench", *flags]
    assert [row["n"] for row in report["result"]["rows"]] == [3]
    validate_schema(report)


def test_verify_chain(capsys):
    code, out, _ = run_cli(capsys, "verify", "chain", "11", "20")
    assert code == 0
    report = report_of(out)
    assert report["result"]["instances"] == 20
    validate_schema(report)


def test_verify_reduction_fuzz(capsys):
    code, out, _ = run_cli(capsys, "verify", "reduction-fuzz", "42", "15")
    assert code == 0
    report = report_of(out)
    assert report["result"]["passed"]
    assert report["result"]["instances"] == 15
    validate_schema(report)


def test_verify_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hypercube", "3"])  # missing s
    assert exc.value.code == 2


def test_bench_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "--min-n", "2", "--max-n", "3")
    assert code == 0
    report = report_of(out)
    rows = report["result"]["rows"]
    assert [row["value"] for row in rows] == [2, 3]
    assert all("seconds" not in row for row in rows)
    assert len(report["timing"]["row_seconds"]) == len(rows)
    # Wall-clock times live only in timing, so two runs match outside it.
    _, again, _ = run_cli(capsys, "bench", "--min-n", "2", "--max-n", "3")
    again = report_of(again)
    assert {**report, "timing": None} == {**again, "timing": None}
    validate_schema(report)
    code, out, _ = run_cli(capsys, "bench", "--min-n", "2", "--max-n", "3", "--csv")
    assert code == 0
    assert out.startswith("n,vertices,edges,value,nodes,seconds")


@pytest.mark.parametrize("argv", [("--min-n", "3", "--max-n", "2"), ("--min-n", "4")])
def test_bench_empty_sweep_is_a_usage_error(capsys, argv):
    assert "the sweep would be empty" in usage_error(capsys, "bench", *argv)


def test_report_round_trips_through_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "hypercube", "3", "2")
    assert code == 0
    report = RunReport.from_json(out)
    assert report.to_json() == out


def test_solve_long_path_exits_0(tmp_path, capsys):
    from preclusion import path as path_graph
    source = tmp_path / "p3000.txt"
    source.write_text(emit(path_graph(3000), "edge_list"))
    code, out, _ = run_cli(capsys, "solve", str(source), "--mode", "mp")
    assert code == 0
    assert report_of(out)["result"]["value"] == 1


def test_internal_error_exits_4(capsys, monkeypatch):
    import preclusion.cli as cli

    def broken(parser, args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "cmd_gen", broken)
    code, out, err = run_cli(capsys, "gen", "hypercube", "3")
    assert code == 4
    assert out == ""
    assert err.strip() == "internal error: RuntimeError: simulated fault"


def _run_cli_under_1_gib(*argv):
    """The CLI in a child process under a 1 GiB address-space limit, so a
    missing size cap fails with a MemoryError instead of exhausting the
    machine."""
    import os
    import resource
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "preclusion.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=limit_memory)


def test_huge_declared_order_exits_2(tmp_path):
    # The header declares 10^9 vertices and no edges. The vertex cap must
    # reject it before any adjacency list exists.
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0\n")
    proc = _run_cli_under_1_gib("solve", str(path), "--mode", "mp")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "exceeds the limit of 258047" in proc.stderr


def test_huge_generated_graph_exits_2():
    # The generators check the order, and the edge count of the dense
    # families, before they build an edge list.
    for argv, limit in ((("hypercube", "30"), "258047"), (("path", "100000000"), "258047"),
                        (("complete", "100000"), "1000000"),
                        (("complete_bipartite", "100000", "100000"), "1000000")):
        proc = _run_cli_under_1_gib("gen", *argv, "--format", "edges")
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""
        assert f"exceeds the limit of {limit}" in proc.stderr


@pytest.mark.parametrize("subcommand", [("solve", "--mode", "mp"), ("reduce",)])
@pytest.mark.parametrize("target", ["directory", "missing"])
def test_unreadable_input_paths_exit_2(tmp_path, capsys, subcommand, target):
    path = str(tmp_path if target == "directory" else tmp_path / "missing.txt")
    code, out, err = run_cli(capsys, subcommand[0], path, *subcommand[1:])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read {path}")


def test_non_ascii_input_exits_2(tmp_path, capsys):
    path = tmp_path / "accent.txt"
    path.write_bytes("2 1\n0 1 é\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert code == 2
    assert out == ""
    assert "must be ASCII" in err
