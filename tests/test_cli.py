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


def test_solve_reads_an_edge_list_that_opens_with_a_comment(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("# C4\n4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, err = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert (code, err) == (0, "")
    assert report_of(out)["result"]["value"] == 2


def test_solve_on_comments_alone_reports_an_empty_edge_list(tmp_path, capsys):
    path = tmp_path / "comments.txt"
    path.write_text("# nothing\n")
    code, out, err = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert (code, out) == (2, "")
    assert "empty edge-list input" in err


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


def test_reduce_check_on_an_empty_source_exits_0(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    code, out, err = run_cli(capsys, "reduce", "--check", "0")
    assert code == 0, err
    eq = report_of(out)["result"]["equivalence"]
    assert (eq["left"], eq["right_ak"], eq["right_mps"], eq["agree"]) == (False, False, False, True)


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
    argv = ["verify", "lemma5", "4", "1", "5000"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = report_of(out)
    assert report["result"]["passed"]
    assert report["result"]["seed"] == 1 and report["result"]["checked"] == 5000
    # The command is the argv that ran, so the report can be re-run.
    assert report["command"] == argv
    validate_schema(report)


def test_verify_rejects_an_empty_sample(capsys):
    # A count of 0 is an empty run, not a request for the default count.
    for suite, params in (("lemma5", ["4", "1"]), ("chain", ["1"]), ("reduction-fuzz", ["1"])):
        for count in ("0", "-1"):
            code, out, err = run_cli(capsys, "verify", suite, *params, count)
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
    ("reduce", "C4", "--format", "g6", "--s", "2"),
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


@pytest.mark.parametrize("argv", [
    ("chain", "--seed", "1"),
    ("reduction-fuzz", "--count", "5"),
    ("lemma5", "4", "--seed", "1"),
])
def test_verify_takes_seed_and_count_only_as_parameters(capsys, argv):
    # One spelling per value, so a report's command is the argv that ran.
    flag = argv[-2]
    assert f"unrecognized arguments: {flag}" in usage_error(capsys, "verify", *argv)


@pytest.mark.parametrize("argv", [
    ("solve", "-", "--mode", "mp"),
    ("solve", "-", "--mode", "mps", "--s", "2"),
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
    report = report_of(out)
    assert code == 0 and report["command"] == ["reduce", *flags]
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


def test_a_hypercube_sweep_is_gen_piped_to_solve(capsys, monkeypatch):
    # Each order's graph from gen, solved from stdin; the solve time is in
    # the report's timing alone.
    import io
    rows = []
    for n in (2, 3, 4):
        _, graph, _ = run_cli(capsys, "gen", "hypercube", str(n))
        reports = []
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(graph))
            code, out, _ = run_cli(capsys, "solve", "--mode", "mps", "--s", "1",
                                   "--deterministic")
            assert code == (1 if n == 2 else 0)
            reports.append(report_of(out))
        report, again = reports
        validate_schema(report)
        # Wall-clock times live only in timing, so two runs match outside it.
        assert {**report, "timing": None} == {**again, "timing": None}
        rows.append((report["input"]["n"], report["input"]["m"],
                     report["result"]["value"], report["stats"]["nodes"]))
    assert rows == [(4, 4, "infinity", 5), (8, 12, 4, 16), (16, 32, 6, 101)]


def test_bench_is_no_subcommand(capsys):
    assert "invalid choice: 'bench'" in usage_error(capsys, "bench")


def test_report_round_trips_through_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "hypercube", "3", "2")
    assert code == 0
    report = RunReport(**json.loads(out))
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


def _run_cli_under_1_gib(*argv, stdin="", **environ):
    """The CLI in a child process under a 1 GiB address-space limit, so a
    missing size cap fails with a MemoryError instead of exhausting the
    machine. ``stdin`` is written one byte per character, and ``environ``
    is added to the child's environment."""
    import os
    import resource
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]), **environ)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "preclusion.cli", *argv], input=stdin,
                          capture_output=True, encoding="latin-1", env=env,
                          preexec_fn=limit_memory)


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


def test_an_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # int() refuses more than 4,300 digits with a bare ValueError, which
    # main would report as an internal error (exit 4).
    path = tmp_path / "long.txt"
    path.write_text("1" * 5000 + " 0\n")
    code, out, err = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert code == 2 and out == ""
    assert "integer of 5000 digits is too long (byte offset 0)" in err


def test_non_ascii_input_exits_2(tmp_path, capsys):
    path = tmp_path / "accent.txt"
    path.write_bytes("2 1\n0 1 é\n".encode("utf-8"))
    code, out, err = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert code == 2
    assert out == ""
    assert "must be ASCII" in err


def test_non_ascii_stdin_exits_2(capsys, monkeypatch):
    # An Arabic-Indic one, which str.isdecimal and the \d of re accept.
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 \u0661\n"))
    code, out, err = run_cli(capsys, "solve", "--mode", "mp")
    assert (code, out) == (2, "")
    assert err == "error: graph input must be ASCII text (byte offset 6)\n"


def test_stdin_bytes_that_do_not_decode_exit_2():
    # Under a strict UTF-8 stdin, as in a UTF-8 locale, the byte 0xff fails
    # in sys.stdin.read itself, before the ASCII check.
    proc = _run_cli_under_1_gib("solve", "-", "--mode", "mp", stdin="\xff\n",
                                PYTHONIOENCODING="utf-8:strict")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: graph input must be ASCII text (byte offset 0)\n"


def test_crlf_file_offsets_count_both_line_end_bytes(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_bytes(b"3 2\r\n0 1\r\n1 0\r\n")
    code, out, err = run_cli(capsys, "solve", str(path), "--mode", "mp")
    assert (code, out) == (2, "")
    assert err == "error: duplicate edge (0, 1) (byte offset 10)\n"
