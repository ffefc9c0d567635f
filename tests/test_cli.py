import argparse
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidity as R
from rigidity.cli import _build_parser, _load_graph, main

import fixtures as fx


@pytest.fixture()
def barbell_file(tmp_path):
    p = tmp_path / "barbell.txt"
    p.write_text(R.format_edge_list(fx.barbell()))
    return p


@pytest.fixture()
def z21_g6_file(tmp_path):
    p = tmp_path / "z21.g6"
    p.write_text(R.to_graph6(fx.z21()) + "\n")
    return p


class TestCheck:
    def test_certified_exit_zero(self, z21_g6_file, capsys):
        rc = main(["check", str(z21_g6_file), "--target", "lower"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CERTIFIED" in out

    def test_disproved_exit_one(self, barbell_file, capsys):
        rc = main(["check", str(barbell_file), "--target", "lower"])
        assert rc == 1
        assert "DISPROVED" in capsys.readouterr().out

    def test_inconclusive_exit_two(self, tmp_path, capsys):
        # an identity-only group leaves the eigenspace unsplit (m = 2),
        # so no rank-one certificate can be extracted
        p = tmp_path / "c5.g6"
        p.write_text(R.to_graph6(fx.c5()) + "\n")
        gens = tmp_path / "id.json"
        gens.write_text("[[0, 1, 2, 3, 4]]")
        rc = main(["check", str(p), "--target", "lower",
                   "--group", f"file:{gens}"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "INCONCLUSIVE_NO_RANK1" in out

    def test_all_targets_disproved_exit_one(self, barbell_file, capsys):
        rc = main(["check", str(barbell_file), "--target", "both"])
        capsys.readouterr()
        assert rc == 1

    def test_json_output(self, z21_g6_file, capsys):
        rc = main(["check", str(z21_g6_file), "--target", "lower", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert payload["status"].startswith("CERTIFIED")

    def test_report_file_roundtrips(self, z21_g6_file, tmp_path, capsys):
        report = tmp_path / "out.json"
        rc = main(["check", str(z21_g6_file), "--target", "lower",
                   "--report", str(report)])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(report.read_bytes())
        assert R.reverify_report(payload)

    def test_same_seed_byte_identical(self, z21_g6_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", str(z21_g6_file), "--seed", "7", "--report", str(a)])
        main(["check", str(z21_g6_file), "--seed", "7", "--report", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_group_file(self, tmp_path, capsys):
        g = fx.z12()
        gfile = tmp_path / "z12.g6"
        gfile.write_text(R.to_graph6(g) + "\n")
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps(fx.rotation_gens(g, 12).gens))
        rc = main(["check", str(gfile), "--target", "lower",
                   "--group", f"file:{gens}", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "CERTIFIED_EXACT"
        assert sorted(payload["certificate"]["a"]) == ["0", "1", "1/3"]

    def test_both_targets_give_one_json_array(self, tmp_path, capsys):
        # Two reports back to back would not be one JSON document.
        p = tmp_path / "c5.g6"
        p.write_text(R.to_graph6(fx.c5()) + "\n")
        report = tmp_path / "out.json"
        assert main(["check", str(p), "--report", str(report), "--json"]) == 0
        payloads = json.loads(report.read_bytes())
        assert json.loads(capsys.readouterr().out) == payloads
        assert [x["target"] for x in payloads] == ["LOWER", "UPPER"]
        assert all(R.reverify_report(x) for x in payloads)

    def test_one_target_report_is_the_emitted_report(self, tmp_path, capsys):
        p = tmp_path / "c5.g6"
        p.write_text(R.to_graph6(fx.c5()) + "\n")
        report = tmp_path / "out.json"
        assert main(["check", str(p), "--target", "lower",
                     "--report", str(report), "--json"]) == 0
        rep = R.run_pipeline(fx.c5(), R.TargetKind.LOWER, R.PipelineConfig(),
                             graph_id="c5")
        blob = R.emit_report(rep, "JSON")
        assert report.read_bytes() == blob
        assert capsys.readouterr().out == blob.decode()

    def test_both_targets_mixed_verdict(self, tmp_path, capsys):
        g = fx.z12()
        gfile = tmp_path / "z12.txt"
        gfile.write_text(R.format_edge_list(g))
        rc = main(["check", str(gfile), "--target", "both"])
        out = capsys.readouterr().out
        # lower certifies, upper disproves: any certification wins exit 0
        assert rc == 0
        assert "CERTIFIED" in out and "DISPROVED" in out


class TestSpectrum:
    def test_prints_extremes(self, barbell_file, capsys):
        rc = main(["spectrum", str(barbell_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lambda_2" in out and "lambda_max" in out
        assert "0.4384471871911" in out
        assert "4.5615528128088" in out


class TestOrbits:
    def test_prints_orbit_sizes(self, barbell_file, capsys):
        rc = main(["orbits", str(barbell_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "group order 8" in out
        assert "vertex orbits: 2 with sizes (4, 2)\n" in out
        for size in ("1", "2", "4"):
            assert size in out

    def test_k6_group_order(self, tmp_path, capsys):
        gfile = tmp_path / "k6.txt"
        gfile.write_text(R.format_edge_list(R.circulant(6, (1, 2, 3))))
        assert main(["orbits", str(gfile)]) == 0
        assert "group order 720" in capsys.readouterr().out

    def test_member_lists_are_grouped_once(self, tmp_path, capsys, monkeypatch):
        # A 4,000-edge path with vertex 0 fixed has the trivial group, so
        # every edge is its own orbit and orbit o lists edge (o, o + 1).
        m = 4000
        gfile = tmp_path / "path.txt"
        gfile.write_text("".join(f"{v} {v + 1}\n" for v in range(m)))
        grouping = vars(R.EdgeOrbitPartition)["_members"]
        calls = []

        def counted(part):
            calls.append(part)
            return grouping.func(part)
        spy = functools.cached_property(counted)
        spy.__set_name__(R.EdgeOrbitPartition, "_members")
        monkeypatch.setattr(R.EdgeOrbitPartition, "_members", spy)
        assert main(["orbits", str(gfile), "--group", "fix:0"]) == 0
        out = capsys.readouterr().out
        assert len(calls) == 1
        assert "group order 1\n" in out
        assert out.endswith("".join(f"  orbit {o}: [({o}, {o + 1})]\n"
                                    for o in range(m)))


    def test_reader_closing_early_is_no_internal_error(self, tmp_path):
        # 5,000 orbit lines overflow the pipe, so the CLI is still writing
        # when the reader stops after the first line. The identity as the
        # one generator skips the automorphism search.
        m = 5000
        gfile = tmp_path / "path.txt"
        gfile.write_text("".join(f"{v} {v + 1}\n" for v in range(m)))
        gens = tmp_path / "identity.json"
        gens.write_text(json.dumps([list(range(m + 1))]))
        src = str(Path(R.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (
                   src, os.environ.get("PYTHONPATH"))))}
        with subprocess.Popen(
                [sys.executable, "-m", "rigidity", "orbits", str(gfile),
                 "--group", f"file:{gens}"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert first == b"group order 1\n"
        assert code == 2
        assert "internal error" not in err and "Traceback" not in err


class TestLoadGraph:
    @pytest.mark.parametrize("graph_file", ["barbell_file", "z21_g6_file"])
    def test_graph_is_built_once(self, graph_file, request, monkeypatch):
        path = request.getfixturevalue(graph_file)
        searches = []
        is_connected = R.Graph._is_connected

        def spy(self):
            searches.append(self)
            return is_connected(self)
        monkeypatch.setattr(R.Graph, "_is_connected", spy)
        graph = _load_graph(str(path))
        assert searches == [graph]
        assert graph.name == path.stem


class TestDisprove:
    def test_witness_written(self, barbell_file, tmp_path, capsys):
        out_file = tmp_path / "witness.txt"
        rc = main(["disprove", str(barbell_file), "--target", "lower",
                   "--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "witness" in out.lower()
        rows = [ln.split() for ln in out_file.read_text().splitlines()
                if ln.strip() and not ln.startswith("#")]
        w = np.array([float(r[2]) for r in rows])
        g = fx.barbell()
        assert len(w) == g.m
        assert abs(w.sum() - g.m) <= 1e-9
        assert R.laplacian_spectrum(g, w).eigenvalues[1] > (
            R.laplacian_spectrum(g, np.ones(g.m)).eigenvalues[1])

    def test_no_witness_exit_two(self, tmp_path, capsys):
        p = tmp_path / "c5.g6"
        p.write_text(R.to_graph6(fx.c5()) + "\n")
        rc = main(["disprove", str(p), "--target", "lower"])
        capsys.readouterr()
        assert rc == 2

    def test_failed_eigensolve_exit_two(self, barbell_file, capsys,
                                        eigensolve_fails_after_first_call):
        rc = main(["disprove", str(barbell_file), "--target", "lower"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "eigensolve failed" in out

    def test_lapack_failure_in_oracle_exit_two(self, tmp_path, capsys,
                                               monkeypatch):
        # P4's largest eigenvalue turns double along the search; only the
        # oracle of that direction solves a 2 x 2 matrix with eigh.
        p = tmp_path / "p4.g6"
        p.write_text("Ck\n")
        real = np.linalg.eigh

        def eigh(M, *args, **kwargs):
            if np.shape(M) == (2, 2):
                raise np.linalg.LinAlgError("LAPACK failure injected by the test")
            return real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        rc = main(["disprove", str(p), "--target", "upper"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "eigensolve failed: LAPACK failure injected" in captured.out
        assert captured.err == ""


class TestBatch:
    def test_directory_summary(self, tmp_path, capsys):
        (tmp_path / "barbell.txt").write_text(R.format_edge_list(fx.barbell()))
        (tmp_path / "c5.g6").write_text(R.to_graph6(fx.c5()) + "\n")
        (tmp_path / "junk.g6").write_text("@@@not-a-graph\n")
        report_dir = tmp_path / "reports"
        rc = main(["batch", str(tmp_path), "--target", "both",
                   "--report-dir", str(report_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "skip" in out.lower()
        assert "DISPROVED" in out and "CERTIFIED_NUMERIC" in out
        written = sorted(p.name for p in report_dir.iterdir())
        assert written == ["barbell.lower.json", "barbell.upper.json",
                           "c5.lower.json", "c5.upper.json"]
        for p in report_dir.iterdir():
            assert R.reverify_report(json.loads(p.read_bytes()))

    def test_counts_per_status_in_graph_order(self, tmp_path, capsys):
        (tmp_path / "barbell.txt").write_text(R.format_edge_list(fx.barbell()))
        (tmp_path / "c5.g6").write_text(R.to_graph6(fx.c5()) + "\n")
        rc = main(["batch", str(tmp_path), "--target", "both"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "barbell.txt LOWER: DISPROVED",
            "barbell.txt UPPER: DISPROVED",
            "c5.g6 LOWER: CERTIFIED_NUMERIC",
            "c5.g6 UPPER: CERTIFIED_NUMERIC",
            "summary:",
            "  CERTIFIED_NUMERIC: 2",
            "  DISPROVED: 2",
        ]

    def test_unreadable_and_several_graph_files_are_skipped(self, tmp_path,
                                                             capsys):
        (tmp_path / "a_bytes.g6").write_bytes(b"\xff\xfe")
        (tmp_path / "b_two.g6").write_text("Dhc\nE~~w\n")  # C5, then K6
        (tmp_path / "c5.g6").write_text(R.to_graph6(fx.c5()) + "\n")
        rc = main(["batch", str(tmp_path), "--target", "lower"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("a_bytes.g6: SKIPPED (cannot read ")
        assert out[1] == (f"b_two.g6: SKIPPED ({tmp_path / 'b_two.g6'}: holds 2 "
                          "graphs; give one graph per file)")
        assert out[2:] == ["c5.g6 LOWER: CERTIFIED_NUMERIC", "summary:",
                           "  CERTIFIED_NUMERIC: 1", "  skipped inputs: 2"]

    def test_empty_directory(self, tmp_path, capsys):
        rc = main(["batch", str(tmp_path)])
        assert capsys.readouterr().out == "summary:\n"
        assert rc == 0

    def test_line_is_printed_before_a_later_run_fails(self, tmp_path, capsys,
                                                      monkeypatch):
        (tmp_path / "a_c5.g6").write_text(R.to_graph6(fx.c5()) + "\n")
        (tmp_path / "b_barbell.txt").write_text(
            R.format_edge_list(fx.barbell()))
        real = R.run_pipeline
        calls = []

        def fails_on_second_graph(graph, *args, **kwargs):
            calls.append(graph.name)
            if len(calls) == 2:
                raise RuntimeError("unexpected failure injected by the test")
            return real(graph, *args, **kwargs)

        monkeypatch.setattr("rigidity.cli.run_pipeline", fails_on_second_graph)
        rc = main(["batch", str(tmp_path), "--target", "lower"])
        captured = capsys.readouterr()
        assert calls == ["a_c5", "b_barbell"]
        # Exit 2, inconclusive: a crash must never read as 1, "disproved".
        assert rc == 2
        assert captured.out == "a_c5.g6 LOWER: CERTIFIED_NUMERIC\n"
        assert captured.err.startswith("internal error:")
        assert "unexpected failure injected by the test" in captured.err


class TestUsageErrors:
    def test_missing_file(self, capsys):
        rc = main(["check", "/nonexistent/graph.g6"])
        capsys.readouterr()
        assert rc == 3

    def test_malformed_graph(self, tmp_path, capsys):
        p = tmp_path / "bad.g6"
        p.write_text("@@@\n")
        rc = main(["check", str(p)])
        capsys.readouterr()
        assert rc == 3

    def test_disconnected_graph(self, tmp_path, capsys):
        p = tmp_path / "disc.txt"
        p.write_text("0 1\n2 3\n")
        rc = main(["check", str(p)])
        capsys.readouterr()
        assert rc == 3

    def test_bad_group_spec(self, barbell_file, capsys):
        rc = main(["check", str(barbell_file), "--group", "fix:zero"])
        capsys.readouterr()
        assert rc == 3

    @pytest.mark.parametrize("entry", [
        "[null,1,2,3,4]", "[[0],1,2,3,4]", "[0.9,1.2,2.7,3,4]",
        '["1","2","3","4","0"]', "[true,2,3,4,0]", "1", '{"0": 1}',
    ], ids=["null", "nested-list", "floats", "strings", "bool", "bare-integer",
            "object"])
    def test_generator_entries_must_be_integers(self, tmp_path, capsys, entry):
        gfile = tmp_path / "c5.g6"
        gfile.write_text(R.to_graph6(fx.c5()) + "\n")
        gens = tmp_path / "gens.json"
        gens.write_text(f"[{entry}]")
        rc = main(["check", str(gfile), "--group", f"file:{gens}"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["check", "{graph}", "--report", "{missing}/x.json"],
        ["disprove", "{graph}", "--target", "lower", "--out", "{missing}/w.txt"],
        ["batch", "{dir}", "--report-dir", "{graph}"],
    ], ids=["check-report", "disprove-out", "batch-report-dir"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, command):
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        graph = graphs / "barbell.txt"
        graph.write_text(R.format_edge_list(fx.barbell()))
        paths = {"graph": graph, "dir": graphs, "missing": tmp_path / "nowhere"}
        rc = main([arg.format(**paths) for arg in command])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error: cannot write")
        assert "Traceback" not in captured.err
        if command[0] == "batch":  # refused before the first run
            assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["check"], ["spectrum"], ["orbits"], ["disprove", "--target", "lower"],
    ], ids=["check", "spectrum", "orbits", "disprove"])
    def test_graph_file_not_utf8_exits_3(self, tmp_path, capsys, command):
        p = tmp_path / "bad.g6"
        p.write_bytes(b"\xff\xfe")
        rc = main([command[0], str(p), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith(f"error: cannot read {p}:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe", "cannot read generator file"),
        (b"[" * 200_000, "nested too deeply"),
    ], ids=["not-utf8", "nested-too-deeply"])
    def test_unreadable_generator_file_exits_3(self, tmp_path, capsys, content,
                                               message):
        gfile = tmp_path / "c5.g6"
        gfile.write_text(R.to_graph6(fx.c5()) + "\n")
        gens = tmp_path / "gens.json"
        gens.write_bytes(content)
        rc = main(["orbits", str(gfile), "--group", f"file:{gens}"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error:") and message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["check"], ["spectrum"], ["orbits"], ["disprove", "--target", "lower"],
    ], ids=["check", "spectrum", "orbits", "disprove"])
    def test_graph6_file_with_several_graphs_exits_3(self, tmp_path, capsys,
                                                     command):
        p = tmp_path / "two.g6"
        p.write_text("Dhc\nE~~w\n")  # C5, then K6
        rc = main([command[0], str(p), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == (f"error: {p}: holds 2 graphs; "
                                "give one graph per file\n")
        assert captured.out == ""

    def test_missing_group_file(self, barbell_file, capsys):
        rc = main(["check", str(barbell_file),
                   "--group", "file:/nonexistent.json"])
        capsys.readouterr()
        assert rc == 3

    @pytest.mark.parametrize("args", [
        ["check", "G.g6", "--bogus"],
        ["check", "G.g6", "--mode", "numeric"],
        ["batch", "graphs", "--tol-sdp", "1e-9"],
        ["check"],
        ["nosuch", "G.g6"],
        ["orbits", "G.g6", "--seed", "5"],
        ["orbits", "G.g6", "--target", "upper"],
    ], ids=["unknown-flag", "mode", "tol-sdp", "missing-graph",
            "unknown-command", "orbits-seed", "orbits-target"])
    def test_argument_error_exits_3(self, capsys, args):
        # argparse's own exit status, 2, would read as "inconclusive".
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("usage: rigidity")
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["check", "--seed", "-1"],
        ["disprove", "--target", "lower", "--seed", "-3"],
    ], ids=["check-flag", "disprove-flag"])
    def test_negative_seed(self, barbell_file, capsys, command):
        rc = main([command[0], str(barbell_file), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error:") and "seed" in captured.err
        assert captured.out == ""


class TestFixedVertexRange:
    @pytest.mark.parametrize("command", [
        ["check"], ["orbits"], ["disprove", "--target", "lower"],
    ])
    @pytest.mark.parametrize("spec", ["fix:99", "fix:0,-1", "fix:6"])
    def test_vertex_outside_graph_is_usage_error(self, barbell_file, capsys,
                                                 command, spec):
        rc = main([command[0], str(barbell_file), *command[1:],
                   "--group", spec])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["orbits"], ["check", "--json"], ["batch"]],
                             ids=["orbits", "check", "batch"])
    def test_repeated_vertex_is_fixed_once(self, barbell_file, capsys, command):
        where = barbell_file.parent if command[0] == "batch" else barbell_file
        runs = []
        for spec in ("fix:0", "fix:0,0"):
            rc = main([command[0], str(where), *command[1:], "--group", spec])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[1][1].err == ""

    def test_batch_skips_graphs_the_list_does_not_fit(self, tmp_path, capsys):
        (tmp_path / "barbell.txt").write_text(R.format_edge_list(fx.barbell()))
        (tmp_path / "c5.g6").write_text(R.to_graph6(fx.c5()) + "\n")
        rc = main(["batch", str(tmp_path), "--target", "lower",
                   "--group", "fix:5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "c5.g6: SKIPPED" in out
        assert "barbell.txt LOWER: DISPROVED" in out
        assert "skipped inputs: 1" in out


class TestSharedPipelineSteps:
    @pytest.fixture()
    def budget_exceeded(self, monkeypatch):
        def exceeded(*args, **kwargs):
            raise R.SearchBudgetExceeded("budget")
        monkeypatch.setattr("rigidity.pipeline.automorphism_generators",
                            exceeded)

    @pytest.fixture()
    def ambiguous(self, monkeypatch):
        def ambiguous(*args, **kwargs):
            raise R.AmbiguousCluster("no gap")
        monkeypatch.setattr("rigidity.spectra.cluster_eigenspace", ambiguous)

    def test_orbits_falls_back_to_trivial_group(self, barbell_file, capsys,
                                                budget_exceeded):
        rc = main(["orbits", str(barbell_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "automorphism search budget exceeded; using trivial group" in out
        assert "group order 1" in out

    def test_disprove_searches_on_trivial_group(self, barbell_file, capsys,
                                                budget_exceeded):
        rc = main(["disprove", str(barbell_file), "--target", "lower"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "budget exceeded" in out
        assert "achieved" in out

    @pytest.mark.parametrize("command", [
        ["spectrum"], ["disprove", "--target", "lower"],
    ])
    def test_ambiguous_cluster_is_inconclusive(self, barbell_file, capsys,
                                               ambiguous, command):
        rc = main([command[0], str(barbell_file), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 2
        assert "ambiguous eigenvalue cluster" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["spectrum"], ["disprove", "--target", "lower"],
    ])
    def test_failed_uniform_eigensolve_is_inconclusive(self, barbell_file, capsys,
                                                       monkeypatch, command):
        def fails(*args):
            raise R.ConvergenceFailure("eigensolve failure injected by the test")
        monkeypatch.setattr("rigidity.cli.laplacian_spectrum", fails)
        rc = main([command[0], str(barbell_file), *command[1:]])
        captured = capsys.readouterr()
        assert rc == 2
        assert "eigensolve failed" in captured.out
        assert "Traceback" not in captured.err

    def test_batch_rejects_generator_file(self, tmp_path, capsys):
        (tmp_path / "c5.g6").write_text(R.to_graph6(fx.c5()) + "\n")
        gens = tmp_path / "gens.json"
        gens.write_text("[[0, 1, 2, 3, 4]]")
        rc = main(["batch", str(tmp_path), "--group", f"file:{gens}"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error:")
        assert captured.out == ""


def _subcommand_options() -> dict[str, set[str]]:
    """Subcommand -> the long options its parser takes, --help aside."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def _readme_synopsis() -> dict[str, set[str]]:
    """Subcommand -> the options its synopsis lines in README's CLI block name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    out: dict[str, set[str]] = {}
    for line in block.splitlines():
        options = set(re.findall(r"--[\w-]+", line))
        if line.startswith("rigidity "):
            name = line.split()[1]
            out[name] = options
        elif line.startswith(" "):  # a synopsis continues on indented lines
            out[name] |= options
    return out


class TestReadmeSynopsis:
    @pytest.mark.parametrize("command", sorted(_subcommand_options()))
    def test_synopsis_names_every_option(self, command):
        assert _readme_synopsis().get(command) == _subcommand_options()[command]
