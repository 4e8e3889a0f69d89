import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from oddgraceful.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_json_output_verifies(self, capsys):
        code, out, err = run(capsys, "generate", "--spec", "C4+P3")
        assert code == 0
        document = json.loads(out)
        assert document["q"] == 6
        assert sorted(edge["label"] for edge in document["edges"]) == [1, 3, 5, 7, 9, 11]

    def test_methods_agree(self, capsys):
        _, closed, _ = run(capsys, "generate", "--spec", "C8+P12", "--method", "closed")
        _, algorithmic, _ = run(
            capsys, "generate", "--spec", "C8+P12", "--method", "algorithmic"
        )
        assert closed == algorithmic

    def test_out_of_range_rejected(self, capsys):
        code, out, err = run(capsys, "generate", "--spec", "C10+P6")
        assert code == 1
        assert out == ""
        assert "need n >= 7" in err

    def test_force_serializes_and_reports(self, capsys):
        code, out, err = run(capsys, "generate", "--spec", "C10+P6", "--force")
        assert code == 1
        assert "vertex label 8" in err
        document = json.loads(out)
        assert document["graph"] == {"m": 10, "n": 6}

    def test_two_cycles_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "C4+C4")
        assert code == 64
        assert "exactly one cycle" in err

    def test_lone_cycle_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "C4")
        assert code == 64

    def test_spec_syntax_error(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "C4+")
        assert code == 64
        assert "offset 3" in err

    def test_odd_cycle_is_invalid_params(self, capsys):
        code, _, err = run(capsys, "generate", "--spec", "C5+P3")
        assert code == 1
        assert "odd" in err

    def test_dot_and_csv_formats(self, capsys):
        code, dot, _ = run(capsys, "generate", "--spec", "C4+P3", "--format", "dot")
        assert code == 0
        assert dot.startswith("graph G {")
        code, csv_text, _ = run(capsys, "generate", "--spec", "C4+P3", "--format", "csv")
        assert code == 0
        assert csv_text.startswith("vertex,label\n")
        assert "edge,from,to,label" in csv_text

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "labeling.json"
        code, out, _ = run(capsys, "generate", "--spec", "C6+P3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["q"] == 8


class TestVerify:
    def test_round_trip(self, capsys, tmp_path):
        target = tmp_path / "labeling.json"
        run(capsys, "generate", "--spec", "C6+P3", "--out", str(target))
        code, out, _ = run(capsys, "verify", "--input", str(target))
        assert code == 0
        assert out.startswith("odd graceful: yes")

    def test_duplicate_label_detected(self, capsys, tmp_path):
        target = tmp_path / "labeling.json"
        run(capsys, "generate", "--spec", "C4+P3", "--out", str(target))
        document = json.loads(target.read_text())
        document["vertices"][4]["label"] = 4  # v1 now collides with v2
        target.write_text(json.dumps(document))
        code, out, _ = run(capsys, "verify", "--input", str(target))
        assert code == 1
        assert "vertex label 4 shared by" in out

    def test_json_report(self, capsys, tmp_path):
        target = tmp_path / "labeling.json"
        run(capsys, "generate", "--spec", "C4+P3", "--out", str(target))
        code, out, _ = run(capsys, "verify", "--input", str(target), "--json")
        assert code == 0
        assert json.loads(out) == {"is_odd_graceful": True, "q": 6, "violations": []}

    def test_truncated_document(self, capsys, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"graph": {"m": 4')
        code, _, err = run(capsys, "verify", "--input", str(target))
        assert code == 64
        assert "invalid JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "--input", "/nonexistent/file.json")
        assert code == 64

    def test_undecodable_file(self, capsys, tmp_path):
        target = tmp_path / "binary.json"
        target.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "verify", "--input", str(target))
        assert code == 64
        assert err.startswith("error: cannot read")

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000],
        ids=["array", "object"],
    )
    def test_deeply_nested_document_is_a_parse_error(self, capsys, tmp_path, text):
        target = tmp_path / "nested.json"
        target.write_text(text)
        code, out, err = run(capsys, "verify", "--input", str(target))
        assert code == 64
        assert out == ""
        assert err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err

    def test_oversized_integer_is_a_parse_error(self, capsys, tmp_path):
        target = tmp_path / "big.json"
        target.write_text('{"graph": {"m": 4, "n": 3}, "q": 1, "x": 1' + "0" * 5000 + "}\n")
        assert run(capsys, "verify", "--input", str(target)) == (
            64, "", "error: invalid JSON: integer too large\n",
        )


class TestSearch:
    def test_c3_exhausts(self, capsys):
        code, out, _ = run(capsys, "search", "--spec", "C3")
        assert code == 2
        assert "status: exhausted-none" in out

    def test_c4_found_with_certificate(self, capsys):
        code, out, _ = run(capsys, "search", "--spec", "C4")
        assert code == 0
        assert "status: found" in out
        assert "w1 = " in out

    def test_union_spec(self, capsys):
        code, out, _ = run(capsys, "search", "--spec", "C4+P3")
        assert code == 0

    def test_budget_exhausted_exit_code(self, capsys):
        code, out, _ = run(capsys, "search", "--spec", "C5", "--max-nodes", "5")
        assert code == 3
        assert "status: budget-exhausted" in out

    def test_timeout_beyond_a_float_is_no_limit(self, capsys):
        code, out, err = run(capsys, "search", "--spec", "C4", "--timeout-ms", "1" + "0" * 400)
        assert (code, err) == (0, "")
        assert out.startswith("status: found\n")

    def test_edges_file(self, capsys, tmp_path):
        listing = tmp_path / "square.txt"
        listing.write_text("1 2\n2 3\n3 4\n4 1\n")
        code, out, _ = run(capsys, "search", "--edges", str(listing))
        assert code == 0

    @pytest.mark.parametrize("line", ["1_0 2", "+3 1", "2 \u0663"])
    def test_edges_file_with_non_decimal_index(self, capsys, tmp_path, line):
        listing = tmp_path / "graph.txt"
        listing.write_text(f"1 2\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "--edges", str(listing))
        assert code == 64
        assert out == ""
        assert "line 2: vertex indices must be integers" in err

    def test_edges_file_with_oversized_index(self, capsys, tmp_path):
        listing = tmp_path / "graph.txt"
        listing.write_text("1 " + "2" * 5000 + "\n")
        assert run(capsys, "search", "--edges", str(listing)) == (
            64, "", "error: line 1: integer too large\n",
        )

    def test_degenerate_cycle_term(self, capsys):
        code, _, err = run(capsys, "search", "--spec", "C2")
        assert code == 1
        assert "degenerate" in err

    def test_requires_a_source(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == 64


class TestBench:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "bench", "--q-list", "50,100", "--reps", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,method,nanoseconds"
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 2 * 2 * 2  # q values x methods x reps
        summaries = [line for line in lines if line.startswith("#")]
        assert len(summaries) == 2
        assert all("slope=" in line for line in summaries)

    def test_unrealizable_q(self, capsys):
        code, _, err = run(capsys, "bench", "--q-list", "5", "--reps", "1")
        assert code == 1
        assert "q >= 14" in err

    def test_zero_reps_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--q-list", "50", "--reps", "0")
        assert code == 64

    def test_bad_q_list(self, capsys):
        code, _, err = run(capsys, "bench", "--q-list", "50,abc")
        assert code == 64
        assert "comma-separated" in err

    def test_out_file_with_stderr_summary(self, capsys, tmp_path):
        target = tmp_path / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--q-list", "50,100", "--reps", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "slope=" in err
        assert target.read_text().startswith("q,method,nanoseconds\n")


class TestOversizedInputs:
    def test_deep_search_ends_in_the_budget(self, capsys):
        # 1,500 vertices: deeper than the default recursion limit of 1,000
        code, out, err = run(capsys, "search", "--spec", "P1500", "--max-nodes", "1500")
        assert code == 3
        assert out.startswith("status: budget-exhausted\n")
        assert err == ""

    def test_out_of_memory_is_a_clean_error(self):
        limit = 400 * 2**20

        def cap_address_space():
            # applies to the child process only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "oddgraceful", "generate", "--spec", "C8+P99999999"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=cap_address_space,
            timeout=300,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and "too large" in result.stderr
        assert "Traceback" not in result.stderr


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 64

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 64
