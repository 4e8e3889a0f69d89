import argparse
import errno
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from oddgraceful import cli
from oddgraceful.cli import build_parser, main
from oddgraceful.construction import closed_form_labeling, min_path_length

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """This environment, with ``src`` first on a child's ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv, **kwargs):
    """Run ``python -m oddgraceful`` in a child process, its output captured."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "oddgraceful", *argv],
        text=True,
        env=child_env(),
        timeout=300,
        **kwargs,
    )


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

    @pytest.mark.parametrize("spec, expected", [
        ("C4+P1", "error: C4+P1 is out of range for this construction: need n >= 3"
         " (the bound limits the construction, not odd gracefulness;"
         " generate --force builds it)\n"),
        ("C10+P6", "error: C10+P6 is out of range for this construction: need n >= 7"
         " (the bound limits the construction, not odd gracefulness;"
         " search may still find a labeling)\n"),
    ], ids=["C4+P1", "C10+P6"])
    def test_out_of_range_message(self, capsys, spec, expected):
        assert run(capsys, "generate", "--spec", spec) == (1, "", expected)

    def test_out_of_range_advice_takes_the_spec(self, capsys):
        # every cell below the bound names only commands that accept its spec
        commands = {
            "search may still find": ("search", "--max-nodes", "1"),
            "generate --force builds": ("generate", "--force", "--out", os.devnull),
        }
        for m in range(4, 21, 2):
            for n in range(1, min_path_length(m)):
                spec = f"C{m}+P{n}"
                code, _, err = run(capsys, "generate", "--spec", spec)
                assert code == 1 and "out of range" in err, spec
                named = [argv for advice, argv in commands.items() if advice in err]
                assert len(named) == 1, err
                command, *options = named[0]
                code, _, err = run(capsys, command, "--spec", spec, *options)
                assert code in (0, 1, 2, 3) and not err.startswith("error:"), (spec, err)

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
    def test_in_range_failure_writes_nothing(self, capsys, monkeypatch, tmp_path, out):
        def duplicate(params):
            labeling = closed_form_labeling(params)
            return labeling[:-1] + labeling[:1]  # the last vertex repeats the first label

        monkeypatch.setattr(cli, "closed_form_labeling", duplicate)
        target = tmp_path / "labeling.json"
        argv = ["generate", "--spec", "C8+P7"] + (["--out", str(target)] if out else [])
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err.startswith("verification failed (")
        assert not target.exists()

    def test_force_serializes_and_reports(self, capsys):
        code, out, err = run(capsys, "generate", "--spec", "C10+P6", "--force")
        assert code == 1
        assert "vertex label 8" in err
        document = json.loads(out)
        assert document["graph"] == {"m": 10, "n": 6}

    def test_force_below_the_bound_can_verify(self, capsys, tmp_path):
        # C4+P1 lies below the bound, yet the construction labels it
        code, out, err = run(capsys, "generate", "--spec", "C4+P1")
        assert code == 1
        assert out == ""
        assert "need n >= 3" in err
        code, out, err = run(capsys, "generate", "--spec", "C4+P1", "--force")
        assert (code, err) == (0, "")
        target = tmp_path / "c4p1.json"
        target.write_text(out)
        code, out, _ = run(capsys, "verify", "--input", str(target))
        assert code == 0
        assert out.startswith("odd graceful: yes")

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
        missing = tmp_path / "missing" / "labeling.json"
        code, out, err = run(capsys, "generate", "--spec", "C4+P3", "--out", str(missing))
        assert (code, out) == (64, "")
        assert err.startswith(f"error: cannot write '{missing}': [Errno 2] ")

    @pytest.mark.parametrize("form", ["json", "dot", "csv"])
    def test_failed_writer_leaves_out_file(self, capsys, monkeypatch, tmp_path, form):
        target = tmp_path / f"labeling.{form}"
        target.write_text("old\n")

        def fail(*args):
            raise MemoryError  # as building the name and edge-label tables can
            yield

        monkeypatch.setitem(cli.WRITERS, form, fail)
        argv = ["generate", "--spec", "C8+P7", "--format", form, "--out", str(target)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: input too large: out of memory\n")
        assert target.read_text() == "old\n"


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
        generated = target.read_text()
        cases = (
            (4, 4, ["vertex label 4 shared by"]),  # v1 now collides with v2
            (0, 12, [  # u1's label is out of range
                "  - vertex u1 has label 12 outside [0, 11]\n",
                "  - edge label 1 induced by u1-u2, v2-v3\n",
                "  - edge label 5 induced by u3-u4, u1-u4\n",
                "  - missing odd edge labels: 7, 11\n",
            ]),
        )
        for vertex, label, lines in cases:
            document = json.loads(generated)
            document["vertices"][vertex]["label"] = label
            target.write_text(json.dumps(document))
            code, out, _ = run(capsys, "verify", "--input", str(target))
            assert code == 1
            assert all(line in out for line in lines)

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

    def test_undecodable_byte_in_the_edge_list(self, capsys, tmp_path):
        # past the first reads: the error names the byte's place in the whole file
        target = tmp_path / "labeling.json"
        run(capsys, "generate", "--spec", "C8+P2000", "--out", str(target))
        data = target.read_bytes()
        at = data.rindex(b'"label"')
        target.write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(UnicodeDecodeError) as whole:
            target.read_bytes().decode()
        assert whole.value.start == at > 200_000
        code, out, err = run(capsys, "verify", "--input", str(target))
        assert (code, out) == (64, "")
        assert err == f"error: cannot read {str(target)!r}: {whole.value}\n"

    def test_crlf_copy_verifies_as_generated(self, capsys, tmp_path):
        # a file is read with universal newlines, as read_text reads it
        target, crlf = tmp_path / "labeling.json", tmp_path / "crlf.json"
        run(capsys, "generate", "--spec", "C10+P6", "--force", "--out", str(target))
        crlf.write_bytes(target.read_bytes().replace(b"\n", b"\r\n"))
        for argv in ([], ["--json"]):
            expected = run(capsys, "verify", "--input", str(target), *argv)
            assert expected[0] == 1
            assert run(capsys, "verify", "--input", str(crlf), *argv) == expected

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_pipe_as_input_file(self, capsys, tmp_path):
        # longer than one read: a pipe cannot be read again from its start
        target = tmp_path / "labeling.json"
        run(capsys, "generate", "--spec", "C8+P2000", "--out", str(target))
        result = run_module("verify", "--input", "/dev/stdin", input=target.read_text())
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "odd graceful: yes (2008 vertices, q=2007)\n"

    def test_undecodable_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "verify")
        assert (code, out) == (64, "")
        assert err.startswith("error: cannot read standard input: ")
        assert err.count("\n") == 1

    def test_closed_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert run(capsys, "verify") == (64, "", "error: cannot read standard input: it is closed\n")

    def test_closed_descriptor_0(self):
        result = run_module("verify", preexec_fn=lambda: os.close(0))
        assert (result.returncode, result.stdout) == (64, "")
        assert result.stderr == "error: cannot read standard input: it is closed\n"

    def test_dash_reads_stdin(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "labeling.json"
        run(capsys, "generate", "--spec", "C4+P3", "--out", str(target))
        monkeypatch.setattr(sys, "stdin", io.StringIO(target.read_text()))
        code, out, err = run(capsys, "verify", "--input", "-")
        assert (code, err) == (0, "")
        assert out.startswith("odd graceful: yes")

    def test_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--input", str(tmp_path))
        assert (code, out) == (64, "")
        assert err.startswith(f"error: cannot read {str(tmp_path)!r}: ")
        assert err.count("\n") == 1

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
        code, out, _ = run(capsys, "search", "--spec", "C24+P5", "--max-nodes", "5")
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

    @pytest.mark.parametrize(
        "content, expected_code",
        [
            (b"1 2\n2 3\n3 4\n4 1\n", 0),
            (b"10 30\n30 20\n", 0),
            (b"5 7\n7 5\n7 7\n", 1),
            (b"3 1\n1 3\n2 9\n", 0),
            (b"# nothing\n", 1),
            (b"\xff\xfe{", 64),
            (b"1_0 2\n", 64),
            (b"0 1\n", 64),
            (None, 64),
        ],
        ids=[
            "contiguous", "gappy", "self-loop", "duplicate", "empty", "undecodable",
            "underscore", "zero", "missing",
        ],
    )
    def test_edges_file_is_the_file_term(self, capsys, tmp_path, content, expected_code):
        listing = tmp_path / "graph.txt"
        if content is not None:
            listing.write_bytes(content)
        by_edges = run(capsys, "search", "--edges", str(listing))
        assert by_edges[0] == expected_code
        assert run(capsys, "search", "--spec", f"@{listing}") == by_edges

    def test_edges_file_keeps_its_vertex_numbers(self, capsys, tmp_path):
        listing = tmp_path / "graph.txt"
        listing.write_text("5 7\n7 5\n7 7\n")
        assert run(capsys, "search", "--edges", str(listing)) == (
            1, "", "error: self-loop at vertex 7\n",
        )
        listing.write_text("10 30\n30 20\n")
        code, out, _ = run(capsys, "search", "--spec", f"@{listing}")
        assert code == 0
        assert [line.split(" = ")[0] for line in out.splitlines()[4:]] == ["  w10", "  w20", "  w30"]

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
        code, _, err = run(capsys, "bench", "--q-list", "50", "--reps", "x")
        assert code == 64
        assert "argument --reps: expected an integer, got 'x'" in err

    def test_bad_q_list(self, capsys):
        for q_list, message in (("50,abc", "comma-separated"), (",", "--q-list is empty")):
            code, _, err = run(capsys, "bench", "--q-list", q_list)
            assert code == 64
            assert message in err

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

        result = run_module("generate", "--spec", "C8+P99999999", preexec_fn=cap_address_space)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and "too large" in result.stderr
        assert "Traceback" not in result.stderr

    def test_oversized_search_spec_is_refused_before_it_allocates(self):
        # no memory limit: without the edge cap this spec grows memory until stopped
        result = run_module("search", "--spec", "C999999999999999999")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: input too large: the spec has 999999999999999999 edges,"
            " over the limit of 10000\n"
        )

    def test_index_overflow_is_a_clean_error(self):
        # a path longer than any list can be indexed: OverflowError, not MemoryError
        result = run_module("bench", "--q-list", "10000000000000000000000", "--reps", "1")
        assert result.returncode == 1
        assert result.stderr.startswith("error: input too large")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr


class TestMemory:
    def test_no_second_copy_of_the_document(self, tmp_path):
        # q = 100,000; the document is 13.7 MB. Python 3.10-3.13 peak at
        # 0.41-0.44 times that for generate and 0.31 for verify, mostly the
        # labeling; the bounds leave about 15 %. A writer that kept a name
        # per vertex would exceed them, and a verify that held the text
        # whole would exceed 1.1 times the peak of generate
        target = tmp_path / "labeling.json"
        commands = {
            "generate": (["generate", "--spec", "C8+P99993", "--out", str(target)], 0.5),
            "verify": (["verify", "--input", str(target)], 0.35),
        }
        peaks = {}
        tracemalloc.start()
        try:
            for command, (argv, _) in commands.items():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peaks[command] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        for command, (_, times) in commands.items():
            assert peaks[command] < times * size, (command, peaks[command] / size)
        assert peaks["verify"] <= 1.1 * peaks["generate"], peaks["verify"] / peaks["generate"]

    def test_every_format_takes_the_memory_of_json(self, tmp_path):
        # q = 100,000; DOT and CSV are written in pieces, as the JSON document
        # is, and the algorithmic route keeps no tuple beside its labeling
        peaks = {}
        tracemalloc.start()
        try:
            for form, method in (("json", "closed"), ("csv", "closed"), ("dot", "closed"),
                                 ("json", "algorithmic")):
                argv = ["generate", "--spec", "C8+P99993", "--format", form, "--method", method]
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert main([*argv, "--out", str(tmp_path / f"labeling.{method}.{form}")]) == 0
                peaks[form, method] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        json_peak = peaks["json", "closed"]
        for key, peak in peaks.items():
            assert peak <= 1.1 * json_peak, (key, peak / json_peak)


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 64

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 64


class FullStdout:
    """A standard output (or error) on a full disk: ``write`` or ``flush`` fails."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


COMMANDS = {
    "generate": ["generate", "--spec", "C4+P3"],
    "verify": ["verify", "--input", "DOCUMENT"],
    "search": ["search", "--spec", "C4"],
    "bench": ["bench", "--q-list", "50", "--reps", "1"],
}


def cannot_write(code):
    return f"error: cannot write standard output: [Errno {code}] {os.strerror(code)}\n"


class TestStandardOutput:
    @pytest.fixture(params=list(COMMANDS))
    def argv(self, request, capsys, tmp_path):
        """The command's arguments, with a document written for verify to read."""
        target = tmp_path / "labeling.json"
        run(capsys, "generate", "--spec", "C4+P3", "--out", str(target))
        return [str(target) if arg == "DOCUMENT" else arg for arg in COMMANDS[request.param]]

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failure_is_one_error_line(self, capsys, monkeypatch, argv, failing):
        monkeypatch.setattr(sys, "stdout", FullStdout(failing))
        assert run(capsys, *argv)[::2] == (64, cannot_write(errno.ENOSPC))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, argv):
        with open("/dev/full", "w") as full:
            result = run_module(*argv, stdout=full)
        # nothing more at shutdown: no traceback, no "Exception ignored"
        assert (result.returncode, result.stderr) == (64, cannot_write(errno.ENOSPC))

    def test_broken_pipe(self):
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = run_module("search", "--spec", "C4", stdout=writer)
        finally:
            os.close(writer)
        assert (result.returncode, result.stderr) == (64, cannot_write(errno.EPIPE))

    def test_help(self, capsys):
        assert run(capsys, "--help") == (0, build_parser().format_help(), "")

    def test_help_flush_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", FullStdout("flush"))
        assert run(capsys, "--help")[::2] == (64, cannot_write(errno.ENOSPC))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_full_device(self):
        with open("/dev/full", "w") as full:
            result = run_module("--help", stdout=full)
        assert (result.returncode, result.stderr) == (64, cannot_write(errno.ENOSPC))


class TestStandardError:
    """A standard error that cannot be written loses its lines, not the exit code."""

    def test_spec_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stderr", FullStdout("write"))
        assert run(capsys, "search", "--spec", "C4+x")[:2] == (64, "")

    def test_forced_failing_generate(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stderr", FullStdout("write"))
        target = tmp_path / "labeling.json"
        code, out, _ = run(
            capsys, "generate", "--spec", "C10+P6", "--force", "--out", str(target)
        )
        assert (code, out) == (1, "")
        assert json.loads(target.read_text())["graph"] == {"m": 10, "n": 6}

    def test_bench_fit_lines(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stderr", FullStdout("write"))
        target = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--q-list", "50,100", "--reps", "1", "--out", str(target)
        )
        assert (code, out) == (0, "")
        assert target.read_text().startswith("q,method,nanoseconds\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            result = run_module("search", "--spec", "C4+x", stderr=full)
        assert (result.returncode, result.stdout) == (64, "")


def subcommands(parser):
    (action,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


def options(parser):
    """One record per option: option strings, dest, default, choices,
    required, type name and help. Structural, unlike ``format_help()``,
    whose layout differs between Python versions."""
    return [
        (
            tuple(action.option_strings), action.dest, action.default,
            None if action.choices is None else tuple(action.choices),
            action.required, getattr(action.type, "__name__", None), action.help,
        )
        for action in parser._actions
    ]


HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, None, "show this help message and exit")
SURFACE = {
    "oddgraceful": [
        HELP,
        ((), "command", None, ("generate", "verify", "search", "bench"), True, None, None),
    ],
    "generate": [
        HELP,
        (("--spec",), "spec", None, None, True, None, 'graph spec, e.g. "C8+P12"'),
        (
            ("--method",), "method", "closed", ("closed", "algorithmic"), False, None,
            "construction route (default: closed)",
        ),
        (
            ("--format",), "format", "json", ("json", "dot", "csv"), False, None,
            "output format (default: json)",
        ),
        (
            ("--force",), "force", False, None, False, None,
            "construct even when (m, n) is out of range; the result is still verified",
        ),
        (("--out",), "out", None, None, False, None, "output file (default: stdout)"),
    ],
    "verify": [
        HELP,
        (("--input",), "input", None, None, False, None, "document file (default: stdin)"),
        (("--json",), "json", False, None, False, None, "machine-readable report"),
    ],
    "search": [
        HELP,
        (
            ("--spec",), "spec", None, None, False, None,
            'graph spec, e.g. "C4+P3" (terms join disjointly)',
        ),
        (("--edges",), "edges", None, None, False, None, "edge-list file, one 'a b' pair per line"),
        (("--max-nodes",), "max_nodes", 100_000_000, None, False, "_positive_int", None),
        (("--timeout-ms",), "timeout_ms", None, None, False, "_positive_int", None),
    ],
    "bench": [
        HELP,
        (
            ("--q-list",), "q_list", "1000,10000,100000,1000000", None, False, None,
            "comma-separated edge counts (default: 1000,10000,100000,1000000)",
        ),
        (("--reps",), "reps", 5, None, False, "_positive_int", None),
        (
            ("--m",), "m", 8, None, False, "_positive_int",
            "fixed cycle length; the path length varies with q (default: 8)",
        ),
        (("--out",), "out", None, None, False, None, "output file (default: stdout)"),
    ],
}


class TestStartUp:
    def test_import_loads_no_dataclasses_inspect_or_statistics(self):
        # -S: site imports modules of its own before the package is imported
        probe = (
            "import sys, oddgraceful.cli; "
            "print(sorted({'dataclasses', 'inspect', 'statistics'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, env=child_env(), timeout=300,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "[]\n"


class TestSurface:
    """Every option of the command line, pinned: a change here is a change
    to the interface, not a refactor."""

    def test_options(self):
        parser = build_parser()
        recorded = {"oddgraceful": options(parser)}
        recorded.update((name, options(sub)) for name, sub in subcommands(parser).items())
        assert recorded == SURFACE

    def test_search_needs_exactly_one_source(self):
        groups = {
            name: [
                ([action.dest for action in group._group_actions], group.required)
                for group in sub._mutually_exclusive_groups
            ]
            for name, sub in subcommands(build_parser()).items()
        }
        assert groups == {
            "generate": [], "verify": [], "search": [(["spec", "edges"], True)], "bench": [],
        }
