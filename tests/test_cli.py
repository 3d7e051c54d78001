import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from grouptensor import report
from grouptensor.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info", "S3")
    assert code == 0
    assert "order: 6" in out
    assert "center order: 1" in out
    assert "derived subgroup order: 3" in out
    assert "nilpotency class: none" in out
    assert "subgroup count: 6" in out
    code, out, _ = run_cli(capsys, "info", "A5")
    assert code == 0
    assert "subgroup count: 59" in out


def test_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 needs the pool machinery; the 2-quotient, the report
    # formats and the command line load on first use, as each import compiles
    # its module when no bytecode is cached
    lazy = ["concurrent.futures.process", "grouptensor.pquotient", "grouptensor.report",
            "grouptensor.cli", "dataclasses", "inspect"]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, grouptensor; print([m for m in {lazy!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", (proc.stdout, proc.stderr)


@pytest.mark.parametrize("command", ["info", "tensor", "degree"])
def test_only_verify_takes_max_order(capsys, command):
    # argparse refuses the option before any output; these commands take
    # groups up to order 64
    try:
        code = main([command, "C2xD64", "--max-order", "128"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2 and capsys.readouterr().out == ""


def test_tensor(capsys):
    code, out, _ = run_cli(capsys, "tensor", "D8")
    assert code == 0
    assert "tensor square order: 32" in out
    assert "J2 order: 16" in out
    assert "tensor center order: 1" in out
    assert "tensor class: 3" in out


def test_tensor_stats_go_to_stderr_only(capsys):
    # S3 enumerates nu(S3): 243 cosets defined, at most 180 live, 208 merged
    # away, 36 final
    for spec, stats in [
        ("S3", r"stats: tensor square \d+\.\d{3} s, defined 243, peak live 180, "
               r"coincidences 208, cosets 36\n"),
        ("C2xS3", r"stats: tensor square \d+\.\d{3} s, not enumerated\n"),
        ("D8", r"stats: tensor square \d+\.\d{3} s, not enumerated\n"),
    ]:
        code, plain, err = run_cli(capsys, "tensor", spec)
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, "tensor", spec, "--stats")
        assert code == 0 and out == plain
        assert re.fullmatch(stats, err), err


def test_degree_c4_subgroup(capsys):
    code, out, _ = run_cli(capsys, "degree", "C4", "--subgroup", "a^2", "--n", "2")
    assert code == 0
    assert "= 1/1 (1.000)" in out.splitlines()[-1]


def test_degree_c2(capsys):
    code, out, _ = run_cli(capsys, "degree", "C2", "--n", "1")
    assert code == 0
    assert "= 3/4 (0.750)" in out.splitlines()[-1]


def test_degree_default_subgroup(capsys):
    code, out, _ = run_cli(capsys, "degree", "S3")
    assert code == 0
    assert "d(G) = 1/2 (0.500)" in out
    assert "d_tensor(G) = 5/12 (0.417)" in out


def test_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "degree", "D9")
    assert code == 2 and "dihedral" in err
    code, _, err = run_cli(capsys, "info", "Zq")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "degree", "S3", "--subgroup", "q^2")
    assert code == 2
    code, _, err = run_cli(capsys, "tensor", "S3", "--max-cosets", "10")
    assert code == 2 and "exceeded" in err


def test_max_cosets_below_one_exit_2(capsys):
    # rejected whether the square is enumerated (S3) or not (D8, C2xC4)
    for argv in (("tensor", "D8"), ("degree", "S3"), ("tensor", "C2xC4")):
        code, _, err = run_cli(capsys, *argv, "--max-cosets", "0")
        assert code == 2 and "max_cosets must be at least 1" in err, argv


@pytest.mark.parametrize("option", ["--jobs", "--n-max", "--max-order", "--max-cosets"])
def test_verify_config_bound_below_one_exit_2_before_any_output(capsys, option):
    code, out, err = run_cli(capsys, "verify", option, "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be positive" in err


def test_options_a_command_lacks_exit_2(capsys):
    # tensor keeps no coset table to dump, and info squares no group
    for argv in (("tensor", "S3", "--dump-table"), ("info", "S3", "--max-cosets", "5")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_degree_index_below_one_exit_2_before_any_output(capsys):
    code, out, err = run_cli(capsys, "degree", "S3", "--n", "0")
    assert code == 2 and out == ""
    assert "degree index n must be at least 1" in err


def readme_commands():
    """(argv, exit code) for every grouptensor line of the README's Command
    line block, continuations joined; the code is 0 unless the line's
    comment says ``exit N``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "grouptensor":
            code = re.search(r"#.*\bexit (\d)", line)
            commands.append((argv, int(code.group(1)) if code else 0))
    assert len(commands) >= 7
    return commands


def test_readme_command_lines_parse():
    parser = build_parser()
    for argv, _ in readme_commands():
        parser.parse_args(argv[1:])


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, code in readme_commands():
        assert main(argv[1:]) == code, argv
        capsys.readouterr()


def test_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "grouptensor", "bogus-subcommand"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "grouptensor", "degree", "C4", "--subgroup", "a^2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/1 (1.000)" in proc.stdout


def test_verify_single_example(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys,
        "verify", "--theorems", "ex-3.3", "--max-order", "8", "--out", str(out_path),
    )
    assert code == 0  # flagged records do not fail the run
    doc = json.loads(out_path.read_text())
    flagged = [c for c in doc["checks"] if c.get("note") == "paper-example-discrepancy"]
    assert len(flagged) == 1
    assert flagged[0]["rhs"] == "3/32"
    assert flagged[0]["witness"]["reference"] == "192/2048"
    assert "flagged: 1" in err


def test_verify_finds_violations_exit_1(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys,
        "verify", "--theorems", "thm-2.3", "--max-order", "4", "--out", str(out_path),
    )
    assert code == 1  # the n = 1 base case genuinely fails on small cyclic groups
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["fail"] > 0


def test_verify_clean_subset_exit_0(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify", "--theorems", "thm-2.2,thm-quot,lem-2.1", "--max-order", "8",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["fail"] == 0


def test_verify_corpus_file_and_formats(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C4\nS3  # with a comment\n")
    out_csv = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "verify", "--corpus", str(corpus), "--theorems", "thm-2.2",
        "--format", "csv", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("id,group")
    assert all(line.split(",")[1] in ("C4", "S3") for line in lines[1:])

    out_table = tmp_path / "report.txt"
    code, _, _ = run_cli(
        capsys,
        "verify", "--corpus", str(corpus), "--theorems", "thm-2.2",
        "--format", "table", "--out", str(out_table),
    )
    assert code == 0
    assert "verdict" in out_table.read_text()


def test_verify_refuses_a_repeated_corpus_spec(tmp_path, capsys):
    # each of S3's records would be written twice
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("S3\n# a comment\nC4\nS3  # again\n")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus), "--theorems", "thm-1.3")
    assert code == 2 and out == ""
    assert "'S3' on line 4 repeats line 1" in err


def test_verify_bad_theorem_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorems", "thm-0.0")
    assert code == 2
    assert "unknown check id" in err


def test_verify_jobs_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--theorems", "ex-3.1,ex-3.2,thm-1.2", "--max-order", "8"]
    assert run_cli(capsys, *args, "--jobs", "1", "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--jobs", "8", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    ("max_order", "fmt", "pinned"),
    [
        (24, "json", "0039a9e302c7b844fab08832d2f2dc7b255fabd7485535534c248aa50d3fdeee"),
        (8, "csv", "51fe464c491c907faed7013ef1fc9292053fe17f8850c1cb0c3626bb49b435ce"),
        (8, "table", "1e60c7552e694e1de0ed538fc18310ccbfca5d12b9e2c8b7841c88a39df97fb8"),
    ],
    ids=["json-24", "csv-8", "table-8"],
)
def test_verify_writes_the_pinned_report_in_batches(
    tmp_path, capsys, monkeypatch, max_order, fmt, pinned
):
    # a JSON batch far below the report's 56,826 pieces
    monkeypatch.setattr(report, "BATCH", 1000)
    writes = []
    writer = report.WRITERS[fmt]

    def counted(rep, write):
        def counting(text):
            writes.append(text)
            return write(text)

        writer(rep, counting)

    monkeypatch.setitem(report.WRITERS, fmt, counted)
    out_path = tmp_path / "report"
    args = ["verify", "--max-order", str(max_order), "--format", fmt]
    for out in (["--out", str(out_path)], []):
        writes.clear()
        code, stdout, _ = run_cli(capsys, *args, *out)
        assert code == 1
        data = out_path.read_bytes() if out else stdout.encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == pinned
        assert len(writes) > 1 and "".join(writes).encode("utf-8") == data


ORDER_64_CORPUS = (
    "S3xS3", "D64", "D40", "C2xD32", "A5", "Q8xC2xC4", "D48", "D8xD8", "E2^5", "S4",
)


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2])
def test_order_64_corpus_report_is_pinned(capsys, tmp_path, jobs):
    # 71,175 records, a few seconds; D64 and C2xD32 have no pin of their own
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(ORDER_64_CORPUS) + "\n", encoding="utf-8")
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--max-order", "64",
                         "--jobs", str(jobs), "--out", str(out_path))
    assert code == 1
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "be7fb11f5ba7a7cb44d5bb65902966f7a70ea6de0889896b2e4027a03a7795af"
    )


@pytest.mark.slow
def test_verify_writes_the_largest_report_in_bounded_memory(tmp_path):
    # E2^6 gives 515,262 records, about 270 MB of JSON; evaluation alone peaks
    # near 260 MB, and the batched writes add little to that.  One child
    # process, which reports its own peak resident memory (KiB on Linux).
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("E2^6\n", encoding="utf-8")
    out_path = tmp_path / "report.json"
    script = (
        "import resource, sys\n"
        "from grouptensor.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--corpus", str(corpus),
         "--max-order", "64", "--out", str(out_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 1, proc.stderr
    peak_mb = int(proc.stderr.splitlines()[-1]) / 1024
    digest = hashlib.sha256()
    with open(out_path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    assert digest.hexdigest() == "7509464d071328c746640d9c9e69091e6499d8c57e7dc887272e6126be89f5c3"
    assert peak_mb < 400, peak_mb
