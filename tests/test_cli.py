import ast
import codecs
import contextlib
import csv
import functools
import gc
import io
import itertools
import json
import operator
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spideradapt
import spideradapt.cli
from spideradapt.cli import _summaries, main
from spideradapt.domain import INITIAL_KINDS, MAX_VALUES
from spideradapt.grid import (
    RESULT_COLUMNS,
    GridConfig,
    ResultsFileError,
    RunRecord,
    comparisons_to_csv,
    mark_significance,
    results_from_csv,
    results_to_csv,
    run_grid,
    summarize,
    summary_to_csv,
    summary_to_markdown,
)
from spideradapt.policies import POLICY_NAMES, SLOTS_PER_ITERATION, GAConfig, RLConfig
from spideradapt.subjects import (
    SubjectPopulation,
    VirtualSubject,
    _weighted,
    generate_population,
    load_population,
    save_population,
    scale_coefficient,
)
from tests.reference import reference_grid, reference_report, reference_results_from_csv
from tests.test_grid import _subset


@pytest.fixture()
def subjects_file(tmp_path):
    path = tmp_path / "subjects.json"
    assert main(["gen-subjects", "--n", "5", "--seed", "7", "--out", str(path)]) == 0
    return path


def _run_results(tmp_path, subjects_file, extra=()):
    out = tmp_path / "results.csv"
    code = main(
        [
            "run",
            "--subjects", str(subjects_file),
            "--out", str(out),
            "--seed", "3",
            "--methods", "random,greedy",
            "--targets", "1,5",
            "--initials", "min",
            "--repeats", "2",
            *extra,
        ]
    )
    assert code == 0
    return out


def test_gen_subjects_deterministic_and_digested(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen-subjects", "--n", "4", "--seed", "11", "--out", str(a)]) == 0
    out_a = capsys.readouterr().out
    assert main(["gen-subjects", "--n", "4", "--seed", "11", "--out", str(b)]) == 0
    out_b = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    digest_a = next(line for line in out_a.splitlines() if line.startswith("sha256="))
    digest_b = next(line for line in out_b.splitlines() if line.startswith("sha256="))
    assert digest_a == digest_b


def test_gen_subjects_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["gen-subjects", "--n", "4", "--out", str(tmp_path / "x.json")])
    assert err.value.code == 1


def test_gen_subjects_rejects_zero(tmp_path, capsys):
    code = main(["gen-subjects", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_gen_subjects_names_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen-subjects", "--n", "4", "--seed", "-1", "--out", str(out)]) == 1
    assert "population seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_run_row_counts(tmp_path, subjects_file):
    out = _run_results(tmp_path, subjects_file)
    lines = out.read_text().splitlines()
    # 2 methods x 1 initial x 2 targets x 5 subjects x 2 repeats
    assert len(lines) == 1 + 2 * 1 * 2 * 5 * 2


def test_run_requires_seed(tmp_path, subjects_file, capsys):
    code = main(
        ["run", "--subjects", str(subjects_file), "--out", str(tmp_path / "r.csv")]
    )
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_run_rejects_unknown_method(tmp_path, subjects_file, capsys):
    code = main(
        [
            "run",
            "--subjects", str(subjects_file),
            "--out", str(tmp_path / "r.csv"),
            "--seed", "1",
            "--methods", "mcts",
        ]
    )
    assert code == 1
    # a bad value given as a flag is a usage error, even where the config's is a data error
    code = main(
        ["run", "--subjects", str(subjects_file), "--out", str(tmp_path / "r.csv"), "--seed", "1", "--targets", "0"]
    )
    assert code == 1


def test_run_missing_subjects_is_data_error(tmp_path, capsys):
    code = main(
        ["run", "--subjects", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.csv"), "--seed", "1"]
    )
    assert code == 2


def test_run_checks_out_before_any_session(tmp_path, subjects_file, capsys):
    # a missing directory, and a directory where the file belongs
    for out in (tmp_path / "missing" / "r.csv", tmp_path):
        code = main(["run", "--subjects", str(subjects_file), "--out", str(out), "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "progress:" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["subjects.json"]


def test_a_stopped_run_keeps_the_old_results(tmp_path, subjects_file, monkeypatch):
    results = _run_results(tmp_path, subjects_file)
    old = results.read_bytes()

    def interrupted(cfg, progress=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(spideradapt.cli, "run_grid", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run_results(tmp_path, subjects_file)
    assert results.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv", "subjects.json"]


def _read_in_background(open_reader):
    """A started daemon thread that reads the stream ``open_reader()`` opens to its end, and the list it appends to."""
    received = []

    def read():
        with open_reader() as reader:
            received.append(reader.read())

    thread = threading.Thread(target=read, daemon=True)  # a run that never opens the stream leaves it waiting
    thread.start()
    return thread, received


def test_run_writes_into_a_fifo_in_place(tmp_path, subjects_file):
    expected = _run_results(tmp_path, subjects_file).read_bytes()
    (tmp_path / "fifo").mkdir()
    fifo = tmp_path / "fifo" / "results.csv"
    os.mkfifo(fifo)
    thread, received = _read_in_background(lambda: open(fifo, "rb"))
    _run_results(tmp_path / "fifo", subjects_file)
    thread.join(timeout=60)
    assert received == [expected]
    # nothing was renamed over the FIFO, and no part file was left beside it
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path / "fifo") == ["results.csv"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs a path for each open file descriptor")
def test_run_writes_into_a_pipe_by_its_descriptor_path(tmp_path, subjects_file):
    # as `run --out /dev/stdout` does when standard output is a pipe; the path resolves to no file
    expected = _run_results(tmp_path, subjects_file).read_bytes()
    read_end, write_end = os.pipe()
    thread, received = _read_in_background(lambda: os.fdopen(read_end, "rb"))
    try:
        _run_results(tmp_path, subjects_file, ("--out", f"/proc/self/fd/{write_end}"))  # the last --out counts
    finally:
        os.close(write_end)
    thread.join(timeout=60)
    assert received == [expected]


def test_run_reproducible_bytes(tmp_path, subjects_file):
    a = _run_results(tmp_path / "a" if (tmp_path / "a").mkdir() is None else tmp_path, subjects_file)
    first = a.read_bytes()
    b = _run_results(tmp_path, subjects_file)
    assert b.read_bytes() == first


def test_run_worker_flag_does_not_change_bytes(tmp_path, subjects_file):
    a = _run_results(tmp_path, subjects_file)
    first = a.read_bytes()
    out2 = tmp_path / "results2.csv"
    code = main(
        [
            "run",
            "--subjects", str(subjects_file),
            "--out", str(out2),
            "--seed", "3",
            "--methods", "random,greedy",
            "--targets", "1,5",
            "--initials", "min",
            "--repeats", "2",
            "--workers", "2",
        ]
    )
    assert code == 0
    assert out2.read_bytes() == first


def test_run_with_config_file(tmp_path, subjects_file):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "master_seed": 3,
                "methods": ["random"],
                "targets": [1],
                "initial_kinds": ["min"],
                "repeats": 1,
                "rl": {"epsilon": 0.1},
                "ga": {"mutation_prob": 0.2},
            }
        )
    )
    out = tmp_path / "from_config.csv"
    code = main(["run", "--subjects", str(subjects_file), "--out", str(out), "--config", str(config)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 5


def test_run_config_rejects_unknown_keys(tmp_path, subjects_file, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"master_seed": 3, "rl": {"eps": 0.1}}))
    code = main(
        ["run", "--subjects", str(subjects_file), "--out", str(tmp_path / "o.csv"), "--config", str(config)]
    )
    assert code == 2
    for text in (b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{"):  # too deep to parse; not UTF-8
        config.write_bytes(text)
        code = main(
            ["run", "--subjects", str(subjects_file), "--out", str(tmp_path / "o.csv"), "--config", str(config)]
        )
        assert code == 2


@pytest.mark.parametrize(
    "config",
    [
        {"rl": {"epsilon": "0.1"}},
        {"rounded_reward": "false"},
        {"rl": {"init_mode": "random"}},
        {"iteration_cap": None},
        {"master_seed": [1]},
        {"targets": ["1"]},
        {"targets": [1.5]},
        {"targets": 5},
        {"repeats": "2"},
        {"repeats": 2.7},
        {"master_seed": 1.5},
        {"workers": "2"},
        {"repeat": 5},
        {"methods": "ga"},
        {"targets": [0]},
        {"rl": {"epsilon": 2.0}},
        {"ga": {"pairs_per_generation": 2}},
        {"ga": {"children_per_pair": 2}},
        {"ga": {"early_stop_within_batch": False}},
        {"rl": {"persist_across_runs": True}},
    ],
)
def test_run_config_rejects_mistyped_and_removed_keys(tmp_path, subjects_file, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"master_seed": 3, **config}))
    code = main(
        ["run", "--subjects", str(subjects_file), "--out", str(tmp_path / "o.csv"), "--config", str(path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"The accepted top-level keys are (.*?), e\.g\.:\s*```json\n(.*?)```", readme, re.S)
    keys, example = sentence.groups()
    assert set(re.findall(r"`(\w+)`", keys)) == {f.name for f in fields(GridConfig)} - {"population"}
    example = json.loads(example)
    assert set(example["rl"]) == {f.name for f in fields(RLConfig)}
    assert set(example["ga"]) == {f.name for f in fields(GAConfig)}


def test_readme_pins_the_slot_table_and_the_results_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"\| Method \| k \|.*\n\|---.*\n((?:\|.*\n)+)", readme)
    slots = {}
    for row in table.group(1).splitlines():
        methods, k = row.split("|")[1:3]
        slots.update((m, int(k)) for m in re.findall(r"`(\w+)`", methods))
    assert slots == SLOTS_PER_ITERATION
    header = re.search(r"## Results CSV\n.*?```\n(.*?)\n```", readme, re.S).group(1)
    assert tuple(header.split(",")) == RESULT_COLUMNS


def test_readme_library_examples_import_public_names_and_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "spideradapt":
                assert [a.name for a in node.names if not hasattr(spideradapt, a.name)] == []
    # the first example runs the 135,000-run default grid, so only its imports are checked
    exec(blocks[1], {"population": generate_population(1, seed=4242)})
    assert re.fullmatch(r"\((\d, ){5}\d\)\n", capsys.readouterr().out)


def test_summarize_markdown_and_csv(tmp_path, subjects_file, capsys):
    results = _run_results(tmp_path, subjects_file)
    assert main(["summarize", "--results", str(results)]) == 0
    md = capsys.readouterr().out
    assert "| Initial | Stress | Metric |" in md
    assert main(["summarize", "--results", str(results), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("initial_kind,stress_category,method")

    out = tmp_path / "summary.md"
    assert main(["summarize", "--results", str(results), "--out", str(out)]) == 0
    assert out.read_text().startswith("| Initial |")
    # a standard output of text alone, with no .buffer for the bytes, gets the file's text
    with contextlib.redirect_stdout(io.StringIO()) as text_only:
        assert main(["summarize", "--results", str(results)]) == 0
    assert text_only.getvalue() == out.read_text(encoding="utf-8")
    with pytest.raises(SystemExit) as err:  # the summary always pools; the flag is gone
        main(["summarize", "--results", str(results), "--aggregation", "pooled"])
    assert err.value.code == 1


def test_summarize_and_compare_warn_about_incomplete_grids(tmp_path, subjects_file, capsys):
    results = _run_results(tmp_path, subjects_file)
    lines = results.read_text().splitlines()
    single = tmp_path / "greedy.csv"  # a complete grid of one method
    single.write_text("\n".join(line for line in lines if not line.startswith("random,")) + "\n")
    capsys.readouterr()
    for complete in (results, single):
        for command in ("summarize", "compare"):
            assert main([command, "--results", str(complete)]) == 0
            assert capsys.readouterr().err == ""
    results.write_text("\n".join(lines[:5] + lines[6:]) + "\n")  # one run fewer
    for command in ("summarize", "compare"):
        assert main([command, "--results", str(results)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert f"{len(lines) - 2} of {len(lines) - 1} runs" in err


def test_incomplete_grid_warning_counts_runs_across_blocks(tmp_path, capsys, monkeypatch):
    # with two rows a block, each block below is a complete grid of its own
    rows = ["random,min,1,0,0,true,3,1", "random,min,1,1,0,true,3,1",
            "greedy,min,2,0,0,true,3,1", "greedy,min,2,1,0,false,3,1"]
    rest = ["random,min,2,0,0,true,3,1", "random,min,2,1,0,true,3,1",
            "greedy,min,1,0,0,true,3,1", "greedy,min,1,1,0,false,3,1"]
    monkeypatch.setattr(spideradapt.grid, "_BLOCK_ROWS", 2)
    results = tmp_path / "results.csv"
    header = ",".join(RESULT_COLUMNS) + "\n"
    for lines, err in ((rows, f"warning: {results} is an incomplete grid: 4 of 8 runs\n"), (rows + rest, "")):
        results.write_text(header + "\n".join(lines) + "\n")
        for command in ("summarize", "compare"):
            assert main([command, "--results", str(results)]) == 0
            assert capsys.readouterr().err == err


def test_summarize_and_compare_build_no_records(tmp_path, subjects_file, capsys, monkeypatch):
    # 810 runs: several blocks of the parse and every stress category
    results = _run_results(tmp_path, subjects_file, ("--targets", "1,2,3,4,5,6,7,8,9", "--initials", "min,avg,max",
                                                     "--repeats", "3"))
    text = results.read_text()
    records = results_from_csv(text)
    summaries = summarize(records)
    comparisons = mark_significance(records, summaries)
    expected = {
        "csv": summary_to_csv(summaries, comparisons),
        "markdown": summary_to_markdown(summaries, comparisons),
        "compare": comparisons_to_csv(comparisons),
    }
    lines = text.splitlines(keepends=True)
    bad_texts = {  # a bad row in the middle of the file, and a repeated run at its end
        "middle": "".join(lines[:400] + [lines[400].replace("true", "maybe").replace("false", "maybe")] + lines[401:]),
        "end": text + lines[1],
    }
    messages = {}
    for name, bad in bad_texts.items():
        with pytest.raises(ResultsFileError) as err:
            results_from_csv(bad)
        messages[name] = str(err.value)

    def refuse(*args, **kwargs):
        raise AssertionError("a RunRecord was built")

    monkeypatch.setattr(RunRecord, "__init__", refuse)
    with pytest.raises(AssertionError, match="RunRecord was built"):
        results_from_csv(text)
    capsys.readouterr()
    for fmt in ("csv", "markdown"):
        assert main(["summarize", "--results", str(results), "--format", fmt]) == 0
        assert capsys.readouterr().out == expected[fmt]
    assert main(["compare", "--results", str(results)]) == 0
    assert capsys.readouterr().out == expected["compare"]
    for name, bad in bad_texts.items():
        results.write_text(bad)
        for command in ("summarize", "compare"):
            assert main([command, "--results", str(results)]) == 2
            assert capsys.readouterr().err == f"error: {messages[name]}\n"


def test_summarize_empty_results_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "method,initial_kind,target,subject_id,repeat,success,spiders_presented,iterations_used\n"
    )
    assert main(["summarize", "--results", str(empty)]) == 2
    bogus = tmp_path / "bogus.csv"
    bogus.write_text(empty.read_text() + "bogus,min,1,0,0,true,3,1\n")
    assert main(["summarize", "--results", str(bogus)]) == 2
    # a file `run` was stopped in before it wrote the header: no bytes, or only a byte order mark
    for data in (b"", codecs.BOM_UTF8):
        empty.write_bytes(data)
        for command in ("summarize", "compare"):
            capsys.readouterr()
            assert main([command, "--results", str(empty)]) == 2
            assert capsys.readouterr().err == "error: results CSV contains no runs\n"


def test_summarize_missing_columns_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("method,target\nrandom,1\n")
    assert main(["summarize", "--results", str(bad)]) == 2
    bad.write_bytes(b"\xff\xfe")  # not UTF-8
    assert main(["summarize", "--results", str(bad)]) == 2


def test_malformed_quoting_is_a_data_error(tmp_path, capsys):
    header = ",".join(RESULT_COLUMNS) + ",note\n"
    results = tmp_path / "results.csv"
    for rows, error in (
        # an unclosed quote in the extra column would swallow both later rows: one run, and 100% accuracy
        ('random,min,1,0,0,true,3,1,"oops\nrandom,min,1,1,0,true,3,1,\nrandom,min,1,2,0,false,4,2,\n',
         "at line 4: unexpected end of data"),
        # text after a closing quote would be joined to the field: subject 3
        ('random,min,1,0,0,true,3,1,\nrandom,min,1,"0"3,0,true,3,1,\n', "at line 3: ',' expected after '\"'"),
    ):
        results.write_text(header + rows)
        for command in ("summarize", "compare"):
            assert main([command, "--results", str(results)]) == 2
            assert capsys.readouterr().err == f"error: malformed results CSV {error}\n"


@pytest.mark.parametrize("collecting", [True, False])
def test_a_missing_results_file_is_a_data_error(tmp_path, capsys, collecting):
    missing = tmp_path / "missing.csv"
    if not collecting:
        gc.disable()
    try:
        for command in ("summarize", "compare"):
            assert main([command, "--results", str(missing)]) == 2
            assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
            assert gc.isenabled() is collecting  # the failed read leaves the collector as the caller set it
    finally:
        gc.enable()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("window", [64, 1 << 14])
def test_an_undecodable_byte_is_refused_at_its_line(tmp_path, subjects_file, capsys, monkeypatch, end, window):
    # 810 runs: the bad byte sits in the middle of the file and of a block of the parse
    results = _run_results(tmp_path, subjects_file, ("--targets", "1,2,3,4,5,6,7,8,9", "--initials", "min,avg,max",
                                                     "--repeats", "3"))
    lines = results.read_bytes().split(b"\n")
    monkeypatch.setattr(spideradapt.grid, "_WINDOW_BYTES", window)
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    for line, broken, fault in (
        (1, b"meth\xc3od", "byte 0xc3 in position 4: invalid continuation byte"),
        (811, b"greedy\xe2\x80", "bytes in position 6-7: invalid continuation byte"),  # the last row
        (500, b"rand\xffom", "byte 0xff in position 4: invalid start byte"),
    ):
        data = lines[:]
        data[line - 1] = broken + lines[line - 1][lines[line - 1].index(b","):]  # in place of the method
        bad.write_bytes(end.encode().join(data))
        for command in ("summarize", "compare"):
            assert main([command, "--results", str(bad)]) == 2
            assert capsys.readouterr().err == (
                f"error: malformed results CSV at line {line}: 'utf-8' codec can't decode {fault}\n"
            )
    # a row that breaks a rule before the bad byte, in its block of 256 rows, is named first
    data[400] = data[400].replace(b"true", b"maybe").replace(b"false", b"maybe")
    bad.write_bytes(end.encode().join(data))
    assert main(["summarize", "--results", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: malformed results CSV at line 401: success must be true or false, got 'maybe'\n"
    )


def test_a_results_pipe_reads_as_its_file(tmp_path, subjects_file, capsys):
    # a pipe can be read only once, and these files are read again: one leaves run's order after its first
    # block, so the rows before are read into a set of runs, another repeats a run, so it is read one row a
    # block, and the last holds a byte that is not UTF-8, which is named at its line
    results = _run_results(tmp_path, subjects_file, ("--targets", "1,2,3,4,5,6,7,8,9", "--initials", "min,avg,max"))
    header, *rows = results.read_bytes().splitlines(keepends=True)
    src = str(Path(spideradapt.__file__).resolve().parent.parent)
    for data in (header + b"".join(rows[:300] + rows[:299:-1]), header + b"".join(rows) + rows[0],
                 header + b"".join(rows[:400] + [b"\xff" + rows[400]] + rows[401:])):
        results.write_bytes(data)
        capsys.readouterr()
        code = main(["compare", "--results", str(results)])
        expected = capsys.readouterr()
        piped = subprocess.run([sys.executable, "-m", "spideradapt", "compare", "--results", "/dev/stdin"],
                               input=data, capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) == (code, expected.out, expected.err)
    assert expected.err == (
        "error: malformed results CSV at line 402: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_summaries_hold_neither_the_file_nor_its_runs(tmp_path):
    # 27,000 runs in the order run writes them
    coords = itertools.product(POLICY_NAMES, INITIAL_KINDS, range(1, 10), range(20), range(10))
    path = tmp_path / "results.csv"
    path.write_text(",".join(RESULT_COLUMNS) + "\n" + "".join(
        f"{m},{k},{t},{s},{r},{'true' if (s + r) % 4 else 'false'},{(7 * s + r) % 40 + 1},{r + 1}\n"
        for m, k, t, s, r in coords
    ))
    tracemalloc.start()
    try:
        _summaries(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text alone is 0.75 MB, and a set of the runs would take about 3 MB more
    assert peak < 1_000_000 < path.stat().st_size + 3_000_000


def test_results_file_may_start_with_a_bom(tmp_path, subjects_file, capsys):
    # some editors write a UTF-8 byte order mark before the header
    results = _run_results(tmp_path, subjects_file)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + results.read_bytes())
    capsys.readouterr()
    for command in ("summarize", "compare"):
        assert main([command, "--results", str(results)]) == 0
        expected = capsys.readouterr()
        assert main([command, "--results", str(bom)]) == 0
        assert capsys.readouterr() == expected


def test_subjects_file_may_start_with_a_bom(tmp_path, subjects_file, capsys):
    (tmp_path / "bom").mkdir()
    bom = tmp_path / "bom" / "subjects.json"
    bom.write_bytes(codecs.BOM_UTF8 + subjects_file.read_bytes())
    assert load_population(bom) == load_population(subjects_file)
    assert _run_results(tmp_path / "bom", bom).read_bytes() == _run_results(tmp_path, subjects_file).read_bytes()
    oracle = ["oracle", "--subject-id", "2", "--target", "5", "--initial", "avg"]
    capsys.readouterr()
    assert main([*oracle, "--subjects", str(subjects_file)]) == 0
    expected = capsys.readouterr()
    assert main([*oracle, "--subjects", str(bom)]) == 0
    assert capsys.readouterr() == expected


def test_config_file_may_start_with_a_bom(tmp_path, subjects_file):
    config = {"master_seed": 3, "methods": ["greedy"], "targets": [1], "initial_kinds": ["min"], "repeats": 1}
    results = []
    for prefix in (b"", codecs.BOM_UTF8):
        path, out = tmp_path / "config.json", tmp_path / f"r{len(results)}.csv"
        path.write_bytes(prefix + json.dumps(config).encode())
        assert main(["run", "--subjects", str(subjects_file), "--config", str(path), "--out", str(out)]) == 0
        results.append(out.read_bytes())
    assert results[0] == results[1] and len(results[0].splitlines()) == 1 + 5


def test_data_errors_name_their_file(tmp_path, subjects_file, capsys):
    config, subjects = tmp_path / "config.json", tmp_path / "bad.json"
    run = ["run", "--out", str(tmp_path / "r.csv"), "--seed", "1"]
    for text in ('{"rl": {"epsilon": "0.1"}}', '{"targets": [0]}', "not json"):
        config.write_text(text)
        assert main([*run, "--subjects", str(subjects_file), "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {config}: ")
    for text in ('{"seed": 1, "subjects": []}', '{"seed": true, "subjects": []}', "not json"):
        subjects.write_text(text)
        assert main([*run, "--subjects", str(subjects)]) == 2
        assert capsys.readouterr().err.startswith(f"error: subjects file {subjects}: ")


_PROGRESS = re.compile(r"progress: (\d+)/(\d+) runs \((\d+)%\), (\d+) runs/s, eta (\d+)s")


def test_run_progress_reports_runs_rate_and_eta(tmp_path, subjects_file, capsys):
    out = tmp_path / "results.csv"
    argv = ["run", "--subjects", str(subjects_file), "--out", str(out), "--seed", "3",
            "--methods", "random,greedy", "--targets", "1,2,3,4,5", "--repeats", "2"]
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "running 300 sessions (2 methods x 5 subjects x 3 initials x 5 targets x 2 repeats)"
    lines = [_PROGRESS.fullmatch(line) for line in err[1:]]
    assert lines and all(lines)
    done, total, percent, rate, eta = zip(*[[int(g) for g in m.groups()] for m in lines])
    # progress comes after each subject, a fifth of the runs here, so each
    # subject completes a new tenth and gets one line, counted in runs
    assert percent == (20, 40, 60, 80, 100)
    assert done == (60, 120, 180, 240, 300)
    assert list(done) == sorted(set(done))
    assert set(total) == {300} and done[-1] == 300 and eta[-1] == 0
    assert all(r > 0 for r in rate)
    # progress goes to stderr only: the results are the grid's bytes
    cfg = GridConfig(load_population(subjects_file), master_seed=3, methods=("random", "greedy"),
                     targets=(1, 2, 3, 4, 5), repeats=2)
    assert out.read_text() == results_to_csv(run_grid(cfg))


def test_python_dash_m_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(spideradapt.__file__).resolve().parent.parent)}

    def run(*flags):
        return subprocess.run([sys.executable, "-m", "spideradapt", *flags], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0 and "gen-subjects" in shown.stdout
    assert run("run", "--bogus-flag").returncode == 1


def test_out_files_are_utf8_in_any_locale(tmp_path, subjects_file):
    results = _run_results(tmp_path, subjects_file)
    src = str(Path(spideradapt.__file__).resolve().parent.parent)
    written = {}
    for name, locale in (("utf-8", {"PYTHONUTF8": "1"}),
                         ("C", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})):
        out = tmp_path / f"summary-{name}.md"
        proc = subprocess.run(
            [sys.executable, "-m", "spideradapt", "summarize", "--results", str(results), "--format", "markdown",
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, **locale}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        written[name] = out.read_bytes()
    assert "±".encode() in written["utf-8"]
    assert written["C"] == written["utf-8"]


def test_reports_on_standard_output_are_utf8_in_any_locale(tmp_path, subjects_file):
    results = _run_results(tmp_path, subjects_file)
    src = str(Path(spideradapt.__file__).resolve().parent.parent)
    printed = {}
    for argv in (("summarize", "--format", "markdown"), ("summarize", "--format", "csv"), ("compare",)):
        out = tmp_path / "report"
        assert main([*argv, "--results", str(results), "--out", str(out)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "spideradapt", *argv, "--results", str(results)], capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        printed[argv] = proc.stdout
        assert printed[argv] == out.read_bytes()  # the bytes of the --out file
    assert "±".encode() in printed["summarize", "--format", "markdown"]


def test_compare_outputs_pvalues(tmp_path, subjects_file, capsys):
    results = _run_results(tmp_path, subjects_file)
    capsys.readouterr()  # drop the run command's progress output
    assert main(["compare", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "initial_kind,stress_category,best_method,method,p_value,marker"
    assert len(out.splitlines()) > 1


def test_oracle_report(subjects_file, capsys):
    code = main(
        ["oracle", "--subjects", str(subjects_file), "--subject-id", "0", "--target", "1", "--initial", "min"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "success states:" in out
    assert "bfs distance" in out


def test_oracle_reports_an_empty_success_band(tmp_path, capsys):
    # one dominant weight leaves no state whose stress rounds to 1
    weights = (2.0, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6)
    path = tmp_path / "subjects.json"
    save_population(SubjectPopulation(0, (VirtualSubject(0, weights, scale_coefficient(weights)),)), path)
    assert load_population(path).subjects[0].weights == weights
    assert main(["oracle", "--subjects", str(path), "--subject-id", "0", "--target", "1"]) == 0
    out = capsys.readouterr().out
    assert "success states: 0 of 486\n" in out
    assert "bfs distance: unreachable (empty success set)\n" in out


def test_oracle_validates_ids(subjects_file, capsys):
    assert main(["oracle", "--subjects", str(subjects_file), "--subject-id", "99", "--target", "1"]) == 2
    assert main(["oracle", "--subjects", str(subjects_file), "--subject-id", "-1", "--target", "1"]) == 1
    assert main(["oracle", "--subjects", str(subjects_file), "--subject-id", "0", "--target", "12"]) == 1
    for target in ("0", "10"):
        assert main(["oracle", "--subjects", str(subjects_file), "--subject-id", "0", "--target", target]) == 1


@pytest.mark.parametrize("weight, coefficient", [("NaN", "NaN"), ("Infinity", "0")])
def test_non_finite_subjects_are_data_errors(tmp_path, capsys, weight, coefficient):
    path = tmp_path / "subjects.json"
    path.write_text(
        f'{{"seed": 1, "subjects": [{{"id": 0, "weights": [{weight}, 1, 1, 1, 1, 1], "coefficient": {coefficient}}}]}}'
    )
    common = ["--subjects", str(path)]
    target = ["--subject-id", "0", "--target", "1", "--initial", "min"]
    for argv in (
        ["run", *common, "--out", str(tmp_path / "r.csv"), "--seed", "1", "--repeats", "1"],
        ["oracle", *common, *target],
        ["trace", *common, *target, "--method", "greedy", "--seed", "1", "--out", str(tmp_path / "t.jsonl")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_subjects_above_stress_ten_are_data_errors(tmp_path, capsys):
    # within a millionth of 10, but above it: the all-max spider's stress would
    # fall outside the reward's range
    weights = [1.0] * 6
    coefficient = 10 / _weighted(tuple(weights), MAX_VALUES) * (1 + 5e-8)
    path = tmp_path / "subjects.json"
    path.write_text(json.dumps({"seed": 1, "subjects": [{"id": 0, "weights": weights, "coefficient": coefficient}]}))
    common = ["--subjects", str(path)]
    target = ["--subject-id", "0", "--target", "9", "--initial", "max"]
    for argv in (
        ["run", *common, "--out", str(tmp_path / "r.csv"), "--methods", "greedy", "--initials", "max",
         "--targets", "9", "--seed", "1"],
        ["oracle", *common, *target],
        ["trace", *common, *target, "--method", "greedy", "--seed", "1", "--out", str(tmp_path / "t.jsonl")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # scale_coefficient never rounds above 10, so generated files still load
    out = tmp_path / "generated.json"
    assert main(["gen-subjects", "--n", "500", "--seed", "7", "--out", str(out)]) == 0
    assert len(load_population(out).subjects) == 500


def test_empty_subjects_file_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "subjects.json"
    path.write_text('{"seed": 1, "subjects": []}')
    common = ["--subjects", str(path)]
    target = ["--subject-id", "0", "--target", "1", "--initial", "min"]
    results = tmp_path / "r.csv"
    for argv in (
        ["run", *common, "--out", str(results), "--seed", "1", "--repeats", "1"],
        ["oracle", *common, *target],
        ["trace", *common, *target, "--method", "greedy", "--seed", "1", "--out", str(tmp_path / "t.jsonl")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "progress" not in captured.out
    assert not results.exists()


@pytest.mark.parametrize("field, value", [
    ("id", 0.7), ("id", True), ("id", "0"), ("seed", 1.9), ("weights", ["0.7", 1, 1, 1, 1, 1]),
    ("weights", {"0": 1, "1": 1, "2": 1, "3": 1, "4": 1, "5": 1}), ("coefficient", True), ("subjects", [[1, 2]]),
])
def test_mistyped_subjects_are_data_errors(tmp_path, capsys, field, value):
    subject = {"id": 0, "weights": [1] * 6, "coefficient": 10 / _weighted((1.0,) * 6, MAX_VALUES)}
    payload = {"seed": 1, "subjects": [subject]}
    (payload if field in payload else subject)[field] = value
    path = tmp_path / "subjects.json"
    path.write_text(json.dumps(payload))
    common = ["--subjects", str(path)]
    target = ["--subject-id", "0", "--target", "1", "--initial", "min"]
    for argv in (
        ["run", *common, "--out", str(tmp_path / "r.csv"), "--seed", "1", "--repeats", "1"],
        ["oracle", *common, *target],
        ["trace", *common, *target, "--method", "greedy", "--seed", "1", "--out", str(tmp_path / "t.jsonl")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_subjects_keys_are_named(tmp_path, capsys):
    subject = {"id": 0, "weights": [1] * 6}  # no coefficient
    path = tmp_path / "s.json"
    for payload, key in (({"subjects": []}, "seed"), ({"seed": 1, "subjects": [subject]}, "coefficient")):
        path.write_text(json.dumps(payload))
        assert main(["oracle", "--subjects", str(path), "--subject-id", "0", "--target", "1"]) == 2
        assert capsys.readouterr().err == f"error: subjects file {path}: missing key '{key}'\n"


@pytest.mark.parametrize("method", ["greedy", "random"])
def test_trace_rejects_negative_coordinates(tmp_path, subjects_file, capsys, method):
    # greedy opens no stream, so only the run config's check can catch a negative repeat
    argv = [
        "trace", "--subjects", str(subjects_file), "--method", method,
        "--target", "2", "--initial", "min", "--seed", "9", "--out", str(tmp_path / "t.jsonl"),
    ]
    for coordinate, name in ((["--subject-id", "0", "--repeat", "-1"], "repeat_index"),
                             (["--subject-id", "-1"], "subject_id")):
        assert main(argv + coordinate) == 1
        assert capsys.readouterr().err == f"error: {name} must be non-negative, got -1\n"


def test_trace_emits_jsonl(tmp_path, subjects_file, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(
        [
            "trace",
            "--subjects", str(subjects_file),
            "--subject-id", "1",
            "--method", "greedy",
            "--target", "2",
            "--initial", "min",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) >= 1
    first = lines[0]
    assert set(first) == {"state", "stress", "reward", "iteration"}
    assert first["state"] == [0, 0, 0, 0, 0, 0]
    assert first["iteration"] == 0
    summary = capsys.readouterr().out
    assert "spiders_presented=" in summary
    assert str(len(lines)) in summary


def test_trace_reads_the_run_config(tmp_path, subjects_file, capsys):
    argv = [
        "trace",
        "--subjects", str(subjects_file),
        "--subject-id", "0",
        "--method", "rl_zero",
        "--target", "7",
        "--initial", "min",
        "--out", str(tmp_path / "t.jsonl"),
    ]
    config = tmp_path / "config.json"
    # master_seed and iteration_cap come from the config when their flags are absent
    config.write_text(json.dumps({"master_seed": 4, "iteration_cap": 0}))
    assert main(argv + ["--config", str(config)]) == 0
    assert "iterations=0" in capsys.readouterr().out
    config.write_text(json.dumps({"master_seed": 4, "iteration_cap": 0, "bogus_key": 1}))
    assert main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(argv) == 1  # no seed anywhere


def test_trace_deterministic(tmp_path, subjects_file):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    argv = [
        "trace",
        "--subjects", str(subjects_file),
        "--subject-id", "0",
        "--method", "rl_zero",
        "--target", "7",
        "--initial", "min",
        "--seed", "4",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10_000) | st.sampled_from([2**63, 2**70])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
# values of the right JSON type, in range or just outside it
_NEAR_VALID = {
    "master_seed": st.integers(-1, 2**70),
    "methods": st.lists(st.sampled_from(["random", "greedy", "ga", "rl_zero", "mcts"]), max_size=2),
    "initial_kinds": st.lists(st.sampled_from(["min", "avg", "max", "median"]), max_size=2),
    "targets": st.lists(st.integers(0, 10), max_size=2),
    "repeats": st.integers(-1, 3),
    "iteration_cap": st.integers(-1, 200),
    "workers": st.integers(-1, 3),
    "rounded_reward": st.booleans(),
    "rl": st.fixed_dictionaries({}, optional={
        "epsilon": st.floats(-0.5, 1.5), "eps": _JUNK,
    }),
    "ga": st.fixed_dictionaries({}, optional={
        "population_size": st.integers(0, 20), "mutation_prob": st.floats(-0.5, 1.5) | _JUNK,
    }),
}
_CONFIGS = st.fixed_dictionaries({}, optional=_NEAR_VALID) | st.dictionaries(
    st.sampled_from(list(_NEAR_VALID)) | st.text(max_size=4), _JUNK, max_size=4
)


@pytest.fixture(scope="module")
def one_subject_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "subjects.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-subjects", "--n", "1", "--seed", "7", "--out", str(path)]) == 0
    return path


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=_CONFIGS)
def test_run_config_fuzz_exits_cleanly(one_subject_file, config):
    directory = one_subject_file.parent
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "run", "--subjects", str(one_subject_file), "--out", str(directory / "r.csv"),
            "--config", str(path),
            "--methods", "greedy", "--initials", "min", "--targets", "1", "--repeats", "1", "--workers", "1",
        ])
    assert code in (0, 1, 2)
    if code == 0:  # the flags fix the grid at one run, whatever the config says
        assert len((directory / "r.csv").read_text().splitlines()) == 2
    else:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text


# a small grid's --config object: axes drawn as subsets in any order, and every setting drawn
_GRID_CONFIGS = st.fixed_dictionaries({
    "master_seed": st.integers(0, 2**40),
    "methods": _subset(POLICY_NAMES, 5),
    "initial_kinds": _subset(INITIAL_KINDS, 3),
    "targets": _subset(range(1, 10), 3),
    "repeats": st.integers(1, 3),
    "iteration_cap": st.integers(0, 40),
    "rl": st.fixed_dictionaries({"epsilon": st.floats(0.0, 1.0), "discount": st.floats(0.0, 1.0),
                                 "learning_rate": st.floats(0.0, 1.0, exclude_min=True)}),
    "ga": st.fixed_dictionaries({"population_size": st.integers(2, 12), "mutation_prob": st.floats(0.0, 1.0)}),
    # a pool only now and then: each one costs a fork per worker
    "workers": st.sampled_from((1,) * 7 + (2,)),
})


def _renders(text: str, p: float) -> bool:
    """Whether ``text`` is compare's ``%.6g`` of a value within a relative 1e-9 of ``p``."""
    return text in {format(p * (1 + e), ".6g") for e in (-1e-9, 0.0, 1e-9)}


# one grid of every method, off every RL and GA default, so that a setting the config loses shows
@example(n=2, seed=7, config={
    "master_seed": 5, "methods": POLICY_NAMES, "initial_kinds": ("min", "max"), "targets": (3, 8),
    "repeats": 2, "iteration_cap": 30, "rl": {"epsilon": 0.5, "discount": 0.5, "learning_rate": 0.5},
    "ga": {"population_size": 4, "mutation_prob": 0.5}, "workers": 1,
})
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), config=_GRID_CONFIGS)
def test_the_cli_pipeline_equals_the_references(tmp_path_factory, n, seed, config):
    # gen-subjects, run --config, summarize --format csv and compare, each output rebuilt by tests/reference.py
    directory = tmp_path_factory.mktemp("pipeline")
    subjects, config_path, results, summary, comparisons = (
        str(directory / name) for name in ("subjects.json", "config.json", "results.csv", "summary.csv", "compare.csv"))
    Path(config_path).write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen-subjects", "--n", str(n), "--seed", str(seed), "--out", subjects]) == 0
        assert main(["run", "--subjects", subjects, "--config", config_path, "--out", results]) == 0
        assert main(["summarize", "--format", "csv", "--results", results, "--out", summary]) == 0
        assert main(["compare", "--results", results, "--out", comparisons]) == 0
    grid = GridConfig(generate_population(n, seed), **{**config, "rl": RLConfig(**config["rl"]),
                                                       "ga": GAConfig(**config["ga"])})
    records = reference_grid(grid)
    assert reference_results_from_csv(Path(results).read_text()) == records
    cells, comparisons_want = reference_report(records)

    # the summary: every cell's counts, filter and marker exactly, and its statistics at the file's six decimals
    markers = {(c.initial_kind, c.stress_category, m): mark for c in comparisons_want for m, mark in c.markers.items()}
    rows = list(csv.DictReader(io.StringIO(Path(summary).read_text())))
    assert [(r["initial_kind"], r["stress_category"], r["method"], int(r["n_success"]), r["considered"], r["marker"])
            for r in rows] == [(c.initial_kind, c.stress_category, c.method, c.n_success, str(c.considered).lower(),
                                markers.get((c.initial_kind, c.stress_category, c.method), "")) for c in cells]
    for row, cell in zip(rows, cells):
        for key in ("mean_presented", "std_presented", "accuracy_percent"):
            want = getattr(cell, key)
            assert row[key] == "" if want is None else float(row[key]) == pytest.approx(want, abs=1e-6)

    # the comparisons: best methods and markers exactly, p-values to a relative 1e-9
    want = [(c.initial_kind, c.stress_category, c.best_method, m, c.p_values.get(m), c.markers.get(m, ""))
            for c in comparisons_want
            for m in sorted(c.p_values.keys() | c.markers.keys(), key=POLICY_NAMES.index) or [""]]
    rows = list(csv.reader(io.StringIO(Path(comparisons).read_text())))[1:]
    assert [row[:4] + row[5:] for row in rows] == [[*w[:4], w[5]] for w in want]
    for row, w in zip(rows, want):
        assert row[4] == "" if w[4] is None else _renders(row[4], w[4]), (row, w)


# Each flag of each subcommand, with values that run and near-valid ones that should not: zero, negative,
# just past the range, huge where no work grows with it, non-numeric, empty, and unknown names. A file runs
# when valid, with a BOM, with CRLF line ends or as a FIFO a thread writes the valid bytes into; it fails
# missing, a directory, empty, truncated, with a flipped byte or with a key deleted. An --out runs new, over
# a file or as a FIFO a thread reads, and fails as a directory or in a missing one. No value names a device,
# asks for more than two workers, or makes a grid of more than a few hundred short runs: --n, --repeats and
# --iteration-cap are small or invalid, and run always gets the last two.
def _file(kind, variants):
    return st.tuples(st.just(kind), st.sampled_from(variants), st.floats(0.0, 1.0, exclude_max=True),
                     st.integers(0, 255))


def _values(good, bad):
    return st.sampled_from(good), st.sampled_from(bad)


def _files(kind):
    return (_file(kind, ("valid", "valid", "bom", "crlf", "fifo")),
            _file(kind, ("missing", "directory", "empty", "truncate", "flip", "delete-key")))


_OUT = (_file("out", ("new", "existing", "fifo")), _file("out", ("directory", "missing-directory")))
_SEED = _values(("0", "7", str(2**70)), ("-1", "x", ""))
_SUBJECT_ID = _values(("0", "1"), ("2", "-1", str(10**30), "x"))
_TARGET = _values(("1", "5", "9"), ("0", "10", "-1", "x"))
_INITIAL = _values(INITIAL_KINDS, ("median", ""))
_CAP = _values(("0", "1", "5"), ("-1", "x", ""))
_FLAGS = {
    "gen-subjects": {"--n": _values(("1", "2"), ("0", "-1", "x", "", "2.0")), "--seed": _SEED, "--out": _OUT},
    "run": {
        "--subjects": _files("subjects"), "--out": _OUT, "--seed": _SEED,
        "--methods": _values(("greedy", "random,ga", ",".join(POLICY_NAMES)), ("mcts", "", ",,")),
        "--initials": _values(("min", "max,avg"), ("median", "")),
        "--targets": _values(("3", "2,8"), ("0", "10", "", "x", "3,3")),
        "--repeats": _values(("1", "2"), ("0", "-1", "x")), "--iteration-cap": _CAP,
        "--workers": _values(("1", "1", "2"), ("0", "-1", "x")), "--config": _files("config"),
    },
    "summarize": {"--results": _files("results"), "--format": _values(("csv", "markdown"), ("html",)),
                  "--out": _OUT},
    "compare": {"--results": _files("results"), "--out": _OUT},
    "oracle": {"--subjects": _files("subjects"), "--subject-id": _SUBJECT_ID, "--target": _TARGET,
               "--initial": _INITIAL},
    "trace": {
        "--subjects": _files("subjects"), "--subject-id": _SUBJECT_ID,
        "--method": _values(POLICY_NAMES, ("mcts",)), "--target": _TARGET, "--initial": _INITIAL,
        "--seed": _SEED, "--repeat": _values(("0", "3", str(2**40)), ("-1", "x")), "--iteration-cap": _CAP,
        "--config": _files("config"), "--out": _OUT,
    },
}
_ALWAYS = ("--repeats", "--iteration-cap")  # run's grid is never left at its defaults


@st.composite
def _invocations(draw):
    """A subcommand and its argv, file tokens still to be made: every flag valid but up to two.

    Each of those is missing, repeated, or given a value that should not run.
    """
    command = draw(st.sampled_from((*_FLAGS, "bench")))
    flags = _FLAGS.get(command, {})
    faults = draw(st.lists(st.sampled_from(sorted(flags) or [""]), max_size=2, unique=True))
    argv = [command]
    for flag, (good, bad) in flags.items():
        fault = draw(st.sampled_from(("missing", "repeated", "bad"))) if flag in faults else "none"
        if fault == "missing" and flag in _ALWAYS:
            fault = "bad"
        values = {"none": [good], "missing": [], "repeated": [good, good | bad], "bad": [bad]}[fault]
        argv += [x for value in values for x in (flag, draw(value))]
    if draw(st.sampled_from((False,) * 7 + (True,))):
        argv += ["--bogus", "1"]
    return argv


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of a valid subjects, results and config file."""
    directory = tmp_path_factory.mktemp("valid")
    subjects, results = directory / "subjects.json", directory / "results.csv"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen-subjects", "--n", "2", "--seed", "7", "--out", str(subjects)]) == 0
        assert main(["run", "--subjects", str(subjects), "--out", str(results), "--seed", "3", "--methods",
                     "greedy,random", "--targets", "2,8", "--repeats", "2", "--iteration-cap", "20"]) == 0
    config = {"master_seed": 3, "methods": ["greedy", "ga"], "targets": [2, 8], "ga": {"population_size": 4}}
    return {"subjects": subjects.read_bytes(), "results": results.read_bytes(),
            "config": json.dumps(config, indent=1).encode()}


def _without_a_key(kind: str, data: bytes, where: float) -> bytes:
    """``data`` less one JSON key anywhere in it, or one column of every CSV line, picked by ``where``."""
    if kind == "results":
        lines = data.decode().splitlines(keepends=True)
        column = int(where * len(RESULT_COLUMNS))
        return "".join(",".join(f for i, f in enumerate(line.split(",")) if i != column) for line in lines).encode()
    value = json.loads(data)
    paths = list(_key_paths(value))
    *parents, key = paths[int(where * len(paths))]
    del functools.reduce(operator.getitem, parents, value)[key]
    return json.dumps(value, indent=1).encode()


def _key_paths(node, path=()):
    """The path to every key of every JSON object in ``node``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,)
            yield from _key_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _key_paths(child, path + (i,))


def _write_in_background(fifo: Path, data: bytes) -> threading.Thread:
    """A started daemon thread that writes ``data`` into ``fifo`` once a reader opens it."""
    def write():
        try:
            with open(fifo, "wb", buffering=0) as writer:
                writer.write(data)
        except BrokenPipeError:  # the reader closed its end before reading everything
            pass

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


def _release(fifo: Path, thread: threading.Thread, reader: bool) -> None:
    """Open the end of ``fifo`` that ``thread`` does not hold, without blocking, until ``thread`` has ended.

    A command that never opened the FIFO leaves its thread waiting in ``open``;
    opening the other end lets that ``open`` return, and closing it ends the
    thread's read at end of file, or its write at a broken pipe.
    """
    for _ in range(1000):
        if not thread.is_alive():
            return
        try:
            end = os.open(fifo, (os.O_WRONLY if reader else os.O_RDONLY) | os.O_NONBLOCK)
        except OSError:  # a write end opens only once a reader waits: the thread has not reached its open yet
            thread.join(0.001)
            continue
        thread.join(0.01)
        os.close(end)
    raise AssertionError(f"a thread still holds {fifo}")


def _make(token, directory: Path, valid: dict, names: itertools.count, fifos: list) -> str:
    """The argv value a token stands for, with any file it names made in ``directory``.

    A FIFO is appended to ``fifos`` with the thread on its other end and, for
    an ``--out``, the list that thread appends what it read to.
    """
    if isinstance(token, str):
        return token
    kind, variant, where, byte = token
    path = directory / f"{kind}-{next(names)}"
    data = valid.get(kind, b"")
    if variant in ("directory", "missing", "missing-directory"):
        return str(directory if variant == "directory" else directory / "missing" / path.name)
    if variant == "new":
        return str(path)
    if variant == "fifo":
        os.mkfifo(path)
        if kind == "out":
            fifos.append((path, *_read_in_background(lambda: open(path, "rb"))))
        else:
            fifos.append((path, _write_in_background(path, data), None))
        return str(path)
    if variant == "truncate":
        data = data[:int(where * len(data))]
    elif variant == "flip":
        at = int(where * len(data))
        data = data[:at] + bytes([byte if byte != data[at] else byte ^ 1]) + data[at + 1:]
    elif variant == "bom":
        data = codecs.BOM_UTF8 + data
    elif variant == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif variant == "delete-key":
        data = _without_a_key(kind, data, where)
    path.write_bytes(b"" if variant == "empty" else b"old\n" if variant == "existing" else data)
    return str(path)


def _documented_output(argv: list[str], stdout: str) -> None:
    """Check that the exit-0 invocation ``argv`` wrote what README documents; each flag's last value counts."""
    command, last = argv[0], dict(zip(argv[1::2], argv[2::2]))
    out = last.get("--out")
    text = Path(out).read_text(encoding="utf-8") if out else stdout
    if command == "gen-subjects":
        n = last.get("--n", "100")
        assert len(load_population(out).subjects) == int(n)
        assert stdout.startswith(f"wrote {n} subjects to {out}\n")
    elif command == "run":
        assert text.splitlines()[0] == ",".join(RESULT_COLUMNS)
        assert stdout.endswith(f" runs to {out}\n")
    elif command == "summarize":
        header = "initial_kind,stress_category,method," if last.get("--format") == "csv" else "| Initial |"
        assert text.startswith(header)
    elif command == "compare":
        assert text.startswith("initial_kind,stress_category,best_method,method,p_value,marker\n")
    elif command == "oracle":
        assert stdout.startswith(f"subject {int(last['--subject-id'])}, target ")
    else:
        assert stdout.startswith("success=")
        assert all(json.loads(line).keys() == {"state", "stress", "reward", "iteration"} for line in text.splitlines())


# a missing results file and an --out that is a directory: each raises an OSError, a data error
@example(argv=["compare", "--results", ("results", "missing", 0.0, 0)])
@example(argv=["gen-subjects", "--n", "1", "--seed", "7", "--out", ("out", "directory", 0.0, 0)])
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_invocations())
def test_every_subcommand_exits_0_1_or_2_without_a_traceback(tmp_path_factory, valid_files, argv):
    directory = tmp_path_factory.mktemp("exit")
    names, fifos = itertools.count(), []
    argv = [_make(token, directory, valid_files, names, fifos) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        for fifo, thread, received in fifos:
            _release(fifo, thread, reader=received is not None)
    for fifo, _, received in fifos:
        if received is not None:  # what an --out FIFO was sent stands in its place, to be read as a file's bytes
            fifo.unlink()
            fifo.write_bytes(b"".join(received))
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _documented_output(argv, out.getvalue())
    else:
        assert err.getvalue(), argv
