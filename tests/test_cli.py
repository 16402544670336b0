import json

import pytest

from spideradapt.cli import main


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


def test_run_missing_subjects_is_data_error(tmp_path, capsys):
    code = main(
        ["run", "--subjects", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.csv"), "--seed", "1"]
    )
    assert code == 2


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


@pytest.mark.parametrize(
    "config",
    [
        {"rl": {"epsilon": "0.1"}},
        {"rounded_reward": "false"},
        {"rl": {"init_mode": "random"}},
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


def test_summarize_empty_results_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "method,initial_kind,target,subject_id,repeat,success,spiders_presented,iterations_used\n"
    )
    assert main(["summarize", "--results", str(empty)]) == 2


def test_summarize_missing_columns_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("method,target\nrandom,1\n")
    assert main(["summarize", "--results", str(bad)]) == 2


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


def test_oracle_validates_ids(subjects_file, capsys):
    assert main(["oracle", "--subjects", str(subjects_file), "--subject-id", "99", "--target", "1"]) == 2
    assert main(["oracle", "--subjects", str(subjects_file), "--subject-id", "0", "--target", "12"]) == 1


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
