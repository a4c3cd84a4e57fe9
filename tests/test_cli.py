import json
from types import SimpleNamespace

import numpy as np
import pytest

from loraroute import (
    EngineConfig,
    SignalConfig,
    decision_record,
    load_backbone,
    load_manifest,
    route_only,
)
from loraroute.cli import main
from loraroute.harness import load_tasks
from loraroute.harness.thresholds import REQUIRED_KEYS, THRESHOLDS_ENV_VAR

from conftest import read_report

TINY_CONFIG = "32,2,2,64,64,96"


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """A saved backbone plus a two-adapter pool trained through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    model = root / "model.lgbk"
    pool_dir = root / "pool"
    assert main(["init-model", "--config", TINY_CONFIG, "--seed", "7", "--out", str(model)]) == 0
    assert (
        main(
            [
                "train-adapters",
                "--model", str(model),
                "--tasks", "2",
                "--rank", "2",
                "--steps", "150",
                "--out-dir", str(pool_dir),
            ]
        )
        == 0
    )
    tasks, labels = load_tasks(str(pool_dir / "tasks.json"))
    return SimpleNamespace(
        root=root,
        model=str(model),
        pool=str(pool_dir / "manifest.txt"),
        tasks_file=str(pool_dir / "tasks.json"),
        pool_dir=pool_dir,
        tasks=tasks,
        adapter_for={task_id: adapter_id for adapter_id, task_id in labels.items()},
    )


def in_band_prompt(task, length=8):
    return " ".join(str(task.band_start) for _ in range(length))


# -- init-model --------------------------------------------------------------------


class TestInitModel:
    def test_writes_model_with_magic_and_reports_hash(self, tmp_path, capsys):
        out = tmp_path / "m.lgbk"
        assert main(["init-model", "--config", TINY_CONFIG, "--out", str(out)]) == 0
        assert out.read_bytes()[:4] == b"LGBK"
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"wrote {out} sha256=")

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.lgbk", tmp_path / "b.lgbk"
        for out in (a, b):
            assert main(["init-model", "--config", TINY_CONFIG, "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m.lgbk"
        assert main(["init-model", "--config", "64,4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unwritable_destination_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "m.lgbk"
        assert main(["init-model", "--config", TINY_CONFIG, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: io:")


# -- train-adapters ------------------------------------------------------------------


class TestTrainAdapters:
    def test_pool_directory_layout(self, workspace):
        files = sorted(p.name for p in workspace.pool_dir.iterdir())
        assert "manifest.txt" in files and "tasks.json" in files
        lgad = [f for f in files if f.endswith(".lgad")]
        assert len(lgad) == 2
        manifest_lines = (workspace.pool_dir / "manifest.txt").read_text().split()
        assert sorted(manifest_lines) == lgad

    def test_progress_lines_and_reproducible_bytes(self, tmp_path, capsys):
        model = tmp_path / "m.lgbk"
        main(["init-model", "--config", TINY_CONFIG, "--out", str(model)])
        capsys.readouterr()
        dirs = [tmp_path / "p1", tmp_path / "p2"]
        for d in dirs:
            assert (
                main(
                    [
                        "train-adapters",
                        "--model", str(model),
                        "--tasks", "1",
                        "--rank", "2",
                        "--steps", "5",
                        "--out-dir", str(d),
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "trained " in out and " for " in out
            assert "wrote 1 adapters" in out
        byte_runs = [next(d.glob("*.lgad")).read_bytes() for d in dirs]
        assert byte_runs[0] == byte_runs[1]

    def test_rank_beyond_model_width_is_usage_error(self, workspace, tmp_path, capsys):
        code = main(
            [
                "train-adapters",
                "--model", workspace.model,
                "--tasks", "1",
                "--rank", "999",
                "--out-dir", str(tmp_path / "p"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: usage:")


# -- route ---------------------------------------------------------------------------


class TestRoute:
    def test_k1_picks_the_ground_truth_adapter(self, workspace, capsys):
        for task in workspace.tasks:
            code = main(
                [
                    "route",
                    "--model", workspace.model,
                    "--pool", workspace.pool,
                    "--input", in_band_prompt(task),
                    "--k", "1",
                ]
            )
            assert code == 0
            first = capsys.readouterr().out.splitlines()[0]
            assert first.startswith(f"1. {workspace.adapter_for[task.task_id]} score=")

    def test_json_with_explain_carries_all_scores(self, workspace, capsys):
        task = workspace.tasks[0]
        code = main(
            [
                "route",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", in_band_prompt(task),
                "--k", "2",
                "--json",
                "--explain",
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["k"] == 2
        assert len(record["entries"]) == 2
        assert set(record["all_scores"]) == {e["id"] for e in record["entries"]}
        assert sum(e["weight"] for e in record["entries"]) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_scoring_prints_same_shape(self, workspace, capsys):
        task = workspace.tasks[0]
        code = main(
            [
                "route",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", in_band_prompt(task),
                "--scoring", "entropy",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(" score=" in line and " weight=" in line for line in lines)

    def test_k_larger_than_pool_clamps(self, workspace, capsys):
        code = main(
            [
                "route",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", in_band_prompt(workspace.tasks[0]),
                "--k", "99",
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_tokens_from_file_match_inline(self, workspace, tmp_path, capsys):
        prompt = in_band_prompt(workspace.tasks[1])
        token_file = tmp_path / "prompt.txt"
        token_file.write_text(prompt + "\n")
        outputs = []
        for source in (prompt, f"@{token_file}"):
            assert (
                main(
                    [
                        "route",
                        "--model", workspace.model,
                        "--pool", workspace.pool,
                        "--input", source,
                    ]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_default_signal_flags_route_at_block_zero_first_token_k3(self, workspace, capsys):
        tokens = [0, 1, 2, 3, 0, 2]
        argv = ["route", "--model", workspace.model, "--pool", workspace.pool, "--json"]
        assert main([*argv, "--input", " ".join(map(str, tokens))]) == 0
        backbone = load_backbone(workspace.model)
        pool = load_manifest(workspace.pool, backbone.config)
        cli_defaults = EngineConfig(SignalConfig(target_block=0, token_policy="first"), k=3)
        decision = route_only(backbone, pool, tokens, cli_defaults)
        assert json.loads(capsys.readouterr().out) == decision_record(decision)

    def test_malformed_tokens_are_usage_error(self, workspace, capsys):
        code = main(
            [
                "route",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", "3 two 1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "'two'" in err

    def test_out_of_vocab_token_is_runtime_error(self, workspace, capsys):
        code = main(
            [
                "route",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", "99999",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: token-range:")


# -- generate ------------------------------------------------------------------------


class TestGenerate:
    def test_mixture_and_fusion_emit_identical_tokens(self, workspace, capsys):
        code = main(
            [
                "generate",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", in_band_prompt(workspace.tasks[0]),
                "--max-new", "8",
            ]
        )
        assert code == 0
        tokens = capsys.readouterr().out.split()
        assert len(tokens) == 8 and all(t.isdigit() for t in tokens)

    def test_max_new_zero_prints_nothing(self, workspace, capsys):
        code = main(
            [
                "generate",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", in_band_prompt(workspace.tasks[0]),
                "--max-new", "0",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_timings_record_follows_tokens(self, workspace, capsys):
        code = main(
            [
                "generate",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", in_band_prompt(workspace.tasks[0]),
                "--max-new", "4",
                "--timings",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        record = json.loads(lines[1])
        assert record["forward_pass_count"] >= 1
        assert record["timings"]["probe_ms"] >= 0.0
        assert record["timings"]["select_merge_ms"] >= 0.0
        per_token = record["timings"]["per_token_ms"]
        assert len(per_token) == 4 and all(ms >= 0.0 for ms in per_token)
        assert record["output_tokens"] == [int(t) for t in lines[0].split()]

    def test_negative_max_new_is_usage_error(self, workspace, capsys):
        code = main(
            [
                "generate",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--input", "1 2",
                "--max-new", "-1",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: usage:")


# -- experiment ----------------------------------------------------------------------


def run_experiment(workspace, out, *extra):
    return main(
        [
            "experiment",
            "--model", workspace.model,
            "--pool", workspace.pool,
            "--tasks-file", workspace.tasks_file,
            "--out", str(out),
            *extra,
        ]
    )


class TestExperiment:
    def test_heatmap_writes_unit_interval_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "heat.csv"
        code = run_experiment(workspace, out, "--kind", "heatmap", "--samples", "4")
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"wrote heatmap report to {out}" in stdout
        assert "status=" in stdout
        report = read_report(out)
        assert report["axes"] == "task/adapter"
        assert report["grid"].shape == (2, 2)
        assert report["grid"].min() >= 0.0 and report["grid"].max() <= 1.0

    def test_counts_report_preserves_selection_mass(self, workspace, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code = run_experiment(
            workspace, out, "--kind", "counts", "--samples", "9", "--k", "2"
        )
        assert code == 0
        capsys.readouterr()
        report = read_report(out)
        assert report["grid"].sum() == 9 * 2

    def test_alignment_report_embeds_thresholds(self, workspace, tmp_path, capsys):
        out = tmp_path / "align.json"
        code = run_experiment(
            workspace, out, "--kind", "alignment", "--samples", "6", "--k", "2"
        )
        assert code == 0
        capsys.readouterr()
        report = read_report(out)
        assert report["kind"] == "alignment"
        assert "alignment_spearman_min" in report["metadata"]["thresholds"]
        assert report["metadata"]["skipped_unlabeled"] == 0

    def test_alignment_without_adapter_labels_skips_every_adapter(
        self, workspace, tmp_path, capsys
    ):
        tasks_file = tmp_path / "tasks.json"
        record = json.loads((workspace.pool_dir / "tasks.json").read_text())
        assert record["adapters"]
        record["adapters"] = {}
        tasks_file.write_text(json.dumps(record))
        out = tmp_path / "align.json"
        code = main(
            [
                "experiment", "--kind", "alignment",
                "--model", workspace.model,
                "--pool", workspace.pool,
                "--tasks-file", str(tasks_file),
                "--out", str(out),
                "--samples", "6", "--k", "2",
            ]
        )
        assert code == 0
        assert "spearman=undefined status=n/a" in capsys.readouterr().out
        metadata = read_report(out)["metadata"]
        assert metadata["skipped_unlabeled"] == len(workspace.adapter_for)
        assert metadata["n_pairs"] == 0

    def test_ablate_writes_one_row_per_value(self, workspace, tmp_path, capsys):
        out = tmp_path / "ablate.csv"
        code = run_experiment(
            workspace, out,
            "--kind", "ablate", "--axis", "k", "--values", "1,2,99", "--samples", "2",
        )
        assert code == 0
        capsys.readouterr()
        report = read_report(out)
        assert report["row_labels"] == ["1", "2", "99"]

    def test_timing_reports_each_length(self, workspace, tmp_path, capsys):
        out = tmp_path / "timing.json"
        code = run_experiment(
            workspace, out,
            "--kind", "timing", "--lengths", "2,5", "--repeats", "1",
        )
        assert code == 0
        capsys.readouterr()
        report = read_report(out)
        assert [r["length"] for r in report["records"]] == [2, 5]

    def test_ablate_without_axis_is_usage_error(self, workspace, tmp_path, capsys):
        code = run_experiment(workspace, tmp_path / "x.csv", "--kind", "ablate")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_kind_is_usage_error(self, workspace, tmp_path, capsys):
        code = run_experiment(workspace, tmp_path / "x.csv", "--kind", "scatter")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_reports_are_bit_reproducible(self, workspace, tmp_path, capsys):
        outs = [tmp_path / "h1.csv", tmp_path / "h2.csv"]
        for out in outs:
            assert run_experiment(
                workspace, out, "--kind", "heatmap", "--samples", "3", "--seed", "5"
            ) == 0
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()


# -- parser-level behavior -------------------------------------------------------------


class TestParser:
    def test_help_exits_zero_everywhere(self, capsys):
        for argv in (
            ["--help"],
            ["init-model", "--help"],
            ["train-adapters", "--help"],
            ["route", "--help"],
            ["generate", "--help"],
            ["experiment", "--help"],
        ):
            assert main(argv) == 0
            capsys.readouterr()

    def test_route_help_documents_signal_flags(self, capsys):
        main(["route", "--help"])
        text = capsys.readouterr().out
        for flag in ("--k", "--scoring", "--target-block", "--token-policy", "--json", "--explain"):
            assert flag in text

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["route", "--nonsense"]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_missing_model_file_is_io_error(self, workspace, tmp_path, capsys):
        code = main(
            [
                "route",
                "--model", str(tmp_path / "absent.lgbk"),
                "--pool", workspace.pool,
                "--input", "1",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")

    def test_corrupt_model_file_is_format_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.lgbk"
        bad.write_bytes(b"XXXX not a model")
        code = main(["route", "--model", str(bad), "--pool", workspace.pool, "--input", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: format:")

    def test_non_utf8_adapter_id_is_format_error(self, workspace, tmp_path, capsys):
        raw = bytearray(sorted(workspace.pool_dir.glob("*.lgad"))[0].read_bytes())
        id_len = int.from_bytes(raw[5:7], "little")
        raw[7 : 7 + id_len] = b"\xff" * id_len
        (tmp_path / "bad.lgad").write_bytes(bytes(raw))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("bad.lgad\n")
        code = main(["route", "--model", workspace.model, "--pool", str(manifest), "--input", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: format:")


    @staticmethod
    def assert_one_error_line(argv, capsys, code, prefix):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.splitlines()) == 1

    @staticmethod
    def counts_argv(workspace, tmp_path, tasks_file):
        return [
            "experiment", "--kind", "counts", "--samples", "1",
            "--model", workspace.model, "--pool", workspace.pool,
            "--tasks-file", str(tasks_file), "--out", str(tmp_path / "counts.csv"),
        ]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.update(vocab_size="abc"),
            lambda r: r["tasks"][0].update(band_start="x"),
            lambda r: r["tasks"][0].update(in_band_prob="nan?"),
            lambda r: r.update(adapters=["a"]),
            None,
        ],
        ids=["vocab-size", "band-start", "in-band-prob", "adapters-list", "not-utf8"],
    )
    def test_corrupt_tasks_file_is_validation_error(self, workspace, tmp_path, capsys, edit):
        tasks_file = tmp_path / "tasks.json"
        if edit is None:
            tasks_file.write_bytes(b"\xff")
        else:
            record = json.loads((workspace.pool_dir / "tasks.json").read_text())
            edit(record)
            tasks_file.write_text(json.dumps(record))
        argv = self.counts_argv(workspace, tmp_path, tasks_file)
        self.assert_one_error_line(argv, capsys, 2, "error: validation: malformed tasks file")

    def test_non_utf8_thresholds_file_is_validation_error(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "thresholds.json"
        bad.write_bytes(b"\xff")
        monkeypatch.setenv(THRESHOLDS_ENV_VAR, str(bad))
        argv = self.counts_argv(workspace, tmp_path, workspace.tasks_file)
        self.assert_one_error_line(argv, capsys, 2, "error: validation: malformed thresholds file")
        assert not (tmp_path / "counts.csv").exists()

    @pytest.mark.parametrize("value", ["NaN", "9" * 401], ids=["nan", "401-digits"])
    def test_unrepresentable_threshold_is_validation_error(
        self, workspace, tmp_path, capsys, monkeypatch, value
    ):
        bad = tmp_path / "thresholds.json"
        bad.write_text(json.dumps(dict.fromkeys(REQUIRED_KEYS, 0.5)).replace("0.5", value, 1))
        monkeypatch.setenv(THRESHOLDS_ENV_VAR, str(bad))
        argv = self.counts_argv(workspace, tmp_path, workspace.tasks_file)
        self.assert_one_error_line(argv, capsys, 2, "error: validation: malformed thresholds file")
        assert not (tmp_path / "counts.csv").exists()

    def test_non_utf8_manifest_is_format_error(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b"\xff\n")
        argv = ["route", "--model", workspace.model, "--pool", str(manifest), "--input", "1"]
        self.assert_one_error_line(argv, capsys, 2, "error: format:")

    def test_non_utf8_input_file_is_usage_error(self, workspace, tmp_path, capsys):
        prompt = tmp_path / "prompt.txt"
        prompt.write_bytes(b"1 2 \xff")
        argv = ["route", "--model", workspace.model, "--pool", workspace.pool, "--input", f"@{prompt}"]
        self.assert_one_error_line(argv, capsys, 1, "error: usage: malformed token list")
