import json
import os
from pathlib import Path

import numpy as np
import pytest

from cograca.cli import full_help_text, main, rebuild_argv
from cograca.data import load_dataset, load_model

HERE = Path(__file__).parent

SYNTH_ARGS = [
    "synth", "--seed", "7", "--subjects", "10", "--rois", "10",
    "--d-cog", "6", "--latent-dim", "3", "--two-visit-fraction", "0.4",
]
TRAIN_ARGS = [
    "train", "--epochs", "4", "--hidden-dim", "8", "--r", "6", "--d-r", "4",
    "--folds", "3", "--seed", "1",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    fp = root / "fp"
    assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
    assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(run)]) == 0
    assert main(["fingerprint", "--data", str(data), "--run", str(run), "--out", str(fp)]) == 0
    return root


def test_help_matches_golden_file():
    # Pins the whole CLI surface: subcommands, flags, defaults, exit codes.
    golden = (HERE / "golden_help.txt").read_text()
    assert full_help_text() == golden


def test_help_documents_exit_codes_and_env():
    text = full_help_text()
    for needle in (
        "exit codes:", "usage error", "missing input", "validation error",
        "non-finite numeric result", "COGRACA_SEED",
    ):
        assert needle in text


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "cograca" in capsys.readouterr().out


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "usage: cograca" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert main(["transmogrify"]) == 2


def test_evaluate_without_analysis_fails(capsys):
    assert main(["evaluate"]) == 2


class TestSynth:
    def test_writes_loadable_dataset(self, workspace):
        records = load_dataset(workspace / "data")
        assert len(records) == 14  # 10 subjects, 4 with a second visit
        labels = (workspace / "data" / "labels.csv").read_text().splitlines()
        assert labels[0] == "subject_id,visit,attribute"

    def test_run_record_schema(self, workspace):
        record = json.loads((workspace / "data" / "run.json").read_text())
        assert record["command"] == "synth"
        assert record["seed"] == 7
        assert record["config"]["subjects"] == 10
        assert "manifest.csv" in record["outputs"]
        assert record["duration_seconds"] >= 0

    def test_seed_env_override(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("COGRACA_SEED", "7")
        out = tmp_path / "env_data"
        argv = [a if a != "7" else "3" for a in SYNTH_ARGS]
        assert main(argv + ["--out", str(out)]) == 0
        base = (workspace / "data" / "manifest.csv").read_text()
        assert (out / "manifest.csv").read_text() == base

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COGRACA_SEED", "pi")
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cograca: error[2]:")
        assert "\n" not in err.strip()


class TestTrain:
    def test_artifacts_exist(self, workspace):
        run = workspace / "run"
        for k in range(3):
            assert (run / f"fold_{k}.cgmodel").is_file()
            trace = (run / f"loss_trace_fold_{k}.csv").read_text().splitlines()
            assert trace[0] == "epoch,corr,ind,mul,total"
            assert len(trace) == 1 + 4
        record = json.loads((run / "run.json").read_text())
        assert record["model_kind"] == "CoGraCa"
        assert record["config"]["folds"] == 3

    def test_models_load(self, workspace):
        model = load_model(workspace / "run" / "fold_0.cgmodel")
        assert model.config.epochs == 4
        assert model.params.d_out == 6

    def test_missing_data_dir_exit_3(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("cograca: error[3]:")

    def test_invalid_config_exit_4(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "o"), "--epochs", "0"]) == 4
        assert capsys.readouterr().err.startswith("cograca: error[4]:")

    def test_bad_ridge_string_exit_4(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "o"), "--ridge", "tiny"]) == 4

    def test_nonfinite_loss_exit_5(self, workspace, tmp_path, capsys):
        code = main(TRAIN_ARGS[:-2] + [
            "--seed", "1", "--temperature", "1e-320",
            "--data", str(workspace / "data"), "--out", str(tmp_path / "o"),
        ])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("cograca: error[5]:")
        assert "epoch" in err

    def test_ablation_recorded_as_graca(self, workspace, tmp_path):
        out = tmp_path / "ablate"
        assert main(TRAIN_ARGS + [
            "--lambda1", "0.0", "--lambda2", "0.0",
            "--data", str(workspace / "data"), "--out", str(out),
        ]) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["model_kind"] == "GraCa"


class TestFingerprint:
    def test_csv_schema(self, workspace):
        lines = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()
        assert lines[0] == "subject_id,visit,fold,tag," + ",".join(
            f"f_{i}" for i in range(1, 5)
        )
        assert len(lines) == 1 + 14
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[3] == "test-fused"
            assert int(parts[2]) in (0, 1, 2)
            np.array([float(v) for v in parts[4:]])  # parses

    def test_fold_column_matches_training_split(self, workspace):
        # every visit of one subject sits in one fold
        lines = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()[1:]
        fold_by_subject = {}
        for line in lines:
            sid, _, fold = line.split(",")[:3]
            fold_by_subject.setdefault(sid, set()).add(fold)
        assert all(len(v) == 1 for v in fold_by_subject.values())

    def test_missing_run_record_exit_3(self, workspace, tmp_path):
        assert main(["fingerprint", "--data", str(workspace / "data"),
                     "--run", str(tmp_path), "--out", str(tmp_path / "fp")]) == 3


class TestBaselineCli:
    @pytest.mark.parametrize("kind", ["pca-cca", "ica-cca", "fmri-ica", "cognition"])
    def test_kinds_run(self, workspace, tmp_path, kind):
        out = tmp_path / kind
        assert main([
            "baseline", "--kind", kind, "--data", str(workspace / "data"),
            "--out", str(out), "--folds", "3", "--n-components", "3",
        ]) == 0
        lines = (out / "representations.csv").read_text().splitlines()
        assert lines[0].startswith("subject_id,visit,fold,tag,f_1")
        assert len(lines) == 1 + 14

    def test_unknown_kind_usage_error(self, workspace, tmp_path):
        assert main(["baseline", "--kind", "magic", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x")]) == 2


class TestEvaluateCli:
    def test_similarity(self, workspace, tmp_path):
        out = tmp_path / "sim"
        assert main(["evaluate", "similarity",
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"wasserstein", "mwu_u", "mwu_p", "n_intra_pairs"}
        matrix_lines = (out / "similarity_matrix.csv").read_text().splitlines()
        assert len(matrix_lines) == 1 + 14
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,intra_count,inter_count"
        assert len(hist) == 1 + 40

    def test_classify(self, workspace, tmp_path):
        out = tmp_path / "cls"
        assert main(["evaluate", "classify",
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--data", str(workspace / "data"),
                     "--repeats", "2", "--epochs", "10", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["bacc_per_seed"]) == 2
        assert 0.0 <= metrics["bacc_mean"] <= 1.0
        assert metrics["task"] == "attribute"

    def test_classify_unknown_task_exit_4(self, workspace, tmp_path):
        assert main(["evaluate", "classify",
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--data", str(workspace / "data"),
                     "--task", "mystery", "--out", str(tmp_path / "x")]) == 4

    def test_attribute(self, workspace, tmp_path):
        out = tmp_path / "att"
        assert main(["evaluate", "attribute",
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--data", str(workspace / "data"),
                     "--epochs", "10", "--out", str(out)]) == 0
        att = (out / "attribution.csv").read_text().splitlines()
        assert att[0] == "subject_id,visit,fold," + ",".join(
            f"shap_{i}" for i in range(1, 5)
        )
        assert len(att) == 1 + 14
        summary = (out / "attribution_summary.csv").read_text().splitlines()
        assert summary[0] == "rank,feature,mean_abs_shapley"
        assert len(summary) == 1 + 4
        scores = [float(line.split(",")[2]) for line in summary[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_interpret(self, workspace, tmp_path):
        out = tmp_path / "interp"
        assert main(["evaluate", "interpret", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"),
                     "--components", "0,1", "--out", str(out)]) == 0
        loadings = (out / "cognitive_loadings.csv").read_text().splitlines()
        assert loadings[0] == "component,rank,cognitive_index,abs_loading,loading"
        assert len(loadings) == 1 + 2 * 6
        edges = (out / "edge_importance.csv").read_text().splitlines()
        assert edges[0] == "component,rank,node_p,node_q,importance"

    def test_interpret_bad_components_exit_4(self, workspace, tmp_path):
        assert main(["evaluate", "interpret", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"),
                     "--components", "zero", "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("analysis", ["similarity", "classify", "attribute"])
    @pytest.mark.parametrize("damage", ["short", "blank"])
    def test_malformed_representation_row_exit_4(self, workspace, tmp_path, capsys,
                                                 analysis, damage):
        lines = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()
        # physical line 3 of the file (the header is line 1)
        lines[2] = ",".join(lines[2].split(",")[:3]) if damage == "short" else ""
        reps = tmp_path / "reps.csv"
        reps.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", analysis, "--representations", str(reps),
                "--out", str(tmp_path / "o")]
        if analysis != "similarity":
            argv += ["--data", str(workspace / "data"), "--epochs", "2"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("cograca: error[4]:")
        assert "reps.csv" in err and "row 3" in err

    def test_interpret_bad_fold_exit_4(self, workspace, tmp_path):
        assert main(["evaluate", "interpret", "--data", str(workspace / "data"),
                     "--run", str(workspace / "run"),
                     "--fold", "9", "--out", str(tmp_path / "x")]) == 4


class TestReport:
    def test_aggregates_metrics(self, workspace, tmp_path):
        sim = tmp_path / "sim"
        assert main(["evaluate", "similarity",
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--out", str(sim)]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(tmp_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert str(sim) in report
        assert "wasserstein" in report[str(sim)]

    def test_missing_dir_exit_3(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost"), "--out", str(tmp_path / "o")]) == 3


class TestReproducibility:
    def test_train_rerun_is_byte_identical(self, workspace, tmp_path):
        record = json.loads((workspace / "run" / "run.json").read_text())
        rerun = tmp_path / "rerun"
        argv = rebuild_argv(record, str(rerun))
        assert main(argv) == 0
        for name in sorted(os.listdir(workspace / "run")):
            if name == "run.json":
                continue
            assert (rerun / name).read_bytes() == (workspace / "run" / name).read_bytes(), name

    def test_synth_rerun_is_byte_identical(self, workspace, tmp_path):
        record = json.loads((workspace / "data" / "run.json").read_text())
        rerun = tmp_path / "data2"
        assert main(rebuild_argv(record, str(rerun))) == 0
        for name in sorted(os.listdir(workspace / "data")):
            if name == "run.json":
                continue
            assert (rerun / name).read_bytes() == (workspace / "data" / name).read_bytes(), name
