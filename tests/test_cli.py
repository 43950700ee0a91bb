import dataclasses
import errno
import functools
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cograca
import cograca.pipeline
from cograca import cli
from cograca.cli import full_help_text, main, rebuild_argv
from cograca.data import SyntheticConfig, generate_synthetic, load_dataset, load_model
from cograca.numerics import _derive_seed
from cograca.pipeline import TrainConfig

from conftest import (
    dead_visit_encoder, nothing_left, rewrite_model_header, usable_cpus, with_array_shape,
)

HERE = Path(__file__).parent
SRC = str(Path(cograca.__file__).parents[1])

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


# each subcommand's required flags but --out; none of the paths is read,
# since an --out that cannot be a directory is refused before any handler runs
_COMMAND_ARGS = {
    "synth": ["synth"],
    "train": ["train", "--data", "d"],
    "fingerprint": ["fingerprint", "--data", "d", "--run", "r"],
    "baseline": ["baseline", "--kind", "pca-cca", "--data", "d"],
    "similarity": ["evaluate", "similarity", "--representations", "x.csv"],
    "classify": ["evaluate", "classify", "--representations", "x.csv", "--data", "d"],
    "attribute": ["evaluate", "attribute", "--representations", "x.csv", "--data", "d"],
    "interpret": ["evaluate", "interpret", "--data", "d", "--run", "r"],
    "report": ["report", "d"],
}


@pytest.mark.parametrize("where", ["a-file", "under-a-file", "unwritable"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_out_that_cannot_be_a_directory_exit_4(tmp_path, capsys, command, where):
    blocker = tmp_path / "taken"
    if where == "unwritable":
        if os.geteuid() == 0:
            pytest.skip("root may write under a read-only directory")
        blocker.mkdir(mode=0o500)
    else:
        blocker.write_text("keep me\n")
    out = blocker if where == "a-file" else blocker / "sub"
    try:
        code = main(_COMMAND_ARGS[command] + ["--out", str(out)])
    finally:
        if where == "unwritable":
            blocker.chmod(0o700)  # so that tmp_path can be removed
    assert code == 4
    reason = {"a-file": "File exists", "under-a-file": "Not a directory",
              "unwritable": "Permission denied"}[where]
    assert capsys.readouterr().err == (
        f"cograca: error[4]: --out {out}: cannot make the output directory ({reason})\n")
    assert os.listdir(tmp_path) == ["taken"]
    if where != "unwritable":
        assert blocker.read_text() == "keep me\n"


def test_out_on_a_read_only_file_system_exit_4(tmp_path, capsys, monkeypatch):
    def read_only(self, *args, **kwargs):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(self))

    monkeypatch.setattr(Path, "mkdir", read_only)
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        f"cograca: error[4]: --out {out}: cannot make the output directory "
        f"({os.strerror(errno.EROFS)})\n")
    assert os.listdir(tmp_path) == []


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


    def test_every_flag_reaches_the_config(self, tmp_path):
        # every SyntheticConfig field with a flag (label_latent has none)
        values = dict(subjects=6, two_visit_fraction=0.34, rois=9, d_cog=5, latent_dim=4,
                      signal=1.3, coupling=0.7, noise=0.4, planted_strength=0.6, seed=11)
        defaults = SyntheticConfig()
        assert set(values) == {f.name for f in dataclasses.fields(SyntheticConfig)} - {
            "label_latent"}
        assert all(v != getattr(defaults, k) for k, v in values.items())
        argv = ["synth", "--out", str(tmp_path)]
        for key, value in values.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert main(argv) == 0
        expected, truth = generate_synthetic(SyntheticConfig(**values))
        loaded = load_dataset(tmp_path)
        assert [(r.subject_id, r.visit) for r in loaded] == [
            (r.subject_id, r.visit) for r in expected]
        for got, want in zip(loaded, expected):
            assert got.graph.adjacency.tobytes() == want.graph.adjacency.tobytes()
            assert got.cognition.tobytes() == want.cognition.tobytes()
        latents = (tmp_path / "latents.csv").read_text().splitlines()[1:]
        assert [[float(v) for v in line.split(",")[1:]] for line in latents] == (
            truth.latents.tolist())


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

    def test_one_block_folds_start_no_thread(self, workspace, tmp_path):
        # every fold fits one visit block, so the encoder's lane pool is never made
        code = ("import sys, threading; from cograca.cli import main; "
                "code = main(sys.argv[1:]); "
                "print(code, threading.active_count(), 'concurrent.futures' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, *TRAIN_ARGS, "--data", str(workspace / "data"),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
        )
        assert proc.stdout.splitlines()[-1].split() == ["0", "1", "False"]

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

    def test_every_flag_reaches_the_model_config(self, workspace, tmp_path):
        # r must equal the dataset's d_cog (6) while the multimodal term is on
        values = dict(epochs=3, learning_rate=0.002, hidden_dim=7, r=6, d_r=3,
                      temperature=0.8, lambda1=1.2, lambda2=0.4, ridge=0.05, seed=2, folds=2)
        defaults = TrainConfig()
        assert set(values) == {f.name for f in dataclasses.fields(TrainConfig)}
        assert all(v != getattr(defaults, k) for k, v in values.items())
        argv = ["train", "--data", str(workspace / "data"), "--out", str(tmp_path)]
        for key, value in values.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert main(argv) == 0
        for fold in range(2):
            # each fold trains with its own seed derived from --seed
            expected = TrainConfig(**{**values, "seed": _derive_seed(2, fold)})
            assert load_model(tmp_path / f"fold_{fold}.cgmodel").config == expected

    def test_ablation_recorded_as_graca(self, workspace, tmp_path):
        out = tmp_path / "ablate"
        assert main(TRAIN_ARGS + [
            "--lambda1", "0.0", "--lambda2", "0.0",
            "--data", str(workspace / "data"), "--out", str(out),
        ]) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["model_kind"] == "GraCa"


# (subcommand, field) for every float field of the two configs; each has a flag
FLAGGED_FLOATS = [
    (command, f.name)
    for command, config_type in (("synth", SyntheticConfig), ("train", TrainConfig))
    for f in dataclasses.fields(config_type)
    if "float" in str(f.type)
]


class TestConfigFlags:
    """The synth and train flags are their config's fields: a run without
    optional flags uses the library defaults, and a value the config rejects
    stops the run before it writes a file."""

    def test_synth_defaults_are_the_library_defaults(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == 0
        expected = dataclasses.asdict(SyntheticConfig())
        del expected["label_latent"]  # the one field without a flag
        assert json.loads((tmp_path / "run.json").read_text())["config"] == expected

    def test_train_defaults_are_the_library_defaults(self, workspace, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cross_validate",
                            lambda records, cfg: seen.append(cfg) or ([], []))
        assert main(["train", "--data", str(workspace / "data"), "--out", str(tmp_path)]) == 0
        assert seen == [TrainConfig()]
        expected = {**dataclasses.asdict(TrainConfig()), "ridge": "scaled",
                    "data": str(workspace / "data")}
        assert json.loads((tmp_path / "run.json").read_text())["config"] == expected

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,name", FLAGGED_FLOATS)
    def test_nonfinite_value_exit_4_before_any_file(self, workspace, tmp_path, capsys,
                                                    command, name, value):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), f"--{name.replace('_', '-')}={value}"]
        if command == "train":
            argv += ["--data", str(workspace / "data")]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"cograca: error[4]: {name} must be finite, got {float(value)}\n")
        assert list(out.iterdir()) == []

    def test_nonfinite_loss_is_one_stderr_line(self, workspace, tmp_path):
        proc = _train_warnings_as_errors(workspace, tmp_path, "--temperature", "1e-320")
        assert proc.returncode == 5
        assert proc.stderr.startswith("cograca: error[5]: non-finite loss at epoch 0")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--learning-rate", "1e308"),  # the step overflows the weights
        ("--temperature", "1e-300"),  # a finite loss whose gradient overflows the moments
    ])
    def test_nonfinite_adam_step_exit_5(self, workspace, tmp_path, capsys, flag, value):
        argv = TRAIN_ARGS + [flag, value, "--data", str(workspace / "data")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.startswith(
            "cograca: error[5]: non-finite Adam step at epoch 0: corr=")
        proc = _train_warnings_as_errors(workspace, tmp_path, flag, value)
        assert proc.returncode == 5
        assert proc.stderr.startswith("cograca: error[5]: non-finite Adam step at epoch 0")
        assert proc.stderr.count("\n") == 1

    def test_multi_block_nonfinite_embedding_is_one_stderr_line(self, tmp_path):
        # 60 visits at 100 ROIs: each fold trains on four visit blocks, which
        # run on every usable CPU, each under the caller's numpy error state
        data = tmp_path / "data"
        assert main(["synth", "--subjects", "40", "--rois", "100", "--out", str(data)]) == 0
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cograca", "train",
             "--epochs", "2", "--learning-rate", "1e300", "--data", str(data),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=False,
        )
        assert proc.returncode == 5
        assert proc.stderr == "cograca: error[5]: non-finite embedding at epoch 1\n"

    def test_dead_visit_exit_5(self, workspace, tmp_path, capsys, monkeypatch):
        # a training failure on well-formed input, not a validation error (4)
        monkeypatch.setattr(cograca.pipeline, "encode_batch", dead_visit_encoder(0, epoch=2))
        argv = TRAIN_ARGS + ["--data", str(workspace / "data"), "--out", str(tmp_path / "o")]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert re.fullmatch(r"cograca: error\[5\]: dead visit at epoch 2: zero-norm pooled "
                            r"embedding for subject 's\d{3}' visit [12]\n", err)


def _train_warnings_as_errors(workspace, tmp_path, *flags):
    """`cograca train` on the workspace cohort in a fresh interpreter, outside
    pytest's warning capture, with numpy's RuntimeWarnings turned into errors."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cograca", *TRAIN_ARGS, *flags,
         "--data", str(workspace / "data"), "--out", str(tmp_path / "warned")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=False,
    )


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

    def test_wrong_rank_model_array_exit_4(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run", run)
        rewrite_model_header(run / "fold_1.cgmodel",
                             with_array_shape("w1", lambda s: [s[0] * s[1]]))
        assert main(["fingerprint", "--data", str(workspace / "data"),
                     "--run", str(run), "--out", str(tmp_path / "fp")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cograca: error[4]:")
        assert "fold_1.cgmodel: array w1 has shape" in err

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_missing_config_field_exit_4(self, workspace, tmp_path, capsys, field):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run", run)

        def drop(header):
            del header["config"][field]
            return header

        rewrite_model_header(run / "fold_0.cgmodel", drop)
        assert main(["fingerprint", "--data", str(workspace / "data"),
                     "--run", str(run), "--out", str(tmp_path / "fp")]) == 4
        assert capsys.readouterr().err == (
            f"cograca: error[4]: {run / 'fold_0.cgmodel'}: model header is missing "
            f"'{field}'\n")

    @pytest.mark.parametrize("command", ["fingerprint", "interpret"])
    @pytest.mark.parametrize("record", ["synth", "not-object", "no-folds"])
    def test_run_record_not_from_train_exit_4(self, workspace, tmp_path, capsys,
                                              command, record):
        # each of these once exited 1 (KeyError or TypeError)
        if record == "synth":
            run = workspace / "data"
        else:
            run = tmp_path / "run"
            shutil.copytree(workspace / "run", run)
            content = json.loads((run / "run.json").read_text())
            if record == "not-object":
                content = [1, 2]
            else:
                del content["config"]["folds"]
            (run / "run.json").write_text(json.dumps(content))
        prefix = ["fingerprint"] if command == "fingerprint" else ["evaluate", "interpret"]
        assert main(prefix + ["--data", str(workspace / "data"), "--run", str(run),
                              "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"cograca: error[4]: {run / 'run.json'}: ")

    @pytest.mark.parametrize("command", ["fingerprint", "interpret"])
    def test_data_other_than_the_training_data_exit_4(self, workspace, tmp_path, capsys,
                                                        command):
        # the run's folds rebuilt over a smaller cohort hold other visits, so a
        # fold model would score visits it trained on as held out
        data = tmp_path / "data"
        assert main(SYNTH_ARGS + ["--subjects", "8", "--out", str(data)]) == 0
        capsys.readouterr()
        prefix = ["fingerprint"] if command == "fingerprint" else ["evaluate", "interpret"]
        assert main(prefix + ["--data", str(data), "--run", str(workspace / "run"),
                              "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            f"cograca: error[4]: {workspace / 'run' / 'fold_0.cgmodel'}: not trained on "
            "--data's fold 0 training visits; training visit 0 is ('s000', 1) in --data but "
            "('s001', 1) in the model\n")

    def test_directory_as_model_file_exit_3(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run", run)
        (run / "fold_1.cgmodel").unlink()
        (run / "fold_1.cgmodel").mkdir()
        assert main(["fingerprint", "--data", str(workspace / "data"),
                     "--run", str(run), "--out", str(tmp_path / "fp")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cograca: error[3]:")
        assert f"{run / 'fold_1.cgmodel'} (Is a directory)" in err

    @pytest.mark.parametrize("content", ["", "# comment only\n"], ids=["empty", "comment"])
    def test_empty_connectivity_csv_one_error_line(self, workspace, tmp_path, content):
        # a fresh interpreter, so a warning would reach stderr as it does
        # for a user rather than pytest's warning capture
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        victim = sorted(data.glob("connectivity_*.csv"))[0]
        victim.write_text(content)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "cograca", "fingerprint", "--data", str(data),
             "--run", str(workspace / "run"), "--out", str(tmp_path / "fp")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 4
        assert proc.stderr == f"cograca: error[4]: {victim}: matrix CSV holds no numbers\n"


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

    def test_fold_defaults_are_the_train_defaults(self):
        # a baseline must cut the folds that a train run with default flags cuts
        args = cli.build_parser().parse_args(
            ["baseline", "--kind", "pca-cca", "--data", "d", "--out", "o"])
        assert (args.folds, args.seed) == (TrainConfig().folds, TrainConfig().seed)


# each rewrites the fields of one representation row
_ROW_DAMAGE = {
    "short": lambda f: f[:3],
    "blank": lambda f: [""],
    "visit": lambda f: [f[0], "two"] + f[2:],
    "fold": lambda f: f[:2] + ["1.5"] + f[3:],
    "text": lambda f: f[:-1] + ["x"],
    "nan": lambda f: f[:-1] + ["nan"],
}


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

    @pytest.mark.parametrize("analysis,flag,value", [
        ("classify", "--repeats", "0"),
        ("classify", "--repeats", "-2"),
        ("classify", "--epochs", "0"),
        ("classify", "--epochs", "-3"),
        ("attribute", "--epochs", "0"),
        ("attribute", "--epochs", "-3"),
    ])
    def test_mlp_counts_below_one_exit_4(self, workspace, tmp_path, capsys,
                                         analysis, flag, value):
        # --repeats 0 and --epochs 0 once exited 0 with a NaN or an untrained
        # MLP; --repeats -2 exited 4 with a numpy message
        out = tmp_path / "o"
        assert main(["evaluate", analysis,
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--data", str(workspace / "data"), flag, value, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"cograca: error[4]: MLP {flag[2:]} must be at least 1, got {value}\n"
        assert not (out / "metrics.json").exists()

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

    def test_attribute_writes_the_csv_fold_ids(self, workspace, tmp_path):
        # the fold column once held each fold's position (0, 1, 2) in place
        # of its id; the ids and everything else must come through as read
        lines = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()
        shifted = [lines[0]] + [
            ",".join(f[:2] + [str(int(f[2]) + 1)] + f[3:])
            for f in (line.split(",") for line in lines[1:])
        ]
        reps = tmp_path / "reps.csv"
        reps.write_text("\n".join(shifted) + "\n")
        outs = {}
        for name, path in (("zero", workspace / "fp" / "fingerprints.csv"), ("one", reps)):
            outs[name] = tmp_path / name
            assert main(["evaluate", "attribute", "--representations", str(path),
                         "--data", str(workspace / "data"), "--epochs", "10",
                         "--out", str(outs[name])]) == 0
        zero, one = ((outs[k] / "attribution.csv").read_text().splitlines()
                     for k in ("zero", "one"))
        assert {line.split(",")[2] for line in one[1:]} == {"1", "2", "3"}
        assert one[0] == zero[0]
        for a, b in zip(zero[1:], one[1:]):
            fa, fb = a.split(","), b.split(",")
            assert int(fb[2]) == int(fa[2]) + 1
            assert fa[:2] + fa[3:] == fb[:2] + fb[3:]

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
    @pytest.mark.parametrize("damage", sorted(_ROW_DAMAGE))
    def test_malformed_representation_row_exit_4(self, workspace, tmp_path, capsys,
                                                 analysis, damage):
        lines = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()
        # physical line 3 of the file (the header is line 1)
        lines[2] = ",".join(_ROW_DAMAGE[damage](lines[2].split(",")))
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

    @pytest.mark.parametrize("analysis", ["similarity", "classify", "attribute"])
    def test_header_only_representations_exit_4(self, workspace, tmp_path, capsys, analysis):
        # attribute once exited 1 with an IndexError here
        header = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()[0]
        reps = tmp_path / "reps.csv"
        reps.write_text(header + "\n")
        argv = ["evaluate", analysis, "--representations", str(reps),
                "--out", str(tmp_path / "o")]
        if analysis != "similarity":
            argv += ["--data", str(workspace / "data"), "--epochs", "2"]
        assert main(argv) == 4
        assert "reps.csv: no feature columns or no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("analysis", ["similarity", "classify", "attribute"])
    def test_repeated_representation_row_exit_4(self, workspace, tmp_path, capsys, analysis):
        # a repeated row once passed, and in similarity counted as a same-subject pair
        lines = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()
        reps = tmp_path / "reps.csv"
        reps.write_text("\n".join(lines + [lines[1]]) + "\n")
        argv = ["evaluate", analysis, "--representations", str(reps),
                "--out", str(tmp_path / "o")]
        if analysis != "similarity":
            argv += ["--data", str(workspace / "data"), "--epochs", "2"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"reps.csv: row {len(lines) + 1}: duplicate (subject, visit)" in err

    def test_repeated_label_row_exit_4(self, workspace, tmp_path, capsys):
        # a conflicting second label for a visit once replaced the first
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        lines = (data / "labels.csv").read_text().splitlines()
        subject, visit, label = lines[1].split(",")
        (data / "labels.csv").write_text(
            "\n".join(lines + [f"{subject},{visit},{1 - int(label)}"]) + "\n")
        assert main(["evaluate", "classify",
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--data", str(data), "--epochs", "2", "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"labels.csv: row {len(lines) + 1}: duplicate (subject, visit)" in err

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

    def test_directory_named_metrics_json_exit_3(self, tmp_path, capsys):
        # once exited 1 with IsADirectoryError
        (tmp_path / "runs" / "a" / "metrics.json").mkdir(parents=True)
        assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cograca: error[3]: missing input file: ")
        assert str(tmp_path / "runs" / "a" / "metrics.json") in err

    @pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe{", b"[" * 100_000],
                             ids=["malformed", "undecodable", "too-deep"])
    def test_bad_metrics_json_exit_4_names_file(self, tmp_path, capsys, content):
        # malformed JSON once exited 4 with only json's message, not the file
        victim = tmp_path / "runs" / "a" / "metrics.json"
        victim.parent.mkdir(parents=True)
        victim.write_bytes(content)
        assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"cograca: error[4]: {victim}: not a JSON file")
        assert not (tmp_path / "o" / "report.json").exists()


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

    def test_attribute_rerun_is_byte_identical(self, workspace, tmp_path):
        first = tmp_path / "att"
        assert main(["evaluate", "attribute",
                     "--representations", str(workspace / "fp" / "fingerprints.csv"),
                     "--data", str(workspace / "data"),
                     "--epochs", "10", "--out", str(first)]) == 0
        record = json.loads((first / "run.json").read_text())
        rerun = tmp_path / "att2"
        assert main(rebuild_argv(record, str(rerun))) == 0
        for name in ("attribution.csv", "attribution_summary.csv", "metrics.json"):
            assert (rerun / name).read_bytes() == (first / name).read_bytes(), name

    def test_synth_rerun_is_byte_identical(self, workspace, tmp_path):
        record = json.loads((workspace / "data" / "run.json").read_text())
        rerun = tmp_path / "data2"
        assert main(rebuild_argv(record, str(rerun))) == 0
        for name in sorted(os.listdir(workspace / "data")):
            if name == "run.json":
                continue
            assert (rerun / name).read_bytes() == (workspace / "data" / name).read_bytes(), name


# `cograca` in a fresh interpreter on n usable CPUs: pinned to n of the
# host's when it has them, else forking all the same on a patched count.
# The last stdout line says whether a child process outlived the command.
_ON_CPUS = """
import os, sys
n, argv = int(sys.argv[1]), sys.argv[2:]
cpus = sorted(os.sched_getaffinity(0))
if len(cpus) >= n:
    os.sched_setaffinity(0, cpus[:n])
else:
    mask = [set(range(n))]
    os.sched_getaffinity = lambda pid: set(mask[0])
    os.sched_setaffinity = lambda pid, m: mask.__setitem__(0, set(m))
from cograca.cli import main
code = main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child left")
sys.exit(code)
"""

_FOLD_COMMANDS = {
    "train": lambda ws: TRAIN_ARGS + ["--data", ws / "data"],
    "classify": lambda ws: ["evaluate", "classify", "--representations",
                            ws / "fp" / "fingerprints.csv", "--data", ws / "data",
                            "--repeats", "2", "--epochs", "20"],
    "attribute": lambda ws: ["evaluate", "attribute", "--representations",
                             ws / "fp" / "fingerprints.csv", "--data", ws / "data",
                             "--epochs", "20"],
    "ica-cca": lambda ws: ["baseline", "--kind", "ica-cca", "--data", ws / "data",
                           "--n-components", "4"],
    "nonfinite-exit-5": lambda ws: TRAIN_ARGS + ["--data", ws / "data",
                                                 "--temperature", "1e-320"],
    "fold-too-small-exit-4": lambda ws: TRAIN_ARGS + ["--data", ws / "data", "--d-r", "9"],
}


class TestForkedFolds:
    """The fold loops run on one forked worker per usable CPU; the command's
    files, stdout, stderr and exit code are those of one CPU."""

    @pytest.mark.parametrize("command", sorted(_FOLD_COMMANDS))
    def test_two_cpus_match_one(self, workspace, tmp_path, command):
        outcomes = []
        for n in (1, 2):
            cwd = tmp_path / f"cpus{n}"
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", _ON_CPUS, str(n),
                 *map(str, _FOLD_COMMANDS[command](workspace)), "--out", "out"],
                cwd=cwd, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                check=False,
            )
            files = {p.relative_to(cwd).as_posix(): p.read_bytes()
                     for p in sorted(cwd.rglob("*")) if p.is_file() and p.name != "run.json"}
            outcomes.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert outcomes[1] == outcomes[0]
        code, stdout, stderr, files = outcomes[0]
        assert stdout.splitlines()[-1] == "no child left"
        assert code == {"nonfinite-exit-5": 5, "fold-too-small-exit-4": 4}.get(command, 0)
        assert code != 0 or files

    # (features, the fold whose training labels hold one class, the stderr
    # of one CPU): a fold's MLP error is raised after the Shapley errors of
    # every earlier fold, as the fold loop met them before it was two maps
    @pytest.mark.parametrize("d, single, stderr", [
        (4, None, ""),
        (4, 2, "cograca: error[4]: training labels contain a single class\n"),
        (21, 0, "cograca: error[4]: training labels contain a single class\n"),
        (21, 2, "cograca: error[4]: 21 features means 2^21 coalitions; use "
                "shapley_attribution_mc instead\n"),
    ], ids=["ok", "one-class-fold", "wide-one-class-first-fold", "wide-one-class-last-fold"])
    def test_attribute_on_one_two_three_cpus(self, workspace, tmp_path, d, single, stderr):
        lines = (workspace / "fp" / "fingerprints.csv").read_text().splitlines()
        rows = [line.split(",")[:4] for line in lines[1:]]
        rng = np.random.default_rng(d)
        reps = tmp_path / "reps.csv"
        reps.write_text("\n".join(
            [",".join(lines[0].split(",")[:4] + [f"f{j}" for j in range(d)])]
            + [",".join(row + [repr(v) for v in rng.normal(size=d).tolist()]) for row in rows]) + "\n")
        labels = tmp_path / "data" / "labels.csv"
        labels.parent.mkdir()
        folds = sorted({int(row[2]) for row in rows})
        if single is None:
            labels.write_text((workspace / "data" / "labels.csv").read_text())
        else:
            # the other folds all 1, so fold `single` trains on one class; its own
            # visits 0, so every other fold trains on two
            labels.write_text("subject_id,visit,attribute\n" + "".join(
                f"{s},{v},{int(int(f) != folds[single])}\n" for s, v, f, _ in rows))
        outcomes = []
        for n in (1, 2, 3):
            cwd = tmp_path / f"cpus{n}"
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", _ON_CPUS, str(n), "evaluate", "attribute",
                 "--representations", str(reps), "--data", str(labels.parent),
                 "--epochs", "20", "--out", "out"],
                cwd=cwd, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                check=False,
            )
            files = {p.relative_to(cwd).as_posix(): p.read_bytes()
                     for p in sorted(cwd.rglob("*")) if p.is_file() and p.name != "run.json"}
            outcomes.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        code, stdout, err, files = outcomes[0]
        assert stdout.splitlines()[-1] == "no child left"
        assert (code, err) == ((0, "") if single is None else (4, stderr))
        assert len(files) == (3 if single is None else 0)

    def test_dead_visit_in_a_worker_exit_5(self, workspace, tmp_path, capsys, monkeypatch):
        # every fold's worker sees its visit die; the first fold's is the one reported
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(cograca.pipeline, "encode_batch", dead_visit_encoder(0, epoch=2))
        argv = TRAIN_ARGS + ["--data", str(workspace / "data"), "--out", str(tmp_path / "o")]
        assert main(argv) == 5
        forked = capsys.readouterr().err
        usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(cograca.pipeline, "encode_batch", dead_visit_encoder(0, epoch=2))
        assert main(argv) == 5
        assert capsys.readouterr().err == forked
        assert forked.startswith("cograca: error[5]: dead visit at epoch 2:")
        assert nothing_left()

    def test_attribute_warnings_on_two_cpus_match_one(self, workspace, tmp_path, capsys,
                                                      monkeypatch):
        # each fold's MLP fit and each Shapley visit warns once; the warnings
        # print as Python prints them, whichever process raised them
        fit, shapley = cli.train_mlp, cli.shapley_attribution

        @functools.wraps(fit)  # the parser reads the default of its epochs
        def warned_fit(x, y, **kwargs):
            warnings.warn(f"MLP fit on {len(y)} visits summing to {x.sum()!r}")
            return fit(x, y, **kwargs)

        def warned_shapley(clf, x, baseline):
            warnings.warn(f"Shapley visit summing to {x.sum()!r}")
            return shapley(clf, x, baseline)

        monkeypatch.setattr(cli, "train_mlp", warned_fit)
        monkeypatch.setattr(cli, "shapley_attribution", warned_shapley)
        monkeypatch.setattr(warnings, "showwarning",
                            lambda message, category, filename, lineno, file=None, line=None:
                            sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                                    lineno, line)))
        stderr = []
        for n in (2, 1):
            usable_cpus(monkeypatch, n)
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                assert main(["evaluate", "attribute", "--representations",
                             str(workspace / "fp" / "fingerprints.csv"), "--data",
                             str(workspace / "data"), "--epochs", "20",
                             "--out", str(tmp_path / f"cpus{n}")]) == 0
            stderr.append(capsys.readouterr().err)
        assert stderr[0] == stderr[1]
        kinds = [line.split(": ")[2].split()[0] for line in stderr[0].splitlines()
                 if "UserWarning" in line]
        assert kinds == ["MLP"] * 3 + ["Shapley"] * len(load_dataset(workspace / "data"))
        assert nothing_left()
