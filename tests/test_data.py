import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cograca
from cograca import data
from cograca.data import (
    DataValidationError,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_labels,
    load_model,
    read_matrix_csv,
    save_model,
    synthesize_to_disk,
    read_csv,
    write_csv,
    write_matrix_csv,
)
from cograca.pipeline import TrainConfig, train_model

from conftest import rewrite_model_header, traced_peak, usable_cpus, with_array_shape

SRC = str(Path(cograca.__file__).parents[1])

SMALL = SyntheticConfig(subjects=8, rois=10, d_cog=6, latent_dim=3, seed=11)


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        mat = rng.standard_normal((7, 5)) * np.pi
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        back = read_matrix_csv(path)
        assert np.array_equal(back, mat)

    def test_extreme_values_round_trip(self, tmp_path):
        mat = np.array([[1e-308, -1e300], [0.1 + 0.2, 1 / 3]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        assert np.array_equal(read_matrix_csv(path), mat)

    def test_mixed_rows_bytes_pinned(self, tmp_path):
        # the one CSV codec: "\n" line ends, repr floats, no quoting, and a
        # trailing newline; the reader gives the fields back as strings
        path = tmp_path / "t.csv"
        rows = [["s001", 2, 0.1 + 0.2, np.float64(1e-308)], ["s002", np.int64(-3), 1.0, -2.5]]
        write_csv(path, rows, header=["subject_id", "visit", "a", "b"])
        assert path.read_bytes() == (
            b"subject_id,visit,a,b\n"
            b"s001,2,0.30000000000000004,1e-308\n"
            b"s002,-3,1.0,-2.5\n"
        )
        header, back = read_csv(path)
        assert header == ["subject_id", "visit", "a", "b"]
        assert back == [["s001", "2", "0.30000000000000004", "1e-308"],
                        ["s002", "-3", "1.0", "-2.5"]]

    def test_garbage_raises_validation_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\nfoo,4.0\n")
        with pytest.raises(DataValidationError):
            read_matrix_csv(path)


class TestSynthetic:
    def test_deterministic(self):
        r1, t1 = generate_synthetic(SMALL)
        r2, t2 = generate_synthetic(SMALL)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert a.subject_id == b.subject_id and a.visit == b.visit
            assert np.array_equal(a.graph.adjacency, b.graph.adjacency)
            assert np.array_equal(a.cognition, b.cognition)
        assert np.array_equal(t1.latents, t2.latents)

    def test_visit_structure(self):
        records, truth = generate_synthetic(SMALL)
        # default two-visit fraction 0.5: 4 of 8 subjects get a second visit
        assert len(records) == 8 + 4
        two_visit = {r.subject_id for r in records if r.visit == 2}
        assert len(two_visit) == 4
        assert len(truth.subject_ids) == 8
        assert truth.labels.shape == (8,)
        assert set(truth.labels.tolist()) <= {0, 1}

    def test_graphs_are_valid(self):
        records, _ = generate_synthetic(SMALL)
        for r in records:
            adj = r.graph.adjacency
            assert np.array_equal(adj, adj.T)
            assert np.allclose(np.diag(adj), 1.0)
            assert np.all(adj >= 0)
            assert r.cognition.shape == (6,)

    def test_seed_changes_data(self):
        r1, _ = generate_synthetic(SMALL)
        r2, _ = generate_synthetic(dataclasses.replace(SMALL, seed=12))
        assert not np.array_equal(r1[0].graph.adjacency, r2[0].graph.adjacency)

    def test_planted_edge_recorded(self):
        cfg = dataclasses.replace(SMALL, planted_strength=2.0)
        _, truth = generate_synthetic(cfg)
        assert truth.planted_edge == (0, 1)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(subjects=0)
        with pytest.raises(ValueError):
            SyntheticConfig(two_visit_fraction=1.5)
        with pytest.raises(ValueError, match="degenerate"):
            SyntheticConfig(signal=0.0, noise=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(coupling=1.2)
        with pytest.raises(ValueError):
            SyntheticConfig(label_latent=99)


def _cohort_digest(records, truth) -> str:
    """sha256 over every visit's keys, adjacency, attributes and cognition,
    then the generator's truth, all as little-endian bytes."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.subject_id},{r.visit};".encode())
        for arr in (r.graph.adjacency, r.graph.attributes, r.cognition):
            h.update(np.asarray(arr, dtype="<f8").tobytes())
    for arr in (truth.latents, truth.mixing, truth.cognitive_map):
        h.update(np.asarray(arr, dtype="<f8").tobytes())
    h.update(np.asarray(truth.labels, dtype="<i8").tobytes())
    h.update(repr((truth.subject_ids, truth.planted_edge)).encode())
    return h.hexdigest()


def _cohort_bytes(records) -> int:
    return sum(r.graph.adjacency.nbytes + r.cognition.nbytes for r in records)


# sha256 digests of generated cohorts and `synth` files: the generator's draw
# order is part of its contract, so no refactor of it may move a byte
PINNED_COHORTS = {
    "default": (
        SyntheticConfig(),
        "1b94b5055c750a2d4d095879257c0bf579d9348a02c0462b40bc8d0dc9653a21",
    ),
    "planted": (
        SyntheticConfig(planted_strength=1.0, seed=3),
        "45798e843291a579d754e2041d952d8f8346883574d3148a67961f2154848b6c",
    ),
    # 450 visits at 60 ROIs: many draw chunks, so drawn ahead on a second CPU
    "wide": (
        SyntheticConfig(subjects=300, rois=60),
        "aadb22c5d5fea0e7975af81ca05aee964166d419447d3ecc80fa22f61341c4c3",
    ),
    "wide-planted": (
        SyntheticConfig(subjects=300, rois=60, planted_strength=1.0, seed=3),
        "16ec6a70bf5dc41edd12c3b859a8afefe151582d13c01ae67ef30b5e8ce262c2",
    ),
}
PINNED_FILES = {
    "manifest.csv": "a921d0fcde8db098f54db5b286e03474d4dae11d92de1d2ebbd2c3e12e8cd61c",
    "labels.csv": "54c5dbadff1ed2db4057e4970a41d2836ebb53f0be81c779921bc4a5fbffc499",
    "latents.csv": "e5e812ba173d51e67febd6a11acd9a32a46b3084840656ac4b2d7c45fb42c77e",
    "connectivity_*.csv": "ef284d30cccc1be113a90807eb200c955d6ca4557d2ca8b800effbcd01d0bd4e",
}
PINNED_WIDE_FILES = {
    "manifest.csv": "546351c1ed3f8954ec4e45f319140a0f0204b2f868a51f029b57eab4b1b5b589",
    "labels.csv": "08a72f12b0ff93b0e4bfbf55674600b6e24d0063ac6d2c9f1377bcd175e269bf",
    "latents.csv": "ac9a8c5b2d9c144023d3fa47896e0f6b75819dc80d432c29b2e588d63bc4f574",
    "connectivity_*.csv": "47b784ac1b24a034a5d756f764aca403d82eae40a0cb6feb8dd4b6d0fb75fce0",
}


def _file_digests(root, names) -> dict[str, str]:
    """sha256 of each named file in root; the pattern connectivity_*.csv
    digests every match's name and bytes in name order."""
    digests = {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
               for name in names if "*" not in name}
    conn = hashlib.sha256()
    for path in sorted(root.glob("connectivity_*.csv")):
        conn.update(path.name.encode() + b"\0" + path.read_bytes())
    digests["connectivity_*.csv"] = conn.hexdigest()
    return digests


class TestPinnedCohort:
    @pytest.mark.parametrize("name", sorted(PINNED_COHORTS))
    def test_generated_cohort_digest(self, name):
        cfg, digest = PINNED_COHORTS[name]
        assert _cohort_digest(*generate_synthetic(cfg)) == digest

    def test_synth_files_digest(self, tmp_path):
        cfg, digest = PINNED_COHORTS["default"]
        assert _cohort_digest(*synthesize_to_disk(cfg, tmp_path)) == digest
        assert _file_digests(tmp_path, PINNED_FILES) == PINNED_FILES
        assert len(list(tmp_path.iterdir())) == 3 + len(load_dataset(tmp_path))

    def test_multi_chunk_synth_files_digest(self, tmp_path):
        cfg, digest = PINNED_COHORTS["wide"]
        assert _cohort_digest(*synthesize_to_disk(cfg, tmp_path)) == digest
        assert _file_digests(tmp_path, PINNED_WIDE_FILES) == PINNED_WIDE_FILES


class TestGeneratorMemory:
    # the generator holds one raw matrix at a time: its tracemalloc peak is
    # the cohort it returns plus a few V x V temporaries, not two cohorts
    CFG = SyntheticConfig(subjects=300, rois=60)

    def test_generate_peak_is_one_cohort(self):
        peak, (records, _) = traced_peak(generate_synthetic, self.CFG)
        assert peak <= 1.25 * _cohort_bytes(records)

    def test_synthesize_peak_is_one_cohort(self, tmp_path):
        peak, (records, _) = traced_peak(synthesize_to_disk, self.CFG, tmp_path)
        assert peak <= 1.25 * _cohort_bytes(records)


class _Recorded(threading.Thread):
    """threading.Thread, recording every thread started, each of which
    lingers a moment after its target returns: one not joined by the call
    that started it is still alive when that call returns."""

    threads: list[threading.Thread] = []

    def start(self):
        _Recorded.threads.append(self)
        super().start()

    def run(self):
        super().run()
        time.sleep(0.2)

    @classmethod
    def started(cls) -> list[str]:
        """The names of the threads started, none of which may be alive."""
        assert not any(t.is_alive() for t in cls.threads)
        return [t.name for t in cls.threads]


class TestDrawAhead:
    """A cohort of more than one draw chunk has its random numbers drawn by
    a producer thread when the host has a second usable CPU: the records
    and files are those of one CPU, and no thread outlives the call."""

    WIDE = PINNED_COHORTS["wide"][0]

    @pytest.fixture(autouse=True)
    def record_threads(self, monkeypatch):
        monkeypatch.setattr(threading, "Thread", _Recorded)
        _Recorded.threads = []
        before = set(threading.enumerate())
        yield
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("name", ["wide", "wide-planted"])
    def test_one_and_two_cpus_give_the_pinned_cohort(self, monkeypatch, name):
        cfg, digest = PINNED_COHORTS[name]
        for n, threads in ((1, []), (2, ["cograca-lane"])):
            usable_cpus(monkeypatch, n)
            _Recorded.threads = []
            assert _cohort_digest(*generate_synthetic(cfg)) == digest
            assert _Recorded.started() == threads

    def test_one_and_two_cpus_write_the_pinned_files(self, monkeypatch, tmp_path):
        cfg, digest = PINNED_COHORTS["wide"]
        written = []
        for n in (1, 2):
            usable_cpus(monkeypatch, n)
            root = tmp_path / f"cpus{n}"
            assert _cohort_digest(*synthesize_to_disk(cfg, root)) == digest
            written.append({p.name: p.read_bytes() for p in sorted(root.iterdir())})
        assert written[0] == written[1]
        assert _file_digests(tmp_path / "cpus2", PINNED_WIDE_FILES) == PINNED_WIDE_FILES
        assert _Recorded.started() == ["cograca-lane"]

    def test_fast_thread_switching_keeps_the_pinned_cohort(self, monkeypatch):
        # a chunk refilled while the caller still reads it would change the digest
        usable_cpus(monkeypatch, 2)
        cfg, digest = PINNED_COHORTS["wide"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _cohort_digest(*generate_synthetic(cfg)) == digest
        finally:
            sys.setswitchinterval(interval)
        assert _Recorded.started() == ["cograca-lane"]

    @pytest.mark.parametrize("visits_per_chunk", [1, 7])
    def test_chunk_size_does_not_change_a_draw(self, monkeypatch, visits_per_chunk):
        # the default cohort split into chunks, the last one short for 7
        cfg, digest = PINNED_COHORTS["default"]
        per_visit = cfg.rois ** 2 + cfg.latent_dim + cfg.d_cog
        monkeypatch.setattr(data, "_DRAW_CHUNK_BYTES", 8 * per_visit * visits_per_chunk)
        for n, threads in ((1, []), (2, ["cograca-lane"])):
            usable_cpus(monkeypatch, n)
            _Recorded.threads = []
            assert _cohort_digest(*generate_synthetic(cfg)) == digest
            assert _Recorded.started() == threads

    def test_one_chunk_cohort_starts_no_thread(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        cfg, digest = PINNED_COHORTS["default"]
        assert _cohort_digest(*generate_synthetic(cfg)) == digest
        assert _Recorded.started() == []

    def test_consumer_error_partway_joins_the_producer(self, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        writes = [0]

        def failing_write(path, matrix):
            writes[0] += 1
            if writes[0] == 100:
                raise OSError(28, "No space left on device")
            return write_matrix_csv(path, matrix)

        monkeypatch.setattr(data, "write_matrix_csv", failing_write)
        with pytest.raises(OSError, match="No space left"):
            synthesize_to_disk(self.WIDE, tmp_path)
        assert _Recorded.started() == ["cograca-lane"]
        assert writes[0] == 100

    @pytest.mark.parametrize("argv", [["synth"], ["synth", "--subjects", "40", "--rois", "100"]],
                             ids=["default", "wide"])
    def test_synth_in_a_fresh_interpreter_leaves_one_thread(self, tmp_path, argv):
        code = ("import sys, threading; from cograca.cli import main; "
                "code = main(sys.argv[1:]); "
                "print(code, threading.active_count(), 'queue' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "data")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
        )
        code, threads, queue = proc.stdout.split()[-3:]
        assert (code, threads) == ("0", "1")
        if argv == ["synth"]:  # one chunk: no thread made, nothing imported for one
            assert queue == "False"


class TestDatasetRoundTrip:
    def test_disk_round_trip_is_bit_exact(self, tmp_path):
        written, _ = synthesize_to_disk(SMALL, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == len(written)
        for a, b in zip(written, loaded):
            assert (a.subject_id, a.visit) == (b.subject_id, b.visit)
            assert np.array_equal(a.graph.adjacency, b.graph.adjacency)
            assert np.array_equal(a.graph.attributes, b.graph.attributes)
            assert np.array_equal(a.cognition, b.cognition)

    def test_labels_round_trip(self, tmp_path):
        _, truth = synthesize_to_disk(SMALL, tmp_path)
        labels = load_labels(tmp_path)
        by_subject = dict(zip(truth.subject_ids, truth.labels))
        for (sid, _visit), y in labels.items():
            assert y == by_subject[sid]

    def test_latents_written(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        text = (tmp_path / "latents.csv").read_text().splitlines()
        assert text[0] == "subject_id," + ",".join(f"z_{i+1}" for i in range(3))
        assert len(text) == 1 + 8

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_dataset(tmp_path)

    def test_missing_connectivity_file(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        victim = next(tmp_path.glob("connectivity_*.csv"))
        victim.unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_duplicate_visit_rejected(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        manifest = tmp_path / "manifest.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(DataValidationError, match="duplicate"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_nonfinite_cognitive_score_names_row(self, tmp_path, score):
        # once a bare "cognitive scores must be a finite vector", naming no file
        synthesize_to_disk(SMALL, tmp_path)
        manifest = tmp_path / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1] + [score])
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="manifest.csv: row 4: cognitive scores"):
            load_dataset(tmp_path)

    def test_bad_cognitive_value_names_row(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        manifest = tmp_path / "manifest.csv"
        lines = manifest.read_text().splitlines()
        parts = lines[3].split(",")
        parts[-1] = "not_a_number"
        lines[3] = ",".join(parts)
        manifest.write_text("\n".join(lines) + "\n")
        # physical line 4 of the file (the header is line 1)
        with pytest.raises(DataValidationError, match="row 4"):
            load_dataset(tmp_path)

    def test_asymmetric_matrix_names_entry(self, tmp_path, rng):
        synthesize_to_disk(SMALL, tmp_path)
        victim = sorted(tmp_path.glob("connectivity_*.csv"))[0]
        mat = read_matrix_csv(victim)
        mat[0, 1] += 0.01
        write_matrix_csv(victim, mat)
        with pytest.raises(DataValidationError, match="symmet"):
            load_dataset(tmp_path)

    def test_out_of_range_entry_rejected(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        victim = sorted(tmp_path.glob("connectivity_*.csv"))[0]
        mat = read_matrix_csv(victim)
        mat[0, 1] = mat[1, 0] = 1.5
        write_matrix_csv(victim, mat)
        with pytest.raises(DataValidationError):
            load_dataset(tmp_path)

    def test_small_asymmetry_tolerated_and_symmetrized(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        victim = sorted(tmp_path.glob("connectivity_*.csv"))[0]
        mat = read_matrix_csv(victim)
        mat[0, 1] += 1e-8
        write_matrix_csv(victim, mat)
        records = load_dataset(tmp_path)
        adj = records[0].graph.adjacency
        assert np.array_equal(adj, adj.T)

    def test_node_count_mismatch_rejected(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        victim = sorted(tmp_path.glob("connectivity_*.csv"))[0]
        write_matrix_csv(victim, np.eye(4))
        with pytest.raises(DataValidationError, match="node"):
            load_dataset(tmp_path)

    def test_header_only_manifest_rejected(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataValidationError, match="manifest.csv: no visit rows"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("damage", ["undecodable", "oversized-field"])
    @pytest.mark.parametrize("name", ["manifest.csv", "labels.csv"])
    def test_unreadable_csv_names_file(self, tmp_path, name, damage):
        # each once escaped as UnicodeDecodeError or csv.Error, naming no file
        synthesize_to_disk(SMALL, tmp_path)
        path = tmp_path / name
        if damage == "undecodable":
            path.write_bytes(b"\xff" + path.read_bytes())
        else:
            path.write_text(path.read_text() + '"' + "x" * 200_000 + '"\n')
        load = load_dataset if name == "manifest.csv" else load_labels
        with pytest.raises(DataValidationError, match=f"{name}: unreadable CSV"):
            load(tmp_path)

    def test_missing_label_task_column(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        with pytest.raises(DataValidationError, match="no_such_task"):
            load_labels(tmp_path, task="no_such_task")


def _tiny_model():
    records, _ = generate_synthetic(SMALL)
    # r must match d_cog while the multimodal term is active
    cfg = TrainConfig(epochs=3, hidden_dim=6, r=6, d_r=4, seed=3)
    return train_model(records, cfg)


def _saved_with_header(tmp_path, damage):
    """Save a tiny model, then rewrite its JSON header through `damage`."""
    path = tmp_path / "m.cgmodel"
    save_model(_tiny_model(), path)
    rewrite_model_header(path, damage)
    return path


def _with_first_array(**changes):
    def damage(header):
        header["arrays"][0].update(changes)
        return header
    return damage


# valid JSON, wrong types: each once escaped as AttributeError or TypeError
_WRONG_TYPES = {
    "header-not-object": lambda header: [header],
    "arrays-not-list": lambda header: {**header, "arrays": {"w1": [3, 4]}},
    "array-spec-not-object": lambda header: {**header, "arrays": [["w1", [3, 4]]]},
    "name-not-string": _with_first_array(name=["w1"]),
    "shape-string": _with_first_array(shape="34"),
    "shape-nested": _with_first_array(shape=[[3, 4]]),
    "config-not-object": lambda header: {**header, "config": [1, 2]},
    "train-keys-not-pairs": lambda header: {**header, "train_keys": 5},
    # once exited 1 with OverflowError
    "config-value-infinite": lambda header: {
        **header, "config": {**header["config"], "epochs": float("inf")}},
}

# the same payload under a shape of the wrong rank or with dims that disagree
# between arrays: each once exited 1 (IndexError, TypeError) or loaded
_WRONG_SHAPES = {
    "w1-flattened": with_array_shape("w1", lambda s: [s[0] * s[1]]),
    "m1-matrix": with_array_shape("m1", lambda s: [2, s[0] // 2]),
    "r-transposed": with_array_shape("r", lambda s: s[::-1]),
    "u_brain-transposed": with_array_shape("u_brain", lambda s: s[::-1]),
    "u_cog-transposed": with_array_shape("u_cog", lambda s: s[::-1]),
    "eigenvalues-column": with_array_shape("eigenvalues", lambda s: s + [1]),
    "ridge_used-row": with_array_shape("ridge_used", lambda s: [1] + s),
    "brain_std-row": with_array_shape("brain_std", lambda s: [1] + s),
    "cog_mean-column": with_array_shape("cog_mean", lambda s: s + [1]),
    "loss_trace-transposed": with_array_shape("loss_trace", lambda s: s[::-1]),
}


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.cgmodel"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.params.w1, model.params.w1)
        assert np.array_equal(back.params.m2, model.params.m2)
        assert np.array_equal(back.solution.r, model.solution.r)
        assert np.array_equal(back.solution.u_cog, model.solution.u_cog)
        assert np.array_equal(back.stats.brain_mean, model.stats.brain_mean)
        assert np.array_equal(back.loss_trace, model.loss_trace)
        assert back.config == model.config
        assert back.train_keys == model.train_keys

    def test_save_load_save_byte_identical(self, tmp_path):
        model = _tiny_model()
        p1 = tmp_path / "a.cgmodel"
        p2 = tmp_path / "b.cgmodel"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_full_length_spectrum_still_loads(self, tmp_path):
        # earlier versions stored all N eigenvalues of P_b + P_c
        model = _tiny_model()
        n = len(model.train_keys)
        spectrum = np.zeros(n)
        spectrum[: model.solution.eigenvalues.shape[0]] = model.solution.eigenvalues
        old = dataclasses.replace(
            model, solution=dataclasses.replace(model.solution, eigenvalues=spectrum)
        )
        path = tmp_path / "m.cgmodel"
        save_model(old, path)
        back = load_model(path)
        assert np.array_equal(back.solution.eigenvalues, spectrum)
        assert np.array_equal(back.solution.r, model.solution.r)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "m.cgmodel"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataValidationError, match="magic"):
            load_model(path)

    def test_truncation_detected(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.cgmodel"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(DataValidationError, match="truncat"):
            load_model(path)

    def test_trailing_bytes_detected(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.cgmodel"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataValidationError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("damage", ["config", "w1"])
    def test_missing_header_entry_detected(self, tmp_path, damage):
        def drop(header):
            if damage == "config":
                del header["config"]
            else:
                header["arrays"][0]["name"] = "w_renamed"
            return header

        path = _saved_with_header(tmp_path, drop)
        with pytest.raises(DataValidationError, match=damage):
            load_model(path)

    @pytest.mark.parametrize("damage", sorted(_WRONG_TYPES))
    def test_wrong_typed_header_detected(self, tmp_path, damage):
        path = _saved_with_header(tmp_path, _WRONG_TYPES[damage])
        with pytest.raises(DataValidationError):
            load_model(path)

    @pytest.mark.parametrize("damage", sorted(_WRONG_SHAPES))
    def test_wrong_shaped_array_detected(self, tmp_path, damage):
        path = _saved_with_header(tmp_path, _WRONG_SHAPES[damage])
        array = damage.split("-")[0]
        with pytest.raises(DataValidationError, match=f"m.cgmodel: array {array} has shape"):
            load_model(path)

    def test_header_is_json_with_version(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.cgmodel"
        save_model(model, path)
        blob = path.read_bytes()
        assert blob[:4] == b"CGM1"
        header_len = int.from_bytes(blob[4:12], "little")
        header = json.loads(blob[12 : 12 + header_len])
        assert header["version"] == 1
        assert header["model_kind"] in ("CoGraCa", "GraCa")
        assert {a["name"] for a in header["arrays"]} >= {"w1", "r", "u_cog"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.cgmodel")
