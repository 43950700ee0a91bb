import dataclasses
import json

import numpy as np
import pytest

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

from conftest import random_connectivity

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

    def test_missing_label_task_column(self, tmp_path):
        synthesize_to_disk(SMALL, tmp_path)
        with pytest.raises(DataValidationError, match="no_such_task"):
            load_labels(tmp_path, task="no_such_task")


def _tiny_model():
    records, _ = generate_synthetic(SMALL)
    # r must match d_cog while the multimodal term is active
    cfg = TrainConfig(epochs=3, hidden_dim=6, r=6, d_r=4, seed=3)
    return train_model(records, cfg)


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
        model = _tiny_model()
        path = tmp_path / "m.cgmodel"
        save_model(model, path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[4:12], "little")
        header = json.loads(blob[12 : 12 + header_len])
        if damage == "config":
            del header["config"]
        else:
            header["arrays"][0]["name"] = "w_renamed"
        encoded = json.dumps(header).encode()
        path.write_bytes(
            blob[:4] + len(encoded).to_bytes(8, "little") + encoded + blob[12 + header_len :]
        )
        with pytest.raises(DataValidationError, match=damage):
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
