"""The input boundary: one set of connectivity rules on every route into a
graph, and fuzzed file readers that must load or reject, never crash.

A reader passes when it returns, or raises FileNotFoundError (exit 3) or
ValueError, DataValidationError included (exit 4). Any other exception is
the CLI's exit 1 and fails the test.
"""

import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cograca.cli import main
from cograca.data import (
    DataValidationError,
    SyntheticConfig,
    load_dataset,
    load_labels,
    load_model,
    read_csv,
    save_model,
    synthesize_to_disk,
    write_csv,
    write_matrix_csv,
)
from cograca.encoder import ConnectivityGraph, build_graph
from cograca.pipeline import TrainConfig, train_model

from conftest import random_connectivity, rewrite_model_header

TINY = SyntheticConfig(subjects=4, rois=5, d_cog=3, latent_dim=2, seed=5)


def _asymmetric(m):
    m[0, 1], m[1, 0] = 0.5, 0.49


def _bad_diagonal(m):
    m[2, 2] = 0.8


def _out_of_range(m):
    m[0, 1] = m[1, 0] = 1.5


def _nan(m):
    m[3, 4] = m[4, 3] = np.nan


# each damage and the entry its message must name
_MALFORMED = {
    "asymmetric": (_asymmetric, "asymmetric at (0,1)"),
    "bad-diagonal": (_bad_diagonal, "diagonal entry (2,2) = 0.8"),
    "out-of-range": (_out_of_range, "entry (0,1) = 1.5 outside"),
    "nan": (_nan, "non-finite entry (3,4) = nan"),
    "not-square": (lambda m: None, "shape (5, 4)"),
}


def _malformed(case: str) -> np.ndarray:
    damage, _ = _MALFORMED[case]
    mat = random_connectivity(np.random.default_rng(3), 5)
    damage(mat)
    return mat[:, :4] if case == "not-square" else mat


@pytest.mark.parametrize("case", sorted(_MALFORMED))
class TestConnectivityRules:
    def test_build_graph_rejects(self, case):
        with pytest.raises(ValueError, match=re.escape(_MALFORMED[case][1])):
            build_graph(_malformed(case))

    def test_graph_constructor_rejects(self, case):
        adj = np.maximum(_malformed(case), 0.0)
        with pytest.raises(ValueError, match=re.escape(_MALFORMED[case][1])):
            ConnectivityGraph(adjacency=adj, attributes=np.zeros((5, 5)))

    def test_load_dataset_names_file_and_entry(self, case, tmp_path):
        synthesize_to_disk(TINY, tmp_path)
        victim = sorted(tmp_path.glob("connectivity_*.csv"))[0]
        write_matrix_csv(victim, _malformed(case))
        with pytest.raises(DataValidationError) as caught:
            load_dataset(tmp_path)
        assert str(caught.value).startswith(f"{victim}: ")
        assert _MALFORMED[case][1] in str(caught.value)


def test_graph_constructor_rejects_negative_adjacency():
    adj = random_connectivity(np.random.default_rng(3), 5)
    with pytest.raises(ValueError, match=re.escape("outside [0, 1]")):
        ConnectivityGraph(adjacency=adj, attributes=adj)


def test_build_graph_repairs_within_tolerance():
    corr = random_connectivity(np.random.default_rng(3), 5)
    corr[0, 1] += 1e-7
    corr[1, 1] = 1.0 - 1e-7
    corr[2, 3] = corr[3, 2] = 1.0 + 1e-10
    corr[3, 4] = corr[4, 3] = -0.0
    adj = build_graph(corr).adjacency
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 1.0)
    assert adj.max() == 1.0
    assert not np.signbit(adj).any()


# --- fuzzing ---------------------------------------------------------------


def _outcome(call) -> int:
    """The CLI exit code an exception from `call` maps to; anything else
    propagates and fails the test."""
    try:
        call()
    except FileNotFoundError:
        return 3
    except ValueError:
        return 4
    return 0


_FIELDS = st.sampled_from([
    "", " ", "nan", "inf", "-inf", "1e999", "-1e999", "abc", "0x10", "1_0", "01",
    "-1", "0", "1.5", "-2.5", "2.0", "1e-7", "9" * 40, "é", '"', '"a,b"', "\x00",
    "s000", "cog_1", "connectivity_s000_v1.csv", "/", "..",
])


@st.composite
def _byte_mutations(draw, original: bytes) -> bytes:
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "set" and data:
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 16))]
        else:
            del data[pos:]
    return bytes(data)


@st.composite
def _field_mutations(draw, original: bytes) -> bytes:
    rows = [line.split(",") for line in original.decode().splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        op = draw(st.sampled_from(
            ["set", "drop-field", "add-field", "copy-row", "drop-row", "header-only"]
        ))
        if op == "set":
            row[draw(st.integers(0, len(row) - 1))] = draw(_FIELDS)
        elif op == "drop-field" and len(row) > 1:
            del row[draw(st.integers(0, len(row) - 1))]
        elif op == "add-field":
            row.append(draw(_FIELDS))
        elif op == "copy-row":
            rows.append(list(row))
        elif op == "drop-row" and len(rows) > 1:
            rows.remove(row)
        elif op == "header-only":
            del rows[1:]
    return "".join(",".join(row) + "\n" for row in rows).encode()


def _mutations(original: bytes):
    return st.one_of(_byte_mutations(original), _field_mutations(original))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("tiny")
    synthesize_to_disk(TINY, root)
    records = load_dataset(root)
    save_model(train_model(records, TrainConfig(epochs=2, hidden_dim=4, r=3, d_r=2)),
               root / "m.cgmodel")
    rng = np.random.default_rng(0)
    write_csv(
        root / "reps.csv",
        [[r.subject_id, r.visit, i % 2, "t"] + rng.standard_normal(3).tolist()
         for i, r in enumerate(records)],
        header=["subject_id", "visit", "fold", "tag", "f_1", "f_2", "f_3"],
    )
    (root / "metrics.json").write_text(
        '{"bacc_mean": 0.5, "bacc_per_seed": [0.5, 0.25], "mwu_p": null, "task": "a"}\n'
    )
    return root


def _copy_with(dataset: Path, name: str, payload: bytes):
    """A temporary copy of the dataset with file `name` replaced by `payload`."""
    tmp = tempfile.TemporaryDirectory()
    root = Path(tmp.name) / "data"
    shutil.copytree(dataset, root)
    (root / name).write_bytes(payload)
    return tmp, root


def _fuzz_file(dataset: Path, name: str, data, read) -> None:
    payload = data.draw(_mutations((dataset / name).read_bytes()))
    tmp, root = _copy_with(dataset, name, payload)
    with tmp:
        assert _outcome(lambda: read(root)) in (0, 3, 4)


def _json_paths(obj, prefix=()):
    """Every key path into a JSON value, the root's empty path first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


class TestFuzzReaders:
    @given(st.data())
    def test_manifest(self, dataset, data):
        _fuzz_file(dataset, "manifest.csv", data, load_dataset)

    @given(st.data())
    def test_connectivity(self, dataset, data):
        _fuzz_file(dataset, "connectivity_s001_v1.csv", data, load_dataset)

    @given(st.data())
    def test_labels(self, dataset, data):
        _fuzz_file(dataset, "labels.csv", data, load_labels)

    @given(st.binary(max_size=200))
    def test_read_csv_raw(self, dataset, payload):
        tmp, root = _copy_with(dataset, "raw.csv", payload)
        with tmp:
            assert _outcome(lambda: read_csv(root / "raw.csv")) in (0, 4)

    @given(st.data())
    def test_model_bytes(self, dataset, data):
        blob = (dataset / "m.cgmodel").read_bytes()
        payload = data.draw(st.one_of(
            st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
            _byte_mutations(blob),
        ))
        tmp, root = _copy_with(dataset, "m.cgmodel", payload)
        with tmp:
            assert _outcome(lambda: load_model(root / "m.cgmodel")) in (0, 4)

    @given(st.data())
    def test_model_header_values(self, dataset, data):
        wrong = st.sampled_from(
            [None, True, 0, -1, 2.5, 2**63, 2**70, float("inf"), float("nan"), "", "w1", [],
             [3], [[1]], {}, {"a": 1}]
        )

        def damage(header):
            paths = list(_json_paths(header))
            path = paths[data.draw(st.integers(1, len(paths) - 1))]
            target = header
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = data.draw(wrong)
            return header

        tmp, root = _copy_with(dataset, "m.cgmodel", (dataset / "m.cgmodel").read_bytes())
        with tmp:
            rewrite_model_header(root / "m.cgmodel", damage)
            assert _outcome(lambda: load_model(root / "m.cgmodel")) in (0, 4)

    @pytest.mark.parametrize("analysis", ["similarity", "attribute"])
    @given(data=st.data())
    def test_representations_through_cli(self, dataset, analysis, data):
        payload = data.draw(_mutations((dataset / "reps.csv").read_bytes()))
        tmp, root = _copy_with(dataset, "reps.csv", payload)
        with tmp:
            argv = ["evaluate", analysis, "--representations", str(root / "reps.csv"),
                    "--out", str(root / "out")]
            if analysis == "attribute":
                argv += ["--data", str(root), "--epochs", "2"]
            assert main(argv) in (0, 3, 4)

    @given(st.data())
    def test_metrics_json_through_report(self, dataset, data):
        payload = data.draw(_mutations((dataset / "metrics.json").read_bytes()))
        tmp, root = _copy_with(dataset, "metrics.json", payload)
        with tmp:
            assert main(["report", str(root), "--out", str(root / "out")]) in (0, 3, 4)

