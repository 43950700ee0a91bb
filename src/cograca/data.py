"""Dataset layout, the synthetic longitudinal cohort generator, and model
serialization.

On disk a dataset is a directory with manifest.csv (subject_id, visit,
connectivity_path, cog_1..cog_d), one headerless V x V connectivity CSV per
visit, and optional labels.csv / latents.csv written by the generator.
Floats are written with repr so every file round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import typing
import warnings
from contextlib import closing, contextmanager
from functools import cache
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import lanes
from .encoder import ConnectivityGraph, build_graph
from .numerics import _check_finite

__all__ = [
    "VisitRecord",
    "DataValidationError",
    "SyntheticConfig",
    "GroundTruth",
    "load_dataset",
    "load_labels",
    "format_field",
    "write_csv",
    "read_csv",
    "read_visit_table",
    "generate_synthetic",
    "synthesize_to_disk",
    "save_model",
    "load_model",
]

_MAGIC = b"CGM1"
_FORMAT_VERSION = 1
# Every stored array, in file order: the part of a TrainedModel that holds it
# (None for the model itself), its attribute there, and its dims. A dim name
# binds to its first size and must match it everywhere else, "2*h" is twice
# h's size, None is free, and n is the number of training visits.
_MODEL_ARRAYS = {
    "w1": ("params", "w1", ("d_in", "h")),
    "m1": ("params", "m1", ("2*h",)),
    "w2": ("params", "w2", ("h", "r")),
    "m2": ("params", "m2", ("2*r",)),
    "r": ("solution", "r", ("d_r", "n")),
    "u_brain": ("solution", "u_brain", ("r", "d_r")),
    "u_cog": ("solution", "u_cog", ("d_cog", "d_r")),
    "eigenvalues": ("solution", "eigenvalues", (None,)),
    "ridge_used": ("solution", "ridge", (2,)),
    "brain_mean": ("stats", "brain_mean", ("r",)),
    "brain_std": ("stats", "brain_std", ("r",)),
    "cog_mean": ("stats", "cog_mean", ("d_cog",)),
    "cog_std": ("stats", "cog_std", ("d_cog",)),
    "loss_trace": (None, "loss_trace", ("epochs", 4)),
}


class DataValidationError(ValueError):
    """Input data violated a documented rule; message names file and rule."""


@dataclass(frozen=True)
class VisitRecord:
    """One visit: who, when, the connectivity graph, and cognitive scores."""

    subject_id: str
    visit: int
    graph: ConnectivityGraph
    cognition: np.ndarray

    def __post_init__(self) -> None:
        cog = np.asarray(self.cognition, dtype=np.float64)
        if cog.ndim != 1 or not np.all(np.isfinite(cog)):
            raise ValueError("cognitive scores must be a finite vector")
        object.__setattr__(self, "cognition", cog)


def format_field(v) -> str:
    """One CSV field or command-line value: floats with repr, which
    round-trips float64 exactly and is the shortest such form; anything
    else with str."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, rows, header: list[str] | None = None) -> None:
    """Write the optional header and then the rows, each field formatted by
    format_field: comma-separated, unquoted, with Unix line ends and a final
    newline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in rows:
            # a numeric array row goes in as Python numbers, which csv writes
            # as format_field would (str of a float is its repr), and faster
            writer.writerow(row.tolist() if isinstance(row, np.ndarray) else map(format_field, row))


@contextmanager
def _reading(path: Path):
    """Turn an OS error while reading `path` into an input error that names
    it: nothing there to read as a file (missing, a directory, or under a
    non-directory) is FileNotFoundError, exit 3; any other, such as a
    denied permission, DataValidationError, exit 4."""
    try:
        yield
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        detail = f" ({exc.strerror})" if exc.strerror else ""
        raise FileNotFoundError(f"missing input file: {path}{detail}") from None
    except OSError as exc:
        raise DataValidationError(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV whose first row is its header. Returns (header, rows) as
    strings; a missing, empty or undecodable file, or a row whose field
    count differs from the header's (a blank row has none) is rejected."""
    path = Path(path)
    try:
        with _reading(path), open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataValidationError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise DataValidationError(f"{path}: empty file")
    header = rows[0]
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataValidationError(
                f"{path}: row {rownum}: expected {len(header)} fields, got {len(row)}"
            )
    return header, rows[1:]


def write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    write_csv(path, np.atleast_2d(np.asarray(matrix, dtype=np.float64)))


def read_matrix_csv(path: Path) -> np.ndarray:
    try:
        with _reading(path), warnings.catch_warnings():
            # an input without rows is rejected below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            matrix = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise DataValidationError(f"{path}: could not parse matrix CSV: {exc}") from None
    if matrix.size == 0:
        raise DataValidationError(f"{path}: matrix CSV holds no numbers")
    return matrix


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def read_visit_table(path: Path, leading: list[str]):
    """Read a CSV with one row per visit, whose header starts with
    `leading`, itself starting subject_id,visit. Returns (header, rows):
    rows maps each (subject, visit), in file order, to (row number in the
    file, fields). A visit that is not an integer, or a (subject, visit)
    given twice, is rejected naming the file and row."""
    path = Path(path)
    header, raw = read_csv(path)
    if header[:len(leading)] != leading:
        raise DataValidationError(f"{path}: header must start with {','.join(leading)}")
    rows = {}
    for rownum, row in enumerate(raw, start=2):
        try:
            key = row[0], int(row[1])
        except ValueError:
            raise DataValidationError(
                f"{path}: row {rownum}: visit {row[1]!r} is not an integer"
            ) from None
        if key in rows:
            raise DataValidationError(f"{path}: row {rownum}: duplicate (subject, visit) {key}")
        rows[key] = rownum, row
    return header, rows


def load_dataset(root: Path) -> list[VisitRecord]:
    """Read manifest.csv and every referenced connectivity matrix.

    Each matrix goes through build_graph. Violations raise
    DataValidationError naming the file, the row or entry, and the rule.
    """
    root = Path(root)
    manifest = root / "manifest.csv"
    header, rows = read_visit_table(manifest, ["subject_id", "visit", "connectivity_path"])
    cog_cols = header[3:]
    if not cog_cols or any(not c.startswith("cog_") for c in cog_cols):
        raise DataValidationError(f"{manifest}: cognitive columns must be named cog_*")
    if not rows:
        raise DataValidationError(f"{manifest}: no visit rows")
    records: list[VisitRecord] = []
    v_nodes: int | None = None
    for (subject, visit), (rownum, row) in rows.items():
        try:
            cognition = np.array([float(v) for v in row[3:]], dtype=np.float64)
            valid = np.all(np.isfinite(cognition))
        except ValueError:
            valid = False
        if not valid:
            raise DataValidationError(
                f"{manifest}: row {rownum}: cognitive scores must be finite numbers"
            )
        conn_path = Path(row[2])
        if not conn_path.is_absolute():
            conn_path = root / conn_path
        if not conn_path.is_file():
            raise FileNotFoundError(
                f"{manifest}: row {rownum}: connectivity file not found: {conn_path}"
            )
        mat = read_matrix_csv(conn_path)
        try:
            graph = build_graph(mat)
        except ValueError as exc:
            raise DataValidationError(f"{conn_path}: {exc}") from None
        if v_nodes is None:
            v_nodes = graph.n_nodes
        elif graph.n_nodes != v_nodes:
            raise DataValidationError(
                f"{conn_path}: matrix is {graph.n_nodes}x{graph.n_nodes}, "
                f"but the dataset uses {v_nodes} nodes"
            )
        records.append(
            VisitRecord(subject_id=subject, visit=visit, graph=graph, cognition=cognition)
        )
    return records


def load_labels(root: Path, task: str = "attribute") -> dict[tuple[str, int], int]:
    """Read labels.csv and return the named binary label per (subject, visit)."""
    path = Path(root) / "labels.csv"
    header, rows = read_visit_table(path, ["subject_id", "visit"])
    if task not in header:
        raise DataValidationError(f"{path}: no column named {task!r}")
    col = header.index(task)
    labels: dict[tuple[str, int], int] = {}
    for key, (rownum, row) in rows.items():
        try:
            labels[key] = int(row[col])
        except ValueError:
            raise DataValidationError(f"{path}: row {rownum}: malformed label row") from None
    return labels


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic longitudinal cohort.

    Connectivity is a tanh-squashed low-rank expansion of a per-subject
    latent plus symmetric visit noise; cognition is a linear readout of the
    same latent, mixed with per-visit jitter by the coupling strength. The
    binary attribute is the sign of one latent coordinate. Each field with
    a `help` has a `cograca synth` flag with that help.
    """

    seed: int = field(default=7, metadata={"help": "generator seed"})
    subjects: int = field(default=30, metadata={"help": "number of subjects"})
    rois: int = field(default=24, metadata={"help": "nodes per graph"})
    d_cog: int = field(default=16, metadata={"help": "cognitive score count"})
    two_visit_fraction: float = field(
        default=0.5, metadata={"help": "fraction of subjects with two visits"})
    latent_dim: int = field(default=6, metadata={"help": "latent dimension"})
    signal: float = field(
        default=1.0, metadata={"help": "subject-signal strength in connectivity"})
    coupling: float = field(
        default=0.9, metadata={"help": "brain-cognition coupling in [0,1]"})
    noise: float = field(default=0.25, metadata={"help": "visit noise level"})
    planted_strength: float = field(
        default=0.0, metadata={"help": "strength of one label-linked edge, 0 disables"})
    label_latent: int = 0

    def __post_init__(self) -> None:
        _check_finite(self)
        if min(self.subjects, self.rois, self.d_cog, self.latent_dim) < 1:
            raise ValueError("counts must be positive")
        if not 0.0 <= self.two_visit_fraction <= 1.0:
            raise ValueError("two_visit_fraction must lie in [0, 1]")
        if min(self.signal, self.noise, self.planted_strength) < 0.0:
            raise ValueError("strengths must be nonnegative")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if not 0 <= self.label_latent < self.latent_dim:
            raise ValueError("label_latent must index a latent coordinate")
        if self.signal == 0.0 and self.noise == 0.0:
            raise ValueError("degenerate config: signal and noise are both zero")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class GroundTruth:
    """Generator internals, returned so tests can check planted structure."""

    subject_ids: tuple[str, ...]
    latents: np.ndarray
    mixing: np.ndarray
    cognitive_map: np.ndarray
    labels: np.ndarray
    planted_edge: tuple[int, int] | None


# The visits' draws are made a chunk at a time, each chunk about this many
# bytes: 6 visits at 100 ROIs, 18 at 60, 109 at 24 (the default cohort is
# one chunk). Drawn ahead, 2550 visits at 100 ROIs took a median 0.58 s
# with 512 KiB chunks, 0.60-0.62 s with 1-2 MiB, 0.64 s with 256 KiB and
# 0.73 s with 64-128 KiB, against 0.93 s drawn in the caller (five runs
# each, one OpenBLAS thread, 2-core x86-64). A cohort of two chunks
# (12 visits) took 4.7 ms drawn ahead and 4.9 ms in the caller.
_DRAW_CHUNK_BYTES = 1 << 19


@contextmanager
def _drawn(rng: np.random.Generator, sizes: tuple[int, ...], count: int):
    """Yield an iterator over `count` visits' draws: per visit one
    rng.normal array of each size in `sizes`, in that order, flat.

    The draws are made a chunk of visits at a time. A chunk is one
    standard_normal fill plus 0.0, which is rng.normal's stream (0.0 + 1.0 *
    each standard normal) bit for bit, so the chunks do not change a draw.
    Each visit's arrays are views into its chunk, valid until the next
    visit's are taken.

    The chunks are sequential items on `lanes.threads`, as they share one
    stream: a cohort of more than one chunk has them filled ahead on a
    second usable CPU while the caller builds the visits already drawn
    (numpy releases the GIL while it fills an array). Chunk k fills
    caller-owned buffer k % 2, free once the caller asks for chunk k - 1."""
    per_visit = sum(sizes)
    per_chunk = max(1, min(count, _DRAW_CHUNK_BYTES // (8 * per_visit)))
    chunks = [(start, min(start + per_chunk, count)) for start in range(0, count, per_chunk)]
    bufs = [np.empty((per_chunk, per_visit)) for _ in chunks[:2]]
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends, ends))

    def fill(k):
        start, end = chunks[k]
        rows = bufs[k % 2][: end - start]
        rng.standard_normal(out=rows)
        rows += 0.0
        return rows

    def split(rows):
        for row in rows:
            yield [row[a:b] for a, b in spans]

    with closing(lanes.threads(fill, range(len(chunks)), sequential=True)) as filled:
        yield (draws for rows in filled for draws in split(rows))


@contextmanager
def _draw_cohort(cfg: SyntheticConfig):
    """Yield the cohort's truth and an iterator that draws one visit at a
    time, yielding its record and the raw (unthresholded) matrix its graph
    was built from, so only one raw matrix need be alive at a time.

    The draw order is fixed (mixing maps, latents, then per visit noise,
    jitter and cognitive noise) so results are a pure function of the
    config; `_drawn` may draw the visits' noise ahead on another CPU, but
    from the same stream, so the records do not depend on the CPU count.
    """
    rng = np.random.default_rng(cfg.seed)
    v, ell = cfg.rois, cfg.latent_dim
    mixing = rng.normal(size=(v, ell)) / math.sqrt(ell)
    cog_map = rng.normal(size=(cfg.d_cog, ell))
    latents = rng.normal(size=(cfg.subjects, ell))
    planted = (0, 1) if cfg.planted_strength > 0.0 else None
    truth = GroundTruth(
        subject_ids=tuple(f"s{ix:03d}" for ix in range(cfg.subjects)),
        latents=latents,
        mixing=mixing,
        cognitive_map=cog_map,
        labels=(latents[:, cfg.label_latent] > 0.0).astype(np.int64),
        planted_edge=planted,
    )
    n_two = round(cfg.subjects * cfg.two_visit_fraction)
    offset = 0.2

    def visits(draws):
        for s, (subject, z) in enumerate(zip(truth.subject_ids, latents)):
            low = (mixing * z) @ mixing.T
            low = (low + low.T) / 2.0
            for visit in range(1, (2 if s < n_two else 1) + 1):
                noise, jitter, cog_noise = next(draws)
                noise = noise.reshape(v, v)
                noise = (noise + noise.T) / 2.0
                logits = offset + cfg.signal * low + cfg.noise * noise
                if planted is not None:
                    p, q = planted
                    bump = cfg.planted_strength * z[cfg.label_latent]
                    logits[p, q] += bump
                    logits[q, p] += bump
                mat = np.tanh(logits)
                np.fill_diagonal(mat, 1.0)
                shared = cfg.coupling * z + math.sqrt(1.0 - cfg.coupling**2) * jitter
                cog = cog_map @ shared + cfg.noise * cog_noise
                yield VisitRecord(subject, visit, build_graph(mat), cog), mat

    with _drawn(rng, (v * v, ell, cfg.d_cog), cfg.subjects + n_two) as draws:
        yield truth, visits(draws)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[list[VisitRecord], GroundTruth]:
    """Generate the cohort in memory; negatives are thresholded by
    build_graph exactly as they would be on load. Visits are drawn one at a
    time, so one raw matrix is alive at a time beside the returned graphs;
    the random numbers may be drawn ahead on `lanes.threads` (see
    `_drawn`), with the same records."""
    with _draw_cohort(cfg) as (truth, visits):
        return [record for record, _ in visits], truth


def synthesize_to_disk(cfg: SyntheticConfig, root: Path) -> tuple[list[VisitRecord], GroundTruth]:
    """Generate and write a loadable dataset: manifest.csv, one raw
    connectivity CSV per visit, labels.csv, latents.csv. Each visit's CSV is
    written as the visit is drawn, so one raw matrix is alive at a time
    beside the returned graphs, and the writes overlap the drawing ahead
    that generate_synthetic describes, whose lanes end with this call, a
    failed write included.

    load_dataset(root) reproduces the returned records bit-exactly.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with _draw_cohort(cfg) as (truth, visits):
        label_of = dict(zip(truth.subject_ids, truth.labels.tolist()))
        records, manifest_rows, label_rows = [], [], []
        for record, mat in visits:
            subject, visit = record.subject_id, record.visit
            name = f"connectivity_{subject}_v{visit}.csv"
            write_matrix_csv(root / name, mat)
            manifest_rows.append([subject, visit, name] + record.cognition.tolist())
            label_rows.append([subject, visit, label_of[subject]])
            records.append(record)
    write_csv(
        root / "manifest.csv", manifest_rows,
        header=["subject_id", "visit", "connectivity_path"]
        + [f"cog_{i + 1}" for i in range(cfg.d_cog)],
    )
    write_csv(root / "labels.csv", label_rows, header=["subject_id", "visit", "attribute"])
    write_csv(
        root / "latents.csv",
        [[subject] + z.tolist() for subject, z in zip(truth.subject_ids, truth.latents)],
        header=["subject_id"] + [f"z_{i + 1}" for i in range(cfg.latent_dim)],
    )
    return records, truth


def _le64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr, dtype=np.float64)).astype("<f8", copy=False)


def save_model(model, path: Path) -> None:
    """Serialize a TrainedModel: magic, JSON header with shapes and config,
    then the raw little-endian float64 arrays in _MODEL_ARRAYS order."""
    arrays = [
        (name, np.asarray(getattr(model if part is None else getattr(model, part), attr)))
        for name, (part, attr, _) in _MODEL_ARRAYS.items()
    ]
    header = {
        "version": _FORMAT_VERSION,
        "model_kind": model.config.model_kind,
        "config": asdict(model.config),
        "train_keys": [[s, v] for s, v in model.train_keys],
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(_le64(a).tobytes() for _, a in arrays)
    blob = _MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes + payload
    atomic_write_bytes(path, blob)


def load_model(path: Path):
    """Inverse of save_model; rejects wrong magic, version, truncation, or a
    header that lacks a field or array or holds one of the wrong JSON type."""
    with _reading(path):
        blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != _MAGIC:
        raise DataValidationError(f"{path}: not a model file (bad magic)")
    header_len = int.from_bytes(blob[4:12], "little")
    if len(blob) < 12 + header_len:
        raise DataValidationError(f"{path}: truncated model file (header)")
    try:
        header = json.loads(blob[12 : 12 + header_len])
    except json.JSONDecodeError:
        raise DataValidationError(f"{path}: corrupt model header") from None
    if not isinstance(header, dict):
        raise DataValidationError(f"{path}: model header is not a JSON object")
    if header.get("version") != _FORMAT_VERSION:
        raise DataValidationError(
            f"{path}: unsupported format version {header.get('version')!r}, "
            f"expected {_FORMAT_VERSION}"
        )
    try:
        return _decode_model(path, header, blob, 12 + header_len)
    except KeyError as exc:
        raise DataValidationError(f"{path}: model header is missing {exc}") from None


def _dims_match(dims: tuple, shape: tuple, bound: dict[str, int]) -> bool:
    if len(shape) != len(dims):
        return False
    for dim, size in zip(dims, shape):
        if isinstance(dim, str):
            factor, _, name = dim.rpartition("*")
            if size != int(factor or 1) * bound.setdefault(name, size):
                return False
        elif dim is not None and size != dim:
            return False
    return True


def _check_model_dims(path: Path, values: dict[str, np.ndarray], n_visits: int) -> None:
    """Raise DataValidationError naming the first array whose rank or shared
    dims disagree with `_MODEL_ARRAYS`."""
    bound = {"n": n_visits}
    for name, (_, _, dims) in _MODEL_ARRAYS.items():
        shape = values[name].shape
        if not _dims_match(dims, shape, bound):
            expected = ", ".join("any" if d is None else str(d) for d in dims)
            known = ", ".join(f"{k}={v}" for k, v in bound.items())
            raise DataValidationError(
                f"{path}: array {name} has shape {list(shape)}, expected ({expected}) "
                f"with {known}"
            )


@cache
def _field_types(cls) -> dict:
    """Each field of dataclass `cls` mapped to its annotated type."""
    return typing.get_type_hints(cls)


def _coerce(kind, value):
    """`value` as type `kind`; an optional kind (X | None) keeps None."""
    options = typing.get_args(kind) or (kind,)
    return None if value is None and type(None) in options else options[0](value)


def _decode_model(path: Path, header: dict, blob: bytes, offset: int):
    from .pipeline import TrainedModel  # deferred to avoid an import cycle

    specs = header["arrays"]
    if not isinstance(specs, list):
        raise DataValidationError(f"{path}: model header 'arrays' is not a list")
    values: dict[str, np.ndarray] = {}
    for spec in specs:
        if not (
            isinstance(spec, dict)
            and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in spec["shape"])
        ):
            raise DataValidationError(
                f"{path}: array spec {spec!r} needs a string name and a list of "
                "non-negative integer dims"
            )
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise DataValidationError(f"{path}: truncated model file (array {spec['name']})")
        values[spec["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise DataValidationError(f"{path}: trailing bytes after model payload")
    # the model's parts are rebuilt as the types its fields are annotated with
    types = _field_types(TrainedModel)
    config_type = types["config"]
    config_hints = _field_types(config_type)
    c = header["config"]
    try:
        config = config_type(**{
            f.name: _coerce(config_hints[f.name], c[f.name]) for f in fields(config_type)
        })
        train_keys = tuple((s, int(v)) for s, v in header["train_keys"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataValidationError(f"{path}: malformed model header: {exc}") from None
    _check_model_dims(path, values, len(train_keys))
    parts: dict[str | None, dict[str, np.ndarray]] = {}
    for name, (part, attr, _) in _MODEL_ARRAYS.items():
        parts.setdefault(part, {})[attr] = values[name]
    # the one stored attribute that is a tuple of floats, not an array
    parts["solution"]["ridge"] = tuple(parts["solution"]["ridge"].tolist())
    return TrainedModel(
        config=config,
        train_keys=train_keys,
        **parts.pop(None),
        **{part: types[part](**attrs) for part, attrs in parts.items()},
    )
