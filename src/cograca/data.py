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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import ConnectivityGraph, build_graph

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
    "generate_synthetic",
    "synthesize_to_disk",
    "save_model",
    "load_model",
]

_MAGIC = b"CGM1"
_FORMAT_VERSION = 1


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


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV whose first row is its header. Returns (header, rows) as
    strings; a missing file, an empty file, or a row whose field count
    differs from the header's (a blank row has none) is rejected."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing input file: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
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
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise DataValidationError(f"{path}: could not parse matrix CSV: {exc}") from None


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _validated_connectivity(path: Path) -> np.ndarray:
    mat = read_matrix_csv(path)
    if mat.shape[0] != mat.shape[1]:
        raise DataValidationError(f"{path}: matrix is {mat.shape}, not square")
    if not np.all(np.isfinite(mat)):
        raise DataValidationError(f"{path}: matrix contains non-finite entries")
    asym = np.abs(mat - mat.T)
    if asym.max() > 1e-6:
        p, q = np.unravel_index(int(asym.argmax()), asym.shape)
        raise DataValidationError(
            f"{path}: asymmetric at ({p},{q}): |{mat[p, q]!r} - {mat[q, p]!r}| > 1e-6"
        )
    off = np.abs(np.diag(mat) - 1.0)
    if off.max() > 1e-6:
        p = int(off.argmax())
        raise DataValidationError(
            f"{path}: diagonal entry ({p},{p}) = {mat[p, p]!r}, expected 1"
        )
    out = np.abs(mat) > 1.0 + 1e-9
    if out.any():
        p, q = map(int, np.argwhere(out)[0])
        raise DataValidationError(
            f"{path}: entry ({p},{q}) = {mat[p, q]!r} outside [-1, 1]"
        )
    mat = np.clip((mat + mat.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(mat, 1.0)
    return mat


def load_dataset(root: Path) -> list[VisitRecord]:
    """Read manifest.csv and every referenced connectivity matrix.

    Violations raise DataValidationError naming the file, row, and rule.
    """
    root = Path(root)
    manifest = root / "manifest.csv"
    header, rows = read_csv(manifest)
    if header[:3] != ["subject_id", "visit", "connectivity_path"]:
        raise DataValidationError(
            f"{manifest}: header must start with subject_id,visit,connectivity_path"
        )
    cog_cols = header[3:]
    if not cog_cols or any(not c.startswith("cog_") for c in cog_cols):
        raise DataValidationError(f"{manifest}: cognitive columns must be named cog_*")
    records: list[VisitRecord] = []
    seen: set[tuple[str, int]] = set()
    v_nodes: int | None = None
    for rownum, row in enumerate(rows, start=2):
        subject = row[0]
        try:
            visit = int(row[1])
        except ValueError:
            raise DataValidationError(
                f"{manifest}: row {rownum}: visit {row[1]!r} is not an integer"
            ) from None
        if (subject, visit) in seen:
            raise DataValidationError(
                f"{manifest}: row {rownum}: duplicate (subject, visit) "
                f"({subject!r}, {visit})"
            )
        seen.add((subject, visit))
        try:
            cognition = np.array([float(v) for v in row[3:]], dtype=np.float64)
        except ValueError:
            raise DataValidationError(
                f"{manifest}: row {rownum}: cognitive scores must be numeric"
            ) from None
        conn_path = Path(row[2])
        if not conn_path.is_absolute():
            conn_path = root / conn_path
        if not conn_path.is_file():
            raise FileNotFoundError(
                f"{manifest}: row {rownum}: connectivity file not found: {conn_path}"
            )
        mat = _validated_connectivity(conn_path)
        if v_nodes is None:
            v_nodes = mat.shape[0]
        elif mat.shape[0] != v_nodes:
            raise DataValidationError(
                f"{conn_path}: matrix is {mat.shape[0]}x{mat.shape[0]}, "
                f"but the dataset uses {v_nodes} nodes"
            )
        records.append(
            VisitRecord(
                subject_id=subject, visit=visit, graph=build_graph(mat), cognition=cognition
            )
        )
    return records


def load_labels(root: Path, task: str = "attribute") -> dict[tuple[str, int], int]:
    """Read labels.csv and return the named binary label per (subject, visit)."""
    path = Path(root) / "labels.csv"
    header, rows = read_csv(path)
    if header[:2] != ["subject_id", "visit"]:
        raise DataValidationError(f"{path}: header must start with subject_id,visit")
    if task not in header:
        raise DataValidationError(f"{path}: no column named {task!r}")
    col = header.index(task)
    labels: dict[tuple[str, int], int] = {}
    for rownum, row in enumerate(rows, start=2):
        try:
            labels[(row[0], int(row[1]))] = int(row[col])
        except ValueError:
            raise DataValidationError(f"{path}: row {rownum}: malformed label row") from None
    return labels


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic longitudinal cohort.

    Connectivity is a tanh-squashed low-rank expansion of a per-subject
    latent plus symmetric visit noise; cognition is a linear readout of the
    same latent, mixed with per-visit jitter by the coupling strength. The
    binary attribute is the sign of one latent coordinate.
    """

    subjects: int = 30
    two_visit_fraction: float = 0.5
    rois: int = 24
    d_cog: int = 16
    latent_dim: int = 6
    signal: float = 1.0
    coupling: float = 0.9
    noise: float = 0.25
    planted_strength: float = 0.0
    label_latent: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
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


def _generate_raw(cfg: SyntheticConfig):
    """Shared core: raw (unthresholded) connectivity per visit plus truth.

    The draw order is fixed (mixing maps, latents, then per visit noise /
    jitter / cognitive noise) so results are a pure function of the config.
    """
    rng = np.random.default_rng(cfg.seed)
    v, ell = cfg.rois, cfg.latent_dim
    mixing = rng.normal(size=(v, ell)) / math.sqrt(ell)
    cog_map = rng.normal(size=(cfg.d_cog, ell))
    latents = rng.normal(size=(cfg.subjects, ell))
    subject_ids = tuple(f"s{ix:03d}" for ix in range(cfg.subjects))
    labels = (latents[:, cfg.label_latent] > 0.0).astype(np.int64)
    n_two = round(cfg.subjects * cfg.two_visit_fraction)
    planted = (0, 1) if cfg.planted_strength > 0.0 else None
    keys: list[tuple[str, int]] = []
    mats: list[np.ndarray] = []
    cogs: list[np.ndarray] = []
    offset = 0.2
    for s in range(cfg.subjects):
        z = latents[s]
        low = (mixing * z) @ mixing.T
        low = (low + low.T) / 2.0
        for visit in range(1, (2 if s < n_two else 1) + 1):
            noise = rng.normal(size=(v, v))
            noise = (noise + noise.T) / 2.0
            jitter = rng.normal(size=ell)
            cog_noise = rng.normal(size=cfg.d_cog)
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
            keys.append((subject_ids[s], visit))
            mats.append(mat)
            cogs.append(cog)
    truth = GroundTruth(
        subject_ids=subject_ids,
        latents=latents,
        mixing=mixing,
        cognitive_map=cog_map,
        labels=labels,
        planted_edge=planted,
    )
    return keys, mats, cogs, truth


def generate_synthetic(cfg: SyntheticConfig) -> tuple[list[VisitRecord], GroundTruth]:
    """Generate the cohort in memory; negatives are thresholded by
    build_graph exactly as they would be on load."""
    keys, mats, cogs, truth = _generate_raw(cfg)
    records = [
        VisitRecord(subject_id=s, visit=v, graph=build_graph(m), cognition=c)
        for (s, v), m, c in zip(keys, mats, cogs)
    ]
    return records, truth


def synthesize_to_disk(cfg: SyntheticConfig, root: Path) -> tuple[list[VisitRecord], GroundTruth]:
    """Generate and write a loadable dataset: manifest.csv, one raw
    connectivity CSV per visit, labels.csv, latents.csv.

    load_dataset(root) reproduces the returned records bit-exactly.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    keys, mats, cogs, truth = _generate_raw(cfg)
    label_of = dict(zip(truth.subject_ids, truth.labels.tolist()))
    manifest_rows, label_rows = [], []
    for (subject, visit), mat, cog in zip(keys, mats, cogs):
        name = f"connectivity_{subject}_v{visit}.csv"
        write_matrix_csv(root / name, mat)
        manifest_rows.append([subject, visit, name] + cog.tolist())
        label_rows.append([subject, visit, label_of[subject]])
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
    records = [
        VisitRecord(subject_id=s, visit=v, graph=build_graph(m), cognition=c)
        for (s, v), m, c in zip(keys, mats, cogs)
    ]
    return records, truth


def _le64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr, dtype=np.float64)).astype("<f8", copy=False)


def save_model(model, path: Path) -> None:
    """Serialize a TrainedModel: magic, JSON header with shapes and config,
    then the raw little-endian float64 arrays in header order."""
    cfg = model.config
    arrays: list[tuple[str, np.ndarray]] = [
        ("w1", model.params.w1),
        ("m1", model.params.m1),
        ("w2", model.params.w2),
        ("m2", model.params.m2),
        ("r", model.solution.r),
        ("u_brain", model.solution.u_brain),
        ("u_cog", model.solution.u_cog),
        ("eigenvalues", model.solution.eigenvalues),
        ("ridge_used", np.array(model.solution.ridge)),
        ("brain_mean", model.stats.brain_mean),
        ("brain_std", model.stats.brain_std),
        ("cog_mean", model.stats.cog_mean),
        ("cog_std", model.stats.cog_std),
        ("loss_trace", model.loss_trace),
    ]
    header = {
        "version": _FORMAT_VERSION,
        "model_kind": cfg.model_kind,
        "config": {
            "epochs": cfg.epochs,
            "learning_rate": cfg.learning_rate,
            "hidden_dim": cfg.hidden_dim,
            "r": cfg.r,
            "d_r": cfg.d_r,
            "temperature": cfg.temperature,
            "lambda1": cfg.lambda1,
            "lambda2": cfg.lambda2,
            "ridge": cfg.ridge,
            "seed": cfg.seed,
            "folds": cfg.folds,
        },
        "train_keys": [[s, v] for s, v in model.train_keys],
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(_le64(a).tobytes() for _, a in arrays)
    blob = _MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes + payload
    atomic_write_bytes(path, blob)


def load_model(path: Path):
    """Inverse of save_model; rejects wrong magic, version, truncation, or a
    header that lacks a field or array."""
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
    if header.get("version") != _FORMAT_VERSION:
        raise DataValidationError(
            f"{path}: unsupported format version {header.get('version')!r}, "
            f"expected {_FORMAT_VERSION}"
        )
    try:
        return _decode_model(path, header, blob, 12 + header_len)
    except KeyError as exc:
        raise DataValidationError(f"{path}: model header is missing {exc}") from None


def _decode_model(path: Path, header: dict, blob: bytes, offset: int):
    from .pipeline import TrainConfig, TrainedModel  # deferred to avoid an import cycle
    from .encoder import EncoderParams
    from .gcca import GccaSolution, PreprocessStats

    values: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
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
    c = header["config"]
    config = TrainConfig(
        epochs=int(c["epochs"]),
        learning_rate=float(c["learning_rate"]),
        hidden_dim=int(c["hidden_dim"]),
        r=int(c["r"]),
        d_r=int(c["d_r"]),
        temperature=float(c["temperature"]),
        lambda1=float(c["lambda1"]),
        lambda2=float(c["lambda2"]),
        ridge=None if c["ridge"] is None else float(c["ridge"]),
        seed=int(c["seed"]),
        folds=int(c["folds"]),
    )
    params = EncoderParams(
        w1=values["w1"], m1=values["m1"], w2=values["w2"], m2=values["m2"]
    )
    solution = GccaSolution(
        r=values["r"],
        u_brain=values["u_brain"],
        u_cog=values["u_cog"],
        eigenvalues=values["eigenvalues"],
        ridge=(float(values["ridge_used"][0]), float(values["ridge_used"][1])),
    )
    stats = PreprocessStats(
        brain_mean=values["brain_mean"],
        brain_std=values["brain_std"],
        cog_mean=values["cog_mean"],
        cog_std=values["cog_std"],
    )
    return TrainedModel(
        params=params,
        solution=solution,
        stats=stats,
        config=config,
        loss_trace=values["loss_trace"],
        train_keys=tuple((s, int(v)) for s, v in header["train_keys"]),
    )
