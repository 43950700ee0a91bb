"""Spans recorded around cograca's public functions, from outside the package.

`Tracer.install` replaces each function listed in WRAPPED at the module
attribute its caller looks it up under (for example `cograca.pipeline.encode_batch`
or `cograca.gcca.sym_eig`) and `Tracer.uninstall` puts the originals back, so
an untraced pass runs the package's own code with no wrapper in the way.
Spans stay in memory until the run ends; `layer_metrics` turns the spans of
one pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
from pathlib import Path
from time import perf_counter

_MB = float(1 << 20)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


# ---- probes: counts computed from array shapes and file sizes at the call
# boundary, stored on the span after its end time is taken

def _cache_bytes(attrs, args, kwargs, result):
    seen = {}
    for layer in result[3]:
        for arr in layer:
            seen[id(arr)] = arr.nbytes
    attrs["cache_bytes"] = sum(seen.values())


def _square_size(attrs, args, kwargs, result):
    attrs["n"] = args[0].shape[0]


def _solve_visits(attrs, args, kwargs, result):
    attrs["n"] = args[0].n_visits


def _ica_converged(attrs, args, kwargs, result):
    attrs["converged"] = bool(result.converged)


def _coalitions(attrs, args, kwargs, result):
    attrs["coalitions"] = 1 << len(result.values)


def _pairs(attrs, args, kwargs, result):
    n = result.matrix.shape[0]
    attrs["pairs"] = n * (n - 1) // 2


def _tree_bytes(attrs, args, kwargs, result):
    root = Path(args[1])
    attrs["bytes"] = sum(p.stat().st_size for p in root.iterdir() if p.is_file())


def _dataset_bytes(attrs, args, kwargs, result):
    root = Path(args[0])
    manifest = root / "manifest.csv"
    with open(manifest, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    attrs["bytes"] = manifest.stat().st_size + sum((root / r[2]).stat().st_size for r in rows)


def _labels_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = (Path(args[0]) / "labels.csv").stat().st_size


def _model_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = Path(args[-1]).stat().st_size


# (caller module, attribute, span name, probe)
WRAPPED = [
    ("cograca.pipeline", "train_model", "pipeline.train_model", None),
    ("cograca.pipeline", "compute_fingerprints", "pipeline.compute_fingerprints", None),
    ("cograca.pipeline", "encode_batch", "encoder.forward", _cache_bytes),
    ("cograca.pipeline", "encode_batch_vjp", "encoder.backward", None),
    ("cograca.pipeline", "preprocess_views", "gcca.preprocess", None),
    ("cograca.pipeline", "solve_gcca", "gcca.solve", _solve_visits),
    ("cograca.pipeline", "corr_loss", "gcca.corr", None),
    ("cograca.pipeline", "corr_grad_brain", "gcca.corr", None),
    ("cograca.pipeline", "individualized_loss", "contrastive.individualized", None),
    ("cograca.pipeline", "multimodal_loss", "contrastive.multimodal", None),
    ("cograca.pipeline", "adam_step", "numerics.adam", None),
    ("cograca.gcca", "sym_eig", "numerics.sym_eig", _square_size),
    ("cograca.baselines", "baseline_pipeline", "baselines.pipeline", None),
    ("cograca.baselines", "ica_fit", "baselines.ica_fit", _ica_converged),
    ("cograca.baselines", "pca_fit", "baselines.pca_fit", None),
    ("cograca.baselines", "classical_cca", "baselines.classical_cca", None),
    ("cograca.evaluation", "similarity_analysis", "evaluation.similarity", _pairs),
    ("cograca.evaluation", "train_mlp", "evaluation.train_mlp", None),
    ("cograca.cli", "synthesize_to_disk", "data.write", _tree_bytes),
    ("cograca.cli", "load_dataset", "data.read", _dataset_bytes),
    ("cograca.cli", "load_labels", "data.read_labels", _labels_bytes),
    ("cograca.cli", "save_model", "data.save_model", _model_bytes),
    ("cograca.cli", "load_model", "data.load_model", _model_bytes),
    ("cograca.cli", "cross_validate", "pipeline.cross_validate", None),
    ("cograca.cli", "out_of_fold_fingerprints", "pipeline.out_of_fold_fingerprints", None),
    ("cograca.cli", "baseline_pipeline", "baselines.pipeline", None),
    ("cograca.cli", "similarity_analysis", "evaluation.similarity", _pairs),
    ("cograca.cli", "cross_validated_bacc", "evaluation.cross_validated_bacc", None),
    ("cograca.cli", "train_mlp", "evaluation.train_mlp", None),
    ("cograca.cli", "shapley_attribution", "evaluation.shapley", _coalitions),
]


class Tracer:
    """Records spans while installed; each span knows its parent's index."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if probe is not None:
                probe(span.attrs, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, probe in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, probe))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


# Per-layer metrics: (name, unit, better, computed). A layer that a workload
# never calls reads 0, and its call count says so.
LAYER_METRICS = [
    ("encoder.forward_ms", "ms", "lower", False),
    ("encoder.forward_calls", "count", "lower", False),
    ("encoder.backward_ms", "ms", "lower", False),
    ("encoder.backward_calls", "count", "lower", False),
    ("encoder.cache_mb", "MB", "lower", True),
    ("gcca.solve_ms", "ms", "lower", False),
    ("gcca.solve_calls", "count", "lower", False),
    ("numerics.sym_eig_ms", "ms", "lower", False),
    ("gcca.preprocess_ms", "ms", "lower", False),
    ("gcca.corr_ms", "ms", "lower", False),
    ("gcca.dense_mb", "MB", "lower", True),
    ("contrastive.individualized_ms", "ms", "lower", False),
    ("contrastive.multimodal_ms", "ms", "lower", False),
    ("numerics.adam_ms", "ms", "lower", False),
    ("pipeline.epoch_ms", "ms", "lower", False),
    ("pipeline.epoch_self_ms", "ms", "lower", False),
    ("pipeline.epochs", "count", "lower", False),
    ("baselines.ica_fit_ms", "ms", "lower", False),
    ("baselines.pca_fit_ms", "ms", "lower", False),
    ("baselines.classical_cca_ms", "ms", "lower", False),
    ("baselines.ica_converged_frac", "fraction", "higher", False),
    ("evaluation.train_mlp_ms", "ms", "lower", False),
    ("evaluation.train_mlp_calls", "count", "lower", False),
    ("evaluation.shapley_ms_per_visit", "ms", "lower", False),
    ("evaluation.shapley_coalitions", "count", "lower", True),
    ("evaluation.similarity_ms", "ms", "lower", False),
    ("evaluation.similarity_pairs", "count", "lower", True),
    ("data.write_s", "s", "lower", False),
    ("data.read_s", "s", "lower", False),
    ("data.save_model_ms", "ms", "lower", False),
    ("data.load_model_ms", "ms", "lower", False),
    ("data.bytes_written", "bytes", "lower", True),
    ("data.bytes_read", "bytes", "lower", True),
    ("cli.synth_s", "s", "lower", False),
    ("cli.train_s", "s", "lower", False),
    ("cli.fingerprint_s", "s", "lower", False),
    ("cli.baseline_s", "s", "lower", False),
    ("cli.evaluate_similarity_s", "s", "lower", False),
    ("cli.evaluate_classify_s", "s", "lower", False),
    ("cli.evaluate_attribute_s", "s", "lower", False),
    ("cli.self_s", "s", "lower", False),
    ("trace.overhead_s", "s", "lower", False),
]

CLI_SPANS = ("synth", "train", "fingerprint", "baseline",
             "evaluate_similarity", "evaluate_classify", "evaluate_attribute")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (all but trace.overhead_s)."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        children.setdefault(span.parent, []).append(span)

    def secs(name):
        return [s.seconds for s in by_name.get(name, [])]

    def self_time(index: int) -> float:
        return spans[index].seconds - sum(c.seconds for c in children.get(index, []))

    # An epoch runs from one forward pass inside train_model to the next; the
    # last forward is the solve after the final step, so it closes the loop.
    epoch_s, epoch_self_s = [], []
    for index, span in enumerate(spans):
        if span.name != "pipeline.train_model":
            continue
        kids = children.get(index, [])
        starts = [k.start for k in kids if k.name == "encoder.forward"]
        for lo, hi in zip(starts, starts[1:]):
            busy = sum(k.seconds for k in kids if lo <= k.start < hi)
            epoch_s.append(hi - lo)
            epoch_self_s.append(hi - lo - busy)
    epochs = len(epoch_s)
    per_epoch = 1e3 / epochs if epochs else 0.0

    solve_n = {i: s.attrs["n"] for i, s in enumerate(spans) if s.name == "gcca.solve"}
    dense = [2 * 8 * s.attrs["n"] ** 2 for s in by_name.get("numerics.sym_eig", [])
             if solve_n.get(s.parent) == s.attrs["n"]]
    ica = by_name.get("baselines.ica_fit", [])
    out = {
        "encoder.forward_ms": 1e3 * _mean(secs("encoder.forward")),
        "encoder.forward_calls": len(secs("encoder.forward")),
        "encoder.backward_ms": 1e3 * _mean(secs("encoder.backward")),
        "encoder.backward_calls": len(secs("encoder.backward")),
        "encoder.cache_mb": max((s.attrs["cache_bytes"] for s in by_name.get("encoder.forward", [])),
                                default=0) / _MB,
        "gcca.solve_ms": 1e3 * _mean(secs("gcca.solve")),
        "gcca.solve_calls": len(secs("gcca.solve")),
        "numerics.sym_eig_ms": 1e3 * _mean(secs("numerics.sym_eig")),
        "gcca.preprocess_ms": 1e3 * _mean(secs("gcca.preprocess")),
        "gcca.corr_ms": per_epoch * sum(secs("gcca.corr")),
        "gcca.dense_mb": max(dense, default=0) / _MB,
        "contrastive.individualized_ms": 1e3 * _mean(secs("contrastive.individualized")),
        "contrastive.multimodal_ms": 1e3 * _mean(secs("contrastive.multimodal")),
        "numerics.adam_ms": per_epoch * sum(secs("numerics.adam")),
        "pipeline.epoch_ms": 1e3 * _mean(epoch_s),
        "pipeline.epoch_self_ms": 1e3 * _mean(epoch_self_s),
        "pipeline.epochs": epochs,
        "baselines.ica_fit_ms": 1e3 * _mean(secs("baselines.ica_fit")),
        "baselines.pca_fit_ms": 1e3 * _mean(secs("baselines.pca_fit")),
        "baselines.classical_cca_ms": 1e3 * _mean(secs("baselines.classical_cca")),
        "baselines.ica_converged_frac": _mean(float(s.attrs["converged"]) for s in ica),
        "evaluation.train_mlp_ms": 1e3 * _mean(secs("evaluation.train_mlp")),
        "evaluation.train_mlp_calls": len(secs("evaluation.train_mlp")),
        "evaluation.shapley_ms_per_visit": 1e3 * _mean(secs("evaluation.shapley")),
        "evaluation.shapley_coalitions": sum(s.attrs["coalitions"]
                                             for s in by_name.get("evaluation.shapley", [])),
        "evaluation.similarity_ms": 1e3 * _mean(secs("evaluation.similarity")),
        "evaluation.similarity_pairs": sum(s.attrs["pairs"]
                                           for s in by_name.get("evaluation.similarity", [])),
        "data.write_s": sum(secs("data.write")),
        "data.read_s": sum(secs("data.read")) + sum(secs("data.read_labels")),
        "data.save_model_ms": 1e3 * _mean(secs("data.save_model")),
        "data.load_model_ms": 1e3 * _mean(secs("data.load_model")),
        "data.bytes_written": sum(s.attrs["bytes"] for name in ("data.write", "data.save_model")
                                  for s in by_name.get(name, [])),
        "data.bytes_read": sum(s.attrs["bytes"]
                               for name in ("data.read", "data.read_labels", "data.load_model")
                               for s in by_name.get(name, [])),
        "cli.self_s": sum(self_time(i) for i, s in enumerate(spans) if s.name.startswith("cli.")),
    }
    for sub in CLI_SPANS:
        out[f"cli.{sub}_s"] = sum(secs(f"cli.{sub}"))
    return out
