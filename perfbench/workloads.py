"""The benchmark's three workloads, the inputs they make from a seed, and the
correctness checks that run after every pass.

A pass is a list of operations. An operation is one CLI call (`cograca.cli.main`)
or one call into the library; it fails when it raises, exits nonzero, or
writes an artifact that a check rejects.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import cograca.baselines as baselines
import cograca.cli as cli
import cograca.data as data
import cograca.evaluation as evaluation
import cograca.pipeline as pipeline

BASELINE_KINDS = ("pca-cca", "ica-cca", "fmri-ica", "cognition")
STAGES = ("synth", "train", "fingerprint", "baseline", "evaluate")


@dataclass(frozen=True)
class Sizes:
    """Cohort and run sizes. The defaults are the paper's operating point
    (default SyntheticConfig and TrainConfig) except for the epoch count."""

    subjects: int = 30
    rois: int = 24
    d_cog: int = 16
    dims: int = 16  # encoder output r and shared dimension d_r
    epochs: int = 100
    repeats: int = 2  # MLP seeds per `evaluate classify`
    ica_components: int = 20


@dataclass
class Op:
    name: str
    stage: str
    out: str  # the artifact group this operation writes
    seconds: float
    error: str | None = None


class Pass:
    """One timed pass: its operations, artifacts directory and results."""

    def __init__(self, root: Path, tracer=None):
        self.root = root
        self.tracer = tracer
        self.ops: list[Op] = []
        self.results: dict = {}
        self.quality: dict[str, float] = {}
        self.seconds = 0.0

    def call(self, name: str, stage: str, out: str, fn, *args, **kwargs):
        """Run one operation (a span when traced); an exception marks it failed."""
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        stdout, stderr = io.StringIO(), io.StringIO()
        result, error = None, None
        start = perf_counter()
        try:
            with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                result = fn(*args, **kwargs)
        except Exception as exc:  # an operation's failure is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        op = Op(name, stage, out, perf_counter() - start, error)
        self.ops.append(op)
        return op, result, stderr.getvalue()

    def cli(self, stage: str, out: str, argv: list) -> None:
        argv = [str(a) for a in argv]
        sub = "_".join(argv[:2]) if argv[0] == "evaluate" else argv[0]
        op, code, err = self.call(f"cli.{sub}", stage, out, cli.main, argv)
        if op.error is None and code != 0:
            lines = err.strip().splitlines()
            op.error = f"exit {code}: {lines[-1] if lines else ''}"

    def fail(self, out: str, reason: str) -> None:
        for op in self.ops:
            if op.out == out and op.error is None:
                op.error = reason

    def stage_seconds(self, stage: str) -> float:
        return sum(op.seconds for op in self.ops if op.stage == stage)


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _nonfinite_json(obj) -> bool:
    if isinstance(obj, dict):
        return any(_nonfinite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_nonfinite_json(v) for v in obj)
    return isinstance(obj, float) and not math.isfinite(obj)


def _nonfinite_file(path: Path) -> bool:
    """True if a CSV field or JSON number in the file parses to NaN or inf."""
    if path.suffix == ".json":
        return _nonfinite_json(json.loads(path.read_text()))
    if path.suffix == ".csv":
        for line in path.read_text().splitlines():
            for field in line.split(","):
                try:
                    if not math.isfinite(float(field)):
                        return True
                except ValueError:
                    continue
    return False


def similarity_problem(matrix: np.ndarray) -> str | None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return f"similarity matrix has shape {matrix.shape}"
    asym = float(np.abs(matrix - matrix.T).max())
    diag = float(np.abs(np.diag(matrix) - 1.0).max())
    if not np.all(np.isfinite(matrix)) or asym > 1e-12 or diag > 1e-12:
        return f"similarity matrix: max asymmetry {asym!r}, max |diag - 1| {diag!r}"
    return None


def model_problem(model) -> str | None:
    arrays = [*model.params.as_dict().values(), model.solution.r, model.solution.u_brain,
              model.solution.u_cog, model.solution.eigenvalues, model.stats.brain_mean,
              model.stats.brain_std, model.stats.cog_mean, model.stats.cog_std, model.loss_trace]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return "model holds non-finite numbers"
    r = model.solution.r
    off = float(np.abs(r @ r.T - np.eye(r.shape[0])).max())
    if off > 1e-8:
        return f"R R^T differs from I by {off!r}"
    return None


class Workload:
    name = ""
    min_passes = 1
    default_sizes = Sizes()

    def __init__(self, seed: int, work: Path, sizes: Sizes | None = None):
        self.data_seed = seed % (1 << 32)
        self.work = work
        self.sizes = sizes or self.default_sizes

    def synthetic_config(self) -> data.SyntheticConfig:
        s = self.sizes
        return data.SyntheticConfig(subjects=s.subjects, rois=s.rois, d_cog=s.d_cog,
                                    seed=self.data_seed)

    def generate(self) -> None:
        """Make the workload's inputs from its seed (timed as set-up)."""

    def run(self, p: Pass) -> None:
        raise NotImplementedError

    def check(self, p: Pass) -> None:
        """Mark operations whose artifacts are wrong as failed."""

    def digests(self, p: Pass) -> dict[str, str]:
        """sha256 of every artifact, keyed '<op out>/<artifact>'."""
        return {str(f.relative_to(p.root)): _sha(f.read_bytes())
                for f in sorted(p.root.rglob("*")) if f.is_file() and f.name != "run.json"}

    def _check_files(self, p: Pass) -> None:
        for f in sorted(p.root.rglob("*")):
            if f.is_file() and _nonfinite_file(f):
                p.fail(f.relative_to(p.root).parts[0], f"non-finite number in {f.name}")


class PaperDefault(Workload):
    """synth -> train -> fingerprint -> evaluate similarity/classify/attribute,
    all through `cograca.cli.main`, with the cohort written to disk."""

    name = "paper-default"
    min_passes = 2  # the second pass is compared byte for byte with the first

    def generate(self) -> None:
        self.reference, _ = data.generate_synthetic(self.synthetic_config())

    def run(self, p: Pass) -> None:
        s, root = self.sizes, p.root
        d = root / "data"
        reps = root / "fp" / "fingerprints.csv"
        p.cli("synth", "data", ["synth", "--out", d, "--seed", self.data_seed,
                               "--subjects", s.subjects, "--rois", s.rois, "--d-cog", s.d_cog])
        p.cli("train", "run", ["train", "--data", d, "--out", root / "run", "--epochs", s.epochs,
                               "--r", s.dims, "--d-r", s.dims])
        p.cli("fingerprint", "fp", ["fingerprint", "--data", d, "--run", root / "run",
                                    "--out", root / "fp"])
        p.cli("evaluate", "sim", ["evaluate", "similarity", "--representations", reps,
                                  "--out", root / "sim"])
        p.cli("evaluate", "cls", ["evaluate", "classify", "--representations", reps, "--data", d,
                                  "--out", root / "cls", "--repeats", s.repeats])
        p.cli("evaluate", "att", ["evaluate", "attribute", "--representations", reps,
                                  "--data", d, "--out", root / "att"])

    def check(self, p: Pass) -> None:
        root = p.root
        self._check_files(p)
        try:
            loaded = data.load_dataset(root / "data")
            same = len(loaded) == len(self.reference) and all(
                np.array_equal(a.graph.adjacency, b.graph.adjacency)
                and np.array_equal(a.cognition, b.cognition)
                for a, b in zip(loaded, self.reference))
            if not same:
                p.fail("data", "dataset on disk differs from the generated cohort")
        except (OSError, ValueError) as exc:
            p.fail("data", f"dataset does not load: {exc}")
        models = sorted((root / "run").glob("fold_*.cgmodel"))
        if len(models) != pipeline.TrainConfig().folds:
            p.fail("run", f"{len(models)} fold models written")
        for path in models:
            try:
                problem = model_problem(data.load_model(path))
            except (OSError, ValueError) as exc:
                problem = f"{path.name} does not load: {exc}"
            if problem:
                p.fail("run", f"{path.name}: {problem}")
        try:
            matrix = np.loadtxt(root / "sim" / "similarity_matrix.csv", delimiter=",",
                                skiprows=1, ndmin=2)
            problem = similarity_problem(matrix)
            p.quality["separation_w1"] = json.loads((root / "sim" / "metrics.json").read_text())[
                "wasserstein"]
        except (OSError, ValueError, KeyError) as exc:
            problem = f"similarity output unreadable: {exc}"
        if problem:
            p.fail("sim", problem)
        try:
            p.quality["bacc_mean"] = json.loads((root / "cls" / "metrics.json").read_text())[
                "bacc_mean"]
        except (OSError, ValueError, KeyError) as exc:
            p.fail("cls", f"classification output unreadable: {exc}")


class EvaluateOnly(Workload):
    """Every baseline kind, `evaluate classify` on each, and `evaluate
    attribute` on ica-cca, over a cohort written to disk during set-up."""

    name = "evaluate-only"
    min_passes = 2

    def generate(self) -> None:
        self.data_dir = self.work / "data"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        data.synthesize_to_disk(self.synthetic_config(), self.data_dir)

    def run(self, p: Pass) -> None:
        s, root, d = self.sizes, p.root, self.data_dir
        for kind in BASELINE_KINDS:
            p.cli("baseline", f"b-{kind}", ["baseline", "--kind", kind, "--data", d,
                                            "--out", root / f"b-{kind}",
                                            "--n-components", s.ica_components])
            p.cli("evaluate", f"c-{kind}", [
                "evaluate", "classify", "--representations", root / f"b-{kind}" / "representations.csv",
                "--data", d, "--out", root / f"c-{kind}", "--repeats", s.repeats])
        p.cli("evaluate", "att", ["evaluate", "attribute", "--representations",
                                  root / "b-ica-cca" / "representations.csv", "--data", d,
                                  "--out", root / "att"])

    def check(self, p: Pass) -> None:
        self._check_files(p)
        baccs = []
        for kind in BASELINE_KINDS:
            try:
                bacc = json.loads((p.root / f"c-{kind}" / "metrics.json").read_text())["bacc_mean"]
            except (OSError, ValueError, KeyError) as exc:
                p.fail(f"c-{kind}", f"classification output unreadable: {exc}")
                continue
            p.quality[f"bacc_mean.{kind}"] = bacc
            baccs.append(bacc)
        if baccs:
            p.quality["bacc_mean"] = sum(baccs) / len(baccs)


def _fingerprint_matrix(model, records) -> np.ndarray:
    return np.stack([fp.values for fp in pipeline.compute_fingerprints(model, records)])


class LargeCohort(Workload):
    """In memory at 2550 visits: train_model on one fold's complement,
    held-out fingerprints, the ica-cca baseline on the same fold, and
    similarity analysis of both."""

    name = "large-cohort"
    default_sizes = Sizes(subjects=1700, rois=100, epochs=2)

    def generate(self) -> None:
        self.records = None  # release the previous copy before making the next
        self.records, _ = data.generate_synthetic(self.synthetic_config())
        subjects = [r.subject_id for r in self.records]
        self.test = pipeline.make_subject_folds(subjects, pipeline.TrainConfig().folds, 0)[0]

    def run(self, p: Pass) -> None:
        held = set(self.test.tolist())
        train = [r for i, r in enumerate(self.records) if i not in held]
        test = [self.records[i] for i in self.test]
        subjects = [r.subject_id for r in test]
        cfg = pipeline.TrainConfig(epochs=self.sizes.epochs, r=self.sizes.dims,
                                   d_r=self.sizes.dims)
        _, model, _ = p.call("train", "train", "train", pipeline.train_model, train, cfg)
        _, fps, _ = p.call("fingerprint", "fingerprint", "fingerprint", _fingerprint_matrix,
                           model, test)
        _, folds, _ = p.call("baseline", "baseline", "baseline", baselines.baseline_pipeline,
                             self.records, "ica-cca", [self.test],
                             n_components=self.sizes.ica_components)
        reps = None if folds is None else folds[0].test_representations
        _, sim_fp, _ = p.call("similarity", "evaluate", "similarity",
                              evaluation.similarity_analysis, fps, subjects)
        _, sim_ica, _ = p.call("similarity", "evaluate", "similarity",
                               evaluation.similarity_analysis, reps, subjects)
        p.results = {"model": model, "fps": fps, "reps": reps, "test": test,
                     "sim_fp": sim_fp, "sim_ica": sim_ica}

    def check(self, p: Pass) -> None:
        res = p.results
        if res["model"] is not None:
            problem = model_problem(res["model"])
            if problem:
                p.fail("train", problem)
        if res["fps"] is not None:
            again = _fingerprint_matrix(res["model"], res["test"])
            if not np.all(np.isfinite(res["fps"])):
                p.fail("fingerprint", "non-finite fingerprint")
            elif again.tobytes() != res["fps"].tobytes():
                p.fail("fingerprint", "fingerprints differ when computed again")
        if res["reps"] is not None and not np.all(np.isfinite(res["reps"])):
            p.fail("baseline", "non-finite baseline representation")
        for key, quality in (("sim_fp", "separation_w1"), ("sim_ica", "separation_w1.ica-cca")):
            report = res[key]
            if report is None:
                continue
            problem = similarity_problem(report.matrix)
            if problem:
                p.fail("similarity", problem)
            elif report.wasserstein is not None:
                p.quality[quality] = report.wasserstein

    def digests(self, p: Pass) -> dict[str, str]:
        res = p.results
        arrays = {
            "train/r": None if res["model"] is None else res["model"].solution.r,
            "fingerprint/values": res["fps"],
            "baseline/representations": res["reps"],
            "similarity/fingerprints": None if res["sim_fp"] is None else res["sim_fp"].matrix,
            "similarity/ica-cca": None if res["sim_ica"] is None else res["sim_ica"].matrix,
        }
        return {k: _sha(np.ascontiguousarray(a).tobytes()) for k, a in arrays.items()
                if a is not None}


WORKLOADS = {w.name: w for w in (PaperDefault, LargeCohort, EvaluateOnly)}
