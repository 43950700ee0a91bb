"""Command-line entry point for the whole pipeline.

Subcommands: synth, train, fingerprint, baseline, evaluate
(similarity | classify | attribute | interpret), report. Every run writes a
run.json record with the resolved configuration; re-running a record's
command and config reproduces all numeric artifacts byte-for-byte (run.json
itself carries wall-clock timing and is the one file excluded from that
guarantee). Floats are printed with repr, which round-trips exactly.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BASELINE_KINDS, baseline_pipeline, out_of_fold_matrix
from .data import (
    DataValidationError,
    SyntheticConfig,
    _reading,
    atomic_write_bytes,
    format_field,
    load_dataset,
    load_labels,
    load_model,
    read_visit_table,
    save_model,
    synthesize_to_disk,
    write_csv,
)
from .evaluation import (
    cross_validated_bacc,
    interpret_components,
    shapley_attribution,
    similarity_analysis,
    train_mlp,
)
from .pipeline import (
    DeadVisitError,
    FoldSplit,
    NonFiniteLossError,
    TrainConfig,
    cross_validate,
    fold_map,
    fold_splits,
    make_subject_folds,
    out_of_fold_fingerprints,
)

__all__ = ["main", "entry_point", "build_parser", "full_help_text", "rebuild_argv"]

_EXIT_DOC = """\
exit codes:
  0  success
  1  unexpected error
  2  usage error (bad flags or arguments)
  3  missing input file or directory
  4  validation error in inputs or configuration
  5  non-finite numeric result or dead visit embedding during optimization

environment:
  COGRACA_SEED  integer; overrides --seed for any subcommand that accepts one
"""

_CLI_KIND_MAP = {
    "pca-cca": "pca-cca",
    "ica-cca": "ica-cca",
    "fmri-ica": "fmri-only-ica",
    "cognition": "cognition-only",
}


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """Fixed width so --help output is independent of the terminal; every
    optional flag with a default shows it after its help."""

    def __init__(self, prog: str):
        super().__init__(prog, width=96, max_help_position=30)

    def _get_help_string(self, action) -> str:
        if action.option_strings and action.default not in (None, argparse.SUPPRESS):
            return action.help + " (default %(default)s)"
        return action.help


def _add_config_flags(parser, config_type, **overrides) -> None:
    """One --field-name flag per field of `config_type` whose metadata has a
    help string, taking the field's default and that default's type;
    `overrides` replaces the keyword arguments of the named fields' flags."""
    for f in fields(config_type):
        if "help" in f.metadata:
            kwargs = {"type": type(f.default), "default": f.default,
                      "help": f.metadata["help"], **overrides.get(f.name, {})}
            parser.add_argument("--" + f.name.replace("_", "-"), **kwargs)


def _default_from(fn, name: str, help: str) -> dict:
    """add_argument keywords for a flag that takes the default of `fn`'s
    parameter `name`, and that default's type."""
    default = inspect.signature(fn).parameters[name].default
    return {"type": type(default), "default": default, "help": help}


def _write_json(path: Path, payload: dict) -> None:
    # numpy floats are floats to json; numpy arrays and other scalars go through tolist
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda obj: obj.tolist())
    atomic_write_bytes(path, (text + "\n").encode())


def _run_config(args) -> dict:
    """The `config` of run.json: every parsed flag except --out, with the
    path arguments made absolute. rebuild_argv turns it back into argv."""
    config = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "evaluate_command", "out") and not key.startswith("_")
    }
    for key in ("data", "run", "representations"):
        if key in config:
            config[key] = os.path.abspath(config[key])
    if "dirs" in config:
        config["dirs"] = [os.path.abspath(d) for d in config["dirs"]]
    return config


def _read_json(path: Path):
    """The JSON value in the file at `path`; an error names the file."""
    with _reading(path):
        blob = path.read_bytes()
    try:
        return json.loads(blob)
    except (ValueError, RecursionError) as exc:  # not text, not JSON, or nested too deep
        raise DataValidationError(f"{path}: not a JSON file: {exc}") from None


def _training_split(args) -> tuple[list, list[np.ndarray], int]:
    """The visits at --data, the subject folds of the train run at --run
    rebuilt from its run.json, and that run's seed. Only a JSON object
    written by `train`, whose config holds integer folds and seed, is
    accepted."""
    path = Path(args.run) / "run.json"
    record = _read_json(path)
    if not isinstance(record, dict) or record.get("command") != "train":
        raise DataValidationError(f"{path}: not the run record of a train run")
    config = record.get("config")
    if not isinstance(config, dict) or any(type(config.get(k)) is not int
                                           for k in ("folds", "seed")):
        raise DataValidationError(f"{path}: train config needs integer folds and seed")
    records = load_dataset(Path(args.data))
    folds = make_subject_folds([r.subject_id for r in records], config["folds"], config["seed"])
    return records, folds, config["seed"]


def rebuild_argv(record: dict, out: str) -> list[str]:
    """Reconstruct the command line that reproduces a run record into a new
    output directory."""
    argv = record["command"].split()
    positional: list[str] = []
    for key, value in sorted(record["config"].items()):
        if value is None:
            continue
        if isinstance(value, list):
            positional.extend(str(v) for v in value)
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        argv.extend([flag, format_field(value)])
    argv.extend(["--out", out])
    argv.extend(positional)
    return argv


def _fingerprint_header(d: int) -> list[str]:
    return ["subject_id", "visit", "fold", "tag"] + [f"f_{i + 1}" for i in range(d)]


def _write_representations(path: Path, keys, fold_of, tags, values: np.ndarray) -> None:
    rows = [
        [s, v, int(f), t] + [x for x in vec]
        for (s, v), f, t, vec in zip(keys, fold_of, tags, values)
    ]
    write_csv(path, rows, header=_fingerprint_header(values.shape[1]))


def _read_representations(path: Path):
    header, raw = read_visit_table(path, ["subject_id", "visit", "fold", "tag"])
    if len(header) == 4 or not raw:
        raise DataValidationError(f"{path}: no feature columns or no rows")
    folds, values = [], []
    for rownum, row in raw.values():
        try:
            folds.append(int(row[2]))
            values.append([float(v) for v in row[4:]])
            valid = np.all(np.isfinite(values[-1]))
        except ValueError:
            valid = False
        if not valid:
            raise DataValidationError(f"{path}: row {rownum}: fold must be an integer, "
                                      "features finite numbers")
    return list(raw), np.array(folds, dtype=np.int64), np.array(values, dtype=np.float64)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cograca",
        formatter_class=_Formatter,
        description=(
            "Brain-cognition fingerprints from connectivity graphs: a graph-attention "
            "encoder trained jointly with generalized CCA and contrastive losses, plus "
            "baselines and evaluation statistics."
        ),
        epilog=_EXIT_DOC,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.set_defaults(_parser=parser)

    p_synth = sub.add_parser(
        "synth", formatter_class=_Formatter,
        help="generate a synthetic longitudinal dataset",
        description="Generate a synthetic cohort: manifest.csv, one connectivity CSV per "
                    "visit, labels.csv (binary attribute), latents.csv (ground truth).",
    )
    p_synth.add_argument("--out", required=True, help="output dataset directory")
    _add_config_flags(p_synth, SyntheticConfig)

    p_train = sub.add_parser(
        "train", formatter_class=_Formatter,
        help="train one model per cross-validation fold",
        description="Subject-level k-fold training. Writes fold_K.cgmodel and "
                    "loss_trace_fold_K.csv per fold. lambda1/lambda2 = 0 trains the "
                    "correlation-only ablation (recorded as GraCa).",
    )
    p_train.add_argument("--data", required=True, help="dataset directory (manifest.csv)")
    p_train.add_argument("--out", required=True, help="output run directory")
    # --ridge takes 'scaled' (the field's None) or a float; _train_config parses it
    _add_config_flags(p_train, TrainConfig, ridge=dict(type=str, default="scaled"))

    p_fp = sub.add_parser(
        "fingerprint", formatter_class=_Formatter,
        help="compute held-out fingerprints from a training run",
        description="Project every visit through the model that held it out. Writes one "
                    "CSV row per visit: subject_id, visit, fold, tag, f_1..f_d.",
    )
    p_fp.add_argument("--data", required=True, help="dataset directory")
    p_fp.add_argument("--run", required=True, help="training run directory")
    p_fp.add_argument("--mode", default="fused", choices=["fused", "brain", "cognition"],
                      help="projection mode")
    p_fp.add_argument("--out", required=True, help="output directory for fingerprints.csv")

    p_base = sub.add_parser(
        "baseline", formatter_class=_Formatter,
        help="compute baseline representations",
        description="Reference methods over vectorized connectivity and cognitive scores, "
                    "fit per fold on training visits only. Output schema matches "
                    "fingerprint CSVs.",
    )
    p_base.add_argument("--kind", required=True, choices=sorted(_CLI_KIND_MAP),
                        help="which baseline to run")
    p_base.add_argument("--data", required=True, help="dataset directory")
    p_base.add_argument("--out", required=True, help="output run directory")
    p_base.add_argument("--n-components",
                        **_default_from(baseline_pipeline, "n_components", "ICA component count"))
    p_base.add_argument("--variance-threshold", **_default_from(
        baseline_pipeline, "variance_threshold", "PCA explained-variance threshold"))
    # a baseline must cut the folds that train cuts, so both defaults are TrainConfig's
    p_base.add_argument("--seed", type=int, default=TrainConfig.seed, help="fold/ICA seed")
    p_base.add_argument("--folds", type=int, default=TrainConfig.folds,
                        help="cross-validation folds")

    p_eval = sub.add_parser(
        "evaluate", formatter_class=_Formatter,
        help="similarity, classification, attribution, or interpretation",
        description="Downstream analyses over fingerprint or baseline representation CSVs.",
    )
    esub = p_eval.add_subparsers(dest="evaluate_command", metavar="ANALYSIS")

    p_sim = esub.add_parser(
        "similarity", formatter_class=_Formatter,
        help="intra- vs inter-subject similarity statistics",
        description="Pairwise Pearson similarity of representations; same-subject vs "
                    "different-subject separation via Wasserstein-1 and Mann-Whitney U. "
                    "Writes similarity_matrix.csv, histogram.csv, metrics.json.",
    )
    p_sim.add_argument("--representations", required=True,
                       help="fingerprint or baseline CSV to analyze")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_cls = esub.add_parser(
        "classify", formatter_class=_Formatter,
        help="MLP classification with balanced accuracy",
        description="Train the fixed 64/32 ELU MLP per fold on the representation CSV's "
                    "own fold split, pool held-out predictions, and report balanced "
                    "accuracy over repeated seeds. Writes metrics.json.",
    )
    p_cls.add_argument("--representations", required=True, help="representation CSV")
    p_cls.add_argument("--data", required=True, help="dataset directory with labels.csv")
    p_cls.add_argument("--task", default="attribute", help="label column in labels.csv")
    p_cls.add_argument("--repeats",
                       **_default_from(cross_validated_bacc, "repeats", "MLP seed repeats"))
    p_cls.add_argument("--epochs", **_default_from(cross_validated_bacc, "epochs", "MLP epochs"))
    p_cls.add_argument("--seed", type=int, default=0, help="base seed")
    p_cls.add_argument("--out", required=True, help="output directory")

    p_att = esub.add_parser(
        "attribute", formatter_class=_Formatter,
        help="exact Shapley attribution of MLP predictions",
        description="Train one MLP per fold, then compute exact Shapley values for every "
                    "held-out visit against the training-fold mean representation. Writes "
                    "attribution.csv and attribution_summary.csv (features ranked by mean "
                    "absolute value).",
    )
    p_att.add_argument("--representations", required=True, help="representation CSV")
    p_att.add_argument("--data", required=True, help="dataset directory with labels.csv")
    p_att.add_argument("--task", default="attribute", help="label column in labels.csv")
    p_att.add_argument("--epochs", **_default_from(train_mlp, "epochs", "MLP epochs"))
    p_att.add_argument("--seed", type=int, default=0, help="MLP seed")
    p_att.add_argument("--out", required=True, help="output directory")

    p_int = esub.add_parser(
        "interpret", formatter_class=_Formatter,
        help="cognitive loadings and attention edge importance",
        description="For selected shared components, rank cognitive loadings and emit the "
                    "attention-weighted edge-importance table from one fold's model. "
                    "Writes cognitive_loadings.csv and edge_importance.csv.",
    )
    p_int.add_argument("--data", required=True, help="dataset directory")
    p_int.add_argument("--run", required=True, help="training run directory")
    p_int.add_argument("--components", default="0", help="comma-separated component indices")
    p_int.add_argument("--fold", type=int, default=0, help="which fold's model")
    p_int.add_argument("--out", required=True, help="output directory")

    p_rep = sub.add_parser(
        "report", formatter_class=_Formatter,
        help="aggregate metrics.json files into one report",
        description="Collect every metrics.json under the given directories into a single "
                    "report.json keyed by relative path.",
    )
    p_rep.add_argument("dirs", nargs="+", help="directories to scan for metrics.json")
    p_rep.add_argument("--out", required=True, help="output directory")

    parser._cograca_subparsers = {  # kept for full_help_text
        "synth": p_synth, "train": p_train, "fingerprint": p_fp, "baseline": p_base,
        "evaluate": p_eval, "evaluate similarity": p_sim, "evaluate classify": p_cls,
        "evaluate attribute": p_att, "evaluate interpret": p_int, "report": p_rep,
    }
    return parser


def full_help_text() -> str:
    """Help for the main parser and every subcommand, concatenated; the
    golden-file test pins this so flags and exit codes stay documented."""
    parser = build_parser()
    parts = [parser.format_help()]
    for name, sub in parser._cograca_subparsers.items():
        parts.append(f"\n{'=' * 24} {name} {'=' * 24}\n")
        parts.append(sub.format_help())
    return "".join(parts)


def _from_flags(config_type, args, **parsed):
    """A config dataclass from the parsed flags named as its fields, with
    `parsed` in place of flags that need more than argparse's parse; a field
    without a flag keeps its default."""
    flags = {**vars(args), **parsed}
    return config_type(**{f.name: flags[f.name] for f in fields(config_type) if f.name in flags})


def _cmd_synth(args, out: Path) -> dict:
    records, _ = synthesize_to_disk(_from_flags(SyntheticConfig, args), out)
    outputs = ["manifest.csv", "labels.csv", "latents.csv"] + [
        f"connectivity_{r.subject_id}_v{r.visit}.csv" for r in records
    ]
    print(f"wrote {len(records)} visits to {out}")
    return {"outputs": outputs}


def _train_config(args) -> TrainConfig:
    try:
        ridge = None if args.ridge == "scaled" else float(args.ridge)
    except ValueError:
        raise DataValidationError(
            f"--ridge must be 'scaled' or a float, got {args.ridge!r}"
        ) from None
    return _from_flags(TrainConfig, args, ridge=ridge)


def _cmd_train(args, out: Path) -> dict:
    cfg = _train_config(args)
    records = load_dataset(Path(args.data))
    folds, models = cross_validate(records, cfg)
    outputs = []
    for fold_idx, model in enumerate(models):
        model_name = f"fold_{fold_idx}.cgmodel"
        save_model(model, out / model_name)
        trace_name = f"loss_trace_fold_{fold_idx}.csv"
        write_csv(
            out / trace_name,
            [[epoch, *losses] for epoch, losses in enumerate(model.loss_trace.tolist())],
            header=["epoch", "corr", "ind", "mul", "total"],
        )
        outputs.extend([model_name, trace_name])
    print(f"trained {len(models)} fold models ({cfg.model_kind}) into {out}")
    return {"outputs": outputs, "model_kind": cfg.model_kind}


def _cmd_fingerprint(args, out: Path) -> dict:
    records, folds, seed = _training_split(args)
    models = [
        load_model(Path(args.run) / f"fold_{k}.cgmodel") for k in range(len(folds))
    ]
    fps, fold_of = out_of_fold_fingerprints(folds, models, records, mode=args.mode)
    values = np.stack([fp.values for fp in fps])
    _write_representations(
        out / "fingerprints.csv",
        [(r.subject_id, r.visit) for r in records],
        fold_of,
        [fp.tag for fp in fps],
        values,
    )
    print(f"wrote fingerprints for {len(records)} visits to {out / 'fingerprints.csv'}")
    return {"outputs": ["fingerprints.csv"], "seed": seed}


def _cmd_baseline(args, out: Path) -> dict:
    kind = _CLI_KIND_MAP[args.kind]
    records = load_dataset(Path(args.data))
    folds = make_subject_folds([r.subject_id for r in records], args.folds, args.seed)
    results = baseline_pipeline(
        records, kind, folds,
        n_components=args.n_components,
        variance_threshold=args.variance_threshold,
        seed=args.seed,
    )
    reps, fold_of = out_of_fold_matrix(results, len(records))
    _write_representations(
        out / "representations.csv",
        [(r.subject_id, r.visit) for r in records],
        fold_of,
        [kind] * len(records),
        reps,
    )
    print(f"wrote {kind} representations to {out / 'representations.csv'}")
    return {"outputs": ["representations.csv"]}


def _cmd_evaluate_similarity(args, out: Path) -> dict:
    keys, _, values = _read_representations(Path(args.representations))
    report = similarity_analysis(values, [s for s, _ in keys])
    write_csv(
        out / "similarity_matrix.csv",
        report.matrix,
        header=[f"v{i + 1}" for i in range(values.shape[0])],
    )
    hist_rows = [
        [report.bin_edges[i], report.bin_edges[i + 1], int(report.intra_counts[i]),
         int(report.inter_counts[i])]
        for i in range(len(report.intra_counts))
    ]
    write_csv(out / "histogram.csv", hist_rows,
              header=["bin_left", "bin_right", "intra_count", "inter_count"])
    metrics = {
        "n_intra_pairs": int(report.intra.size),
        "n_inter_pairs": int(report.inter.size),
        "wasserstein": report.wasserstein,
        "mwu_u": None if report.mwu is None else report.mwu.u,
        "mwu_p": None if report.mwu is None else report.mwu.p_value,
        "mwu_degenerate": None if report.mwu is None else report.mwu.degenerate,
        "intra_mean": None if report.intra.size == 0 else float(report.intra.mean()),
        "inter_mean": float(report.inter.mean()),
    }
    _write_json(out / "metrics.json", metrics)
    print(f"similarity metrics written to {out / 'metrics.json'}")
    return {"outputs": ["similarity_matrix.csv", "histogram.csv", "metrics.json"]}


def _join_labels(keys, data_dir: Path, task: str) -> np.ndarray:
    labels = load_labels(data_dir, task=task)
    missing = [k for k in keys if k not in labels]
    if missing:
        raise DataValidationError(
            f"labels.csv has no {task!r} entry for (subject, visit) {missing[0]}"
        )
    return np.array([labels[k] for k in keys], dtype=np.int64)


def _folds_from_column(fold_of: np.ndarray) -> list[FoldSplit]:
    """The folds of a representation CSV's fold column, in ascending id."""
    ids = np.unique(fold_of)
    return fold_splits([np.flatnonzero(fold_of == f) for f in ids], len(fold_of), fold_ids=ids)


def _cmd_evaluate_classify(args, out: Path) -> dict:
    keys, fold_of, values = _read_representations(Path(args.representations))
    y = _join_labels(keys, Path(args.data), args.task)
    baccs = cross_validated_bacc(
        values, y, [s.test_indices for s in _folds_from_column(fold_of)],
        seed=args.seed, repeats=args.repeats, epochs=args.epochs,
    )
    metrics = {
        "task": args.task,
        "repeats": args.repeats,
        "bacc_mean": float(baccs.mean()),
        "bacc_sd": float(baccs.std(ddof=1)) if args.repeats > 1 else 0.0,
        "bacc_per_seed": [float(b) for b in baccs],
    }
    _write_json(out / "metrics.json", metrics)
    print(f"balanced accuracy {metrics['bacc_mean']:.4f} +/- {metrics['bacc_sd']:.4f} "
          f"({args.repeats} seeds) written to {out / 'metrics.json'}")
    return {"outputs": ["metrics.json"]}


def _cmd_evaluate_attribute(args, out: Path) -> dict:
    keys, fold_of, values = _read_representations(Path(args.representations))
    y = _join_labels(keys, Path(args.data), args.task)
    d = values.shape[1]

    def fit(split):
        """The fold's MLP and training mean, or the error fitting it raised."""
        train = split.train_indices
        try:
            clf = train_mlp(values[train], y[train], seed=args.seed, epochs=args.epochs)
        except Exception as exc:
            return None, exc
        return (clf, values[train].mean(axis=0)), None

    def attribute(item):
        """The Shapley values of one held-out visit under its fold's MLP."""
        k, i = item
        clf, baseline = fitted[k][0]
        return shapley_attribution(clf, values[i], baseline).values

    # Two maps, so the Shapley visits, not whole folds, are dealt to the
    # workers. A fold's MLP error is raised where the serial loop (fit a
    # fold, then attribute its visits) would meet it: after the visits of
    # every earlier fold.
    splits = _folds_from_column(fold_of)
    fitted = fold_map(fit, splits)
    failed = next((k for k, (_, error) in enumerate(fitted) if error is not None), len(splits))
    items = [(k, i) for k in range(failed) for i in splits[k].test_indices]
    phis = fold_map(attribute, items)
    if failed < len(splits):
        raise fitted[failed][1]
    rows = []
    abs_sum = np.zeros(d)
    for (k, i), phi in zip(items, phis):
        rows.append([keys[i][0], keys[i][1], splits[k].fold] + [v for v in phi])
        abs_sum += np.abs(phi)
    write_csv(
        out / "attribution.csv",
        rows,
        header=["subject_id", "visit", "fold"] + [f"shap_{i + 1}" for i in range(d)],
    )
    mean_abs = abs_sum / len(rows)
    order = np.argsort(-mean_abs, kind="stable")
    write_csv(
        out / "attribution_summary.csv",
        [[rank + 1, int(idx) + 1, mean_abs[idx]] for rank, idx in enumerate(order)],
        header=["rank", "feature", "mean_abs_shapley"],
    )
    metrics = {"top_features": [int(i) + 1 for i in order[:5]],
               "mean_abs_shapley": [float(v) for v in mean_abs]}
    _write_json(out / "metrics.json", metrics)
    print(f"attribution tables written to {out}")
    return {"outputs": ["attribution.csv", "attribution_summary.csv", "metrics.json"]}


def _cmd_evaluate_interpret(args, out: Path) -> dict:
    try:
        components = [int(c) for c in args.components.split(",") if c != ""]
    except ValueError:
        raise DataValidationError(
            f"--components must be comma-separated integers, got {args.components!r}"
        ) from None
    records, folds, _ = _training_split(args)
    if not 0 <= args.fold < len(folds):
        raise DataValidationError(f"--fold must lie in [0, {len(folds)})")
    model = load_model(Path(args.run) / f"fold_{args.fold}.cgmodel")
    split = fold_splits(folds, len(records))[args.fold]
    tables = interpret_components(model, [records[i] for i in split.train_indices], components)
    write_csv(
        out / "cognitive_loadings.csv",
        tables.cognitive_loadings,
        header=["component", "rank", "cognitive_index", "abs_loading", "loading"],
    )
    write_csv(
        out / "edge_importance.csv",
        tables.edge_importance,
        header=["component", "rank", "node_p", "node_q", "importance"],
    )
    print(f"interpretation tables written to {out}")
    return {"outputs": ["cognitive_loadings.csv", "edge_importance.csv"]}


def _cmd_report(args, out: Path) -> dict:
    collected = {}
    for root in args.dirs:
        root_path = Path(root)
        if not root_path.is_dir():
            raise FileNotFoundError(f"not a directory: {root_path}")
        for metrics in sorted(root_path.rglob("metrics.json")):
            collected[str(metrics.parent)] = _read_json(metrics)
    _write_json(out / "report.json", collected)
    print(f"aggregated {len(collected)} metrics files into {out / 'report.json'}")
    return {"outputs": ["report.json"]}


# Each handler writes its artifacts into the output directory and returns
# the run.json fields it owns: "outputs", plus any field it overrides.
_DISPATCH = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "fingerprint": _cmd_fingerprint,
    "baseline": _cmd_baseline,
    "evaluate similarity": _cmd_evaluate_similarity,
    "evaluate classify": _cmd_evaluate_classify,
    "evaluate attribute": _cmd_evaluate_attribute,
    "evaluate interpret": _cmd_evaluate_interpret,
    "report": _cmd_report,
}


def _error(code: int, message) -> None:
    text = " ".join(str(message).split())
    print(f"cograca: error[{code}]: {text}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "evaluate" and args.evaluate_command is None:
        parser._cograca_subparsers["evaluate"].print_help()
        return 2
    env_seed = os.environ.get("COGRACA_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            _error(2, f"COGRACA_SEED must be an integer, got {env_seed!r}")
            return 2
    command = args.command
    if command == "evaluate":
        command += " " + args.evaluate_command
    try:
        t0 = time.monotonic()
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, no permission, a read-only disk
            raise DataValidationError(
                f"--out {out}: cannot make the output directory ({exc.strerror or exc})") from None
        record = {
            "command": command,
            "config": _run_config(args),
            "seed": getattr(args, "seed", None),
            "version": __version__,
        }
        record.update(_DISPATCH[command](args, out))
        record["outputs"] = sorted(record["outputs"])
        record["duration_seconds"] = time.monotonic() - t0
        _write_json(out / "run.json", record)
        return 0
    except FileNotFoundError as exc:
        _error(3, exc)
        return 3
    except (NonFiniteLossError, DeadVisitError) as exc:
        _error(5, exc)
        return 5
    except (DataValidationError, ValueError) as exc:
        _error(4, exc)
        return 4
    except Exception as exc:  # keep the contract: one line, nonzero exit
        _error(1, f"{type(exc).__name__}: {exc}")
        return 1


def entry_point() -> None:
    sys.exit(main())
