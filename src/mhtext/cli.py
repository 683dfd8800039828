"""Command-line interface.

Subcommands mirror the pipeline stages:

    prepare   corpus CSV -> prepared dataset JSON
    tune      prepared + experiment config -> search log + best config
    train     prepared + params -> model bundle
    evaluate  prepared + model bundle -> evaluation JSON
    report    evaluation JSON -> report.json, roc_points.csv,
              class_distribution.{csv,svg}

Exit codes: 0 success, 1 usage errors (including bad flags and outputs
that cannot be written), 2 data errors (unreadable or malformed
inputs), 3 failed searches. Relative output paths resolve under
$MHTEXT_OUTPUT_ROOT when it is set, and missing parent directories of
an output are created.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import report as report_mod
from . import search as search_mod
from .config import FAMILIES, ExperimentConfig, PreparedDataset, prepare_dataset
from .errors import SearchFailedError, ToolkitError, UsageError, read_json
from .presets import get_preset, preset_names

OUTPUT_ROOT_ENV = "MHTEXT_OUTPUT_ROOT"


class _Parser(argparse.ArgumentParser):
    """argparse exits with its own code 2; route errors to exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _resolve(path: str) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


@contextlib.contextmanager
def _writing(flag: str, path: str):
    """Raise an OSError met while writing output `path` as a UsageError
    that names the flag and the path."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {flag} {path!r}: {exc}") from exc


def _output(flag: str, path: str, directory: bool = False) -> str:
    """Resolve output `path` and create its missing parent directories,
    or the directory itself for a flag that names one."""
    path = _resolve(path)
    with _writing(flag, path):
        os.makedirs(path if directory else os.path.dirname(path) or os.curdir, exist_ok=True)
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mhtext", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean, label, split, and fit features")
    p.add_argument("--corpus", required=True, help="corpus CSV path")
    p.add_argument("--out", required=True, help="prepared dataset JSON to write")
    p.add_argument("--scheme", choices=("binary", "multiclass"), default="binary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stratify", action="store_true", help="stratified splits")
    p.add_argument("--drop-hashtags", action="store_true",
                   help="drop whole hashtag tokens instead of keeping the word")
    p.add_argument("--max-features", type=int, default=1000)
    p.add_argument("--ngram-min", type=int, default=1)
    p.add_argument("--ngram-max", type=int, default=2)
    p.add_argument("--vocab-min-freq", type=int, default=2)
    p.add_argument("--max-len", type=int, default=64)

    p = sub.add_parser("tune", help="run a hyperparameter search")
    p.add_argument("--prepared", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="experiment config JSON")
    source.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--prepared", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--best", help="best_config.json written by tune")
    source.add_argument("--family", choices=FAMILIES)
    p.add_argument("--params", help="JSON file of hyperparameters (with --family)")
    p.add_argument("--seed", type=int, default=0, help="model seed (with --family)")
    p.add_argument("--out", required=True, help="output stem for the model bundle")

    p = sub.add_parser("evaluate", help="evaluate a model bundle on one split")
    p.add_argument("--prepared", required=True)
    p.add_argument("--model", required=True, help="model bundle stem")
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--out", required=True, help="evaluation JSON to write")

    p = sub.add_parser("report", help="render report files from an evaluation")
    p.add_argument("--evaluation", required=True)
    p.add_argument("--outdir", required=True)
    return parser


def _cmd_prepare(args) -> int:
    dataset = prepare_dataset(
        args.corpus,
        scheme_kind=args.scheme,
        seed=args.seed,
        stratify=args.stratify,
        drop_hashtags=args.drop_hashtags,
        max_features=args.max_features,
        ngram_range=(args.ngram_min, args.ngram_max),
        vocab_min_freq=args.vocab_min_freq,
        max_len=args.max_len,
    )
    out = _output("--out", args.out)
    with _writing("--out", out):
        dataset.save(out)
    sizes = {name: len(dataset.indices(name)) for name in ("train", "validation", "test")}
    print(
        f"prepared {dataset.n_docs} documents ({dataset.n_dropped} empty dropped): "
        f"train={sizes['train']} validation={sizes['validation']} "
        f"test={sizes['test']}; {dataset.scheme.kind} scheme, "
        f"{dataset.tfidf.dim} features -> {out}"
    )
    return 0


def _cmd_tune(args) -> int:
    dataset = PreparedDataset.load(args.prepared)
    if args.preset:
        config = get_preset(args.preset)
    else:
        config = ExperimentConfig.load(args.config)
    prepared_sha256 = search_mod.file_sha256(args.prepared)
    outdir = _output("--outdir", args.outdir, directory=True)
    try:
        result = search_mod.run_search(dataset, config)
    except SearchFailedError as exc:
        # still leave a log behind so the failure is inspectable
        with _writing("--outdir", outdir):
            report_mod.write_json(exc.result.to_dict(), os.path.join(outdir, "search.json"))
        raise
    # the kept model before the best config, whose key covers its bytes
    kept = os.path.join(outdir, search_mod.KEPT_STEM)
    with _writing("--outdir", outdir):
        report_mod.write_json(result.to_dict(), os.path.join(outdir, "search.json"))
        search_mod.save_model(result.best_model, kept)
        best = result.best_config(prepared_sha256,
                                  search_mod.bundle_sha256(kept, config.family))
        report_mod.write_json(best, os.path.join(outdir, "best_config.json"))
    n_failed = sum(1 for t in result.trials if t.error is not None)
    print(
        f"searched {len(result.trials)} candidates ({n_failed} failed); "
        f"best trial {result.best_index} "
        f"val weighted F1 {result.best_trial.val_weighted_f1:.4f} -> {outdir}"
    )
    return 0


def _cmd_train(args) -> int:
    if args.best and args.params:
        raise UsageError("--params only applies with --family")
    if args.best:
        (family, params, model_seed), best = read_json(
            args.best, "best config", lambda data: (search_mod.decode_best_config(data), data)
        )
        # the model tune kept is the fit below, byte for byte, when the key matches
        kept = search_mod.kept_model(args.best, best, args.prepared)
        if kept is not None:
            out = _output("--out", args.out)
            with _writing("--out", out):
                path = search_mod.write_bundle(kept, out, family)
            print(f"copied the {family} model tune kept beside {args.best} -> {path}")
            return 0
    dataset = PreparedDataset.load(args.prepared)
    if not args.best:
        family, model_seed = args.family, search_mod.trial_seed(args.seed, 0)
        params = read_json(args.params, "params file", lambda data: data) if args.params else {}
    try:
        fitted = search_mod.train_family(family, params, dataset, model_seed=model_seed)
    except ValueError as exc:  # solvers reject out-of-range hyperparameters
        raise UsageError(f"bad {family} hyperparameters: {exc}") from exc
    out = _output("--out", args.out)
    with _writing("--out", out):
        path = search_mod.save_model(fitted, out)
    print(f"trained {family} on {dataset.labels_for('train').size} documents -> {path}")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = PreparedDataset.load(args.prepared)
    fitted = search_mod.load_model(args.model)
    result = search_mod.evaluate_model(fitted, dataset, args.split)
    out = _output("--out", args.out)
    with _writing("--out", out):
        report_mod.write_json(
            search_mod.evaluation_record(fitted.family, dataset, args.split, result), out
        )
    summary = result.prf.weighted
    auroc = result.auroc_values.get("binary", result.auroc_values.get("micro"))
    auroc_text = f" auroc={auroc:.4f}" if auroc is not None else ""
    print(
        f"evaluated {fitted.family} on {args.split}: "
        f"accuracy={result.prf.accuracy:.4f} "
        f"weighted_f1={summary['f1']:.4f}{auroc_text} -> {out}"
    )
    return 0


def _cmd_report(args) -> int:
    report = read_json(args.evaluation, "evaluation file", report_mod.check_evaluation)
    outdir = _resolve(args.outdir)
    with _writing("--outdir", outdir):
        written = report_mod.emit_report(report, outdir)
    print("wrote " + ", ".join(written))
    return 0


_COMMANDS = {
    "prepare": _cmd_prepare,
    "tune": _cmd_tune,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
