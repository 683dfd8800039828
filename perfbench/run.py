"""mhtext benchmark: the real CLI flow, one process per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
its ``src/`` directory. Set-up (imports, corpus generation and CSV
write) is timed apart from the flow. The flow is ``mhtext prepare``
followed by each model family's CLI stages, called through
``mhtext.cli.run``. A first pass through the flow warms up and is not
timed; further passes start while less than ``--seconds`` have passed
since the first began. Each stage's time is its median over passes,
and each end-to-end time is a sum of stage medians.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate; the last line
carries the per-layer metrics per traced pass, including the tracing
overhead, and the spans are written to
``.bench_work/trace-<workload>-seed<n>.json``.

Every stage exit code, expected artifact, test weighted F1 floor and
``evaluation.json`` digest (same seed, same source, within this
checkout) is a check; failures are counted, never dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import FAMILIES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: a fixed count keeps numbers comparable between
# machines, and on a 2-vCPU machine a second BLAS thread competes with
# the Python thread and makes stage times much less steady.
BLAS_THREADS = 1
# Timed passes a run makes at least, whatever --seconds says.
MIN_PASSES = 3

# End-to-end metrics and their units. error_rate is printed with them
# but is carried in the result line by `attempted` and `failed`.
E2E_UNITS = {
    "setup_s": "s",
    "prepare_s": "s",
    **{f"family_s.{family}": "s" for family in FAMILIES},
    "evaluate_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}

# Per-layer metrics reported by a traced run, with their units. Span
# times that are zero on some workload are printed but not declared
# here, since a time that reads 0 on every run measures nothing:
# cli.run.tune.s, search.run_search.s and svm.kernel_matrix.s (only
# desk-binary-2k tunes and fits the rbf kernel).
LAYER_UNITS = {
    **{f"cli.run.{stage}.s": "s" for stage in ("prepare", "train", "evaluate", "report")},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "corpus.load_csv.s": "s", "corpus.load_csv.calls": "count",
    "corpus.clean_text.s": "s", "corpus.clean_text.calls": "count",
    "corpus.normalize.s": "s", "corpus.normalize.calls": "count",
    "features.fit.s": "s",
    "features.matrix.s": "s", "features.matrix.calls": "count",
    "features.matrix.rows": "count",
    "config.PreparedDataset.save.s": "s", "config.PreparedDataset.save.bytes": "B",
    "config.PreparedDataset.load.s": "s", "config.PreparedDataset.load.calls": "count",
    "search.run_search.calls": "count",
    "search.train_family.s": "s", "search.train_family.calls": "count",
    "search.save_model.s": "s", "search.save_model.bytes": "B",
    "search.load_model.s": "s", "search.evaluate_model.s": "s",
    "linear.fit_logistic.s": "s", "linear.loss_and_gradient.calls": "count",
    "linear.line_search.accept_ratio": "ratio",
    "svm.fit_svm.s": "s", "svm.hinge_objective.s": "s",
    "svm.hinge_objective.calls": "count", "svm.hinge_subgradient.calls": "count",
    "svm.line_search.accept_ratio": "ratio", "svm.kernel_matrix.calls": "count",
    "trees.fit_gbdt.s": "s", "trees.gbdt.nodes": "count",
    "trees.fit_gbdt.s_per_node": "s", "trees.fit_cart.s": "s",
    "trees.best_split.calls": "count", "trees.fit_forest.s": "s",
    "gru.train.s": "s", "gru.loss_and_gradients.s": "s",
    "gru.loss_and_gradients.calls": "count", "gru.timesteps": "count",
    "gru.nonpad_share": "ratio", "gru.predict_scores.s": "s",
    "gru.predict_scores.calls": "count",
    "metrics.evaluate_predictions.s": "s", "metrics.auroc.calls": "count",
    "metrics.roc_curve.s": "s",
    "report.emit_report.s": "s", "report.write_json.bytes": "B",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class Checks:
    """Counts every attempted stage call and check, and every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


@dataclass
class Rep:
    stage_s: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    f1: dict = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mhtext").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def input_shape(config_mod, features_mod, prepared: Path) -> dict:
    """Corpus properties that decide which optimisations can pay off.

    Counted from the train split's tokens: a TF-IDF cell is nonzero
    exactly when the document holds that term (every idf is >= 1), and a
    sequence's non-PAD length is its token count capped at max_len
    (unknown tokens encode as OOV, not PAD).
    """
    dataset = config_mod.PreparedDataset.load(str(prepared))
    docs = [dataset.tokens[i] for i in dataset.indices("train")]
    index = dataset.tfidf.index
    lo, hi = dataset.tfidf.ngram_range
    nonzero = sum(
        len({g for g in features_mod.ngrams(doc, lo, hi) if g in index}) for doc in docs
    )
    padded = dataset.vocab.max_len
    lengths = [min(len(doc), padded) for doc in docs]
    return {
        "docs": dataset.n_docs,
        "classes": dataset.scheme.n_classes,
        "train_rows": len(docs),
        "tfidf_dim": dataset.tfidf.dim,
        "tfidf_density": nonzero / (len(docs) * dataset.tfidf.dim),
        "padded_len": padded,
        "nonpad_len_mean": sum(lengths) / len(lengths),
        "nonpad_len_max": max(lengths),
        "gru.nonpad_share": sum(lengths) / (len(lengths) * padded),
    }


def run_stage(cli, argv: list[str], checks: Checks, tracer=None) -> float:
    """One CLI call; returns its wall seconds and checks its exit code."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    span = tracer.begin("cli.run." + argv[0]) if tracer else None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception:  # a crashing stage is a counted failure
            code = "exception\n" + traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end(span)
    checks.check(code == 0, f"`mhtext {' '.join(argv)}` exited {code}: "
                 f"{err.getvalue().strip()}")
    return elapsed


@dataclass
class Stage:
    group: str  # "prepare" or a family
    argv: list
    artifacts: list


def stage_plan(workload, seed: int, corpus: Path, workdir: Path) -> list[Stage]:
    """The user's CLI flow as a list of stage calls: prepare, then each
    family's tune and train --best (or train --family), evaluate and
    report. Writes the config files the stages read."""
    workdir.mkdir(parents=True)
    prepared = workdir / "prepared.json"
    plan = [Stage("prepare", ["prepare", "--corpus", corpus, "--out", prepared,
                              "--scheme", workload.scheme, "--seed", seed], [prepared])]
    for family in FAMILIES:
        fdir = workdir / family
        fdir.mkdir()
        stem = fdir / "model"
        bundle = [Path(f"{stem}.model.json")]
        if family == "gru":
            bundle += [Path(f"{stem}.npz"), Path(f"{stem}.vocab.json")]
        if workload.grids:
            config = fdir / "experiment.json"
            config.write_text(json.dumps(workload.experiment_config(family, seed)))
            tune = fdir / "tune"
            plan.append(Stage(family, ["tune", "--prepared", prepared, "--config", config,
                                       "--outdir", tune],
                              [tune / "search.json", tune / "best_config.json"]))
            plan.append(Stage(family, ["train", "--prepared", prepared, "--best",
                                       tune / "best_config.json", "--out", stem], bundle))
        else:
            params = fdir / "params.json"
            params.write_text(json.dumps(workload.params[family]))
            plan.append(Stage(family, ["train", "--prepared", prepared, "--family", family,
                                       "--params", params, "--seed", seed, "--out", stem],
                              bundle))
        evaluation = fdir / "evaluation.json"
        report = fdir / "report"
        plan.append(Stage(family, ["evaluate", "--prepared", prepared, "--model", stem,
                                   "--split", "test", "--out", evaluation], [evaluation]))
        plan.append(Stage(family, ["report", "--evaluation", evaluation, "--outdir", report],
                          [report / name for name in ("report.json", "roc_points.csv",
                                                      "class_distribution.csv",
                                                      "class_distribution.svg")]))
    for stage in plan:
        stage.argv = [str(a) for a in stage.argv]
    return plan


def run_pass(cli, workload, plan: list[Stage], checks: Checks, tracer=None) -> Rep:
    """One pass through the plan; checks every exit code, artifact and
    F1 floor, and records each stage's wall seconds in plan order."""
    rep = Rep()
    for stage in plan:
        rep.stage_s.append(run_stage(cli, stage.argv, checks, tracer))
        for path in stage.artifacts:
            checks.check(path.is_file(), f"{stage.argv[0]} did not write {path.name}")
    for stage in plan:
        if stage.argv[0] != "evaluate":
            continue
        family, evaluation = stage.group, Path(stage.argv[-1])
        if evaluation.is_file():
            rep.digests[family] = _sha256(evaluation)
            f1 = json.loads(evaluation.read_text())["metrics"]["prf"]["weighted"]["f1"]
            rep.f1[family] = f1
            floor = workload.f1_floor[family]
            checks.check(f1 >= floor, f"{family} test weighted F1 {f1:.4f} < {floor}")
    return rep


def pipeline_times(plan: list[Stage], reps: list[Rep]) -> dict:
    """Each stage's median over passes, summed into the end-to-end
    times: prepare_s, family_s.<family>, evaluate_s and pipeline_s."""
    medians = [statistics.median(rep.stage_s[i] for rep in reps)
               for i in range(len(plan))]
    times = {"prepare_s": 0.0, **{f"family_s.{f}": 0.0 for f in FAMILIES},
             "evaluate_s": 0.0}
    for stage, seconds in zip(plan, medians):
        key = "prepare_s" if stage.group == "prepare" else f"family_s.{stage.group}"
        times[key] += seconds
        if stage.argv[0] == "evaluate":
            times["evaluate_s"] += seconds
    times["pipeline_s"] = sum(medians)
    return times


def check_determinism(workload, seed: int, reps: list[Rep], checks: Checks) -> None:
    """evaluation.json must not change between repetitions, nor between
    runs of the same seed on the same source in this checkout."""
    first = reps[0].digests
    for rep in reps[1:]:
        for family, digest in rep.digests.items():
            checks.check(digest == first.get(family),
                         f"{family} evaluation.json differs between repetitions")
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    inputs = hashlib.sha256(
        (source_digest() + repr(workload)).encode()).hexdigest()[:16]
    key = f"{workload.name}|seed={seed}|inputs={inputs}"
    if key in known:
        for family, digest in first.items():
            checks.check(digest == known[key].get(family),
                         f"{family} evaluation.json differs from an earlier run "
                         f"of seed {seed}")
    else:
        known[key] = first
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")


IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import numpy\n"
    "from mhtext import cli, config, features, synth\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and the mhtext
    modules the CLI flow loads (interpreter start-up excluded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(synth, workload, seed: int, corpus: Path, reps: int) -> float:
    """Median over repetitions of imports (in a fresh interpreter) plus
    corpus generation and CSV write."""
    samples = []
    for _ in range(reps):
        seconds = import_seconds()
        start = time.perf_counter()
        synth.make_corpus_file(str(corpus), workload.n_docs, seed, **workload.synth)
        samples.append(seconds + time.perf_counter() - start)
    return statistics.median(samples)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result line."""
    from mhtext import cli, config, features, synth
    import numpy as np
    import mhtext
    if Path(mhtext.__file__).resolve().parent != SRC / "mhtext":
        raise RuntimeError(f"imported mhtext from {mhtext.__file__}, not {SRC}")

    os.environ["MHTEXT_FIXED_CLOCK"] = "1"
    os.environ.pop("MHTEXT_OUTPUT_ROOT", None)
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    checks = Checks()
    try:
        corpus = rundir / "corpus.csv"
        # setup_s is an end-to-end metric only; a traced run sets up once
        setup_s = measure_setup(synth, workload, seed, corpus, 1 if trace else SETUP_REPS)
        plan = stage_plan(workload, seed, corpus, rundir / "flow")

        # The first pass warms caches and the BLAS thread; it is checked
        # but not timed. Passes then start while less than `seconds` have
        # passed since the first began. A traced run alternates untraced
        # and traced passes, so both see the same machine state.
        measure_start = time.perf_counter()
        warm = run_pass(cli, workload, plan, checks)
        untraced, traced = [], []
        tracer = Tracer() if trace else None
        while (len(untraced) < MIN_PASSES or (trace and not traced)
               or time.perf_counter() - measure_start < seconds):
            untraced.append(run_pass(cli, workload, plan, checks))
            if trace:
                for target in tracer.install(mhtext):
                    checks.check(False, f"trace target {target} not found")
                try:
                    traced.append(run_pass(cli, workload, plan, checks, tracer))
                finally:
                    tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_determinism(workload, seed, [warm, *untraced, *traced], checks)

        print("environment " + json.dumps(environment_record(np), sort_keys=True))
        shape = input_shape(config, features, rundir / "flow" / "prepared.json")
        print(f"input_shape {workload.name} " + json.dumps(shape, sort_keys=True))
        print("test_weighted_f1 " + json.dumps(warm.f1))

        print("stage_median_s " + json.dumps(
            {" ".join(stage.argv[:1] + [stage.group]): round(statistics.median(
                rep.stage_s[i] for rep in untraced), 6) for i, stage in enumerate(plan)}))
        e2e = {"setup_s": setup_s, **pipeline_times(plan, untraced),
               "peak_rss_mb": peak_rss_mb,
               "error_rate": checks.failed / max(checks.attempted, 1)}
        e2e_metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
        _print_metrics(f"end_to_end {workload.name} seed={seed} "
                       f"timed_passes={len(untraced)}", e2e_metrics)
        if trace:
            layers = tracer.summary(len(traced))
            layers["trace.overhead_s"] = (pipeline_times(plan, traced)["pipeline_s"]
                                          - e2e["pipeline_s"])
            layers["trace.spans"] = len(tracer.spans) / len(traced)
            trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
            tracer.write(str(trace_path))
            print(f"spans of {len(traced)} traced passes written to {trace_path}")
            metrics = {name: (layers.get(name, 0.0), unit)
                       for name, unit in LAYER_UNITS.items()}
            _print_metrics(f"per_layer per traced pass (traced_passes={len(traced)})",
                           {k: (v, "") for k, v in sorted(layers.items())})
        else:
            metrics = {k: v for k, v in e2e_metrics.items() if k != "error_rate"}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mhtext" / "__init__.py").is_file():
        print(f"error: no mhtext source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"use one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    print(f"BLAS threads fixed to {BLAS_THREADS}")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
