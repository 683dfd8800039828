"""Workload definitions for the mhtext benchmark.

A workload fixes the corpus shape (handed to ``synth.SynthSpec``) and
the CLI chain each model family runs. The program only ever sees the
corpus CSV; everything else here is the benchmark's own input.

Why these two:

* ``desk-binary-2k`` is the README quick start at the acceptance size,
  on the default short documents: a sparse TF-IDF matrix (about 1.8%
  nonzero) and GRU sequences that are mostly padding (about 17% of the
  steps are tokens). Every layer does a little work, so fixed per-call
  costs, JSON artifacts, ``search`` and ``report`` are a large share of
  the total, and sparse histograms and padding trimming see their best
  case. An optimisation tuned for large inputs that adds set-up cost
  shows here as a regression.
* ``multiclass-3k-long`` runs the six-status scheme with fixed params on
  long documents: denser TF-IDF (about 6.5%) and sequences that fill
  most of the padded length (about 86%). Corpus, feature and JSON I/O
  do much more work per document, padding trimming has almost nothing
  to remove, and a change that wins on short inputs must show no change
  here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FAMILIES = ("logistic", "svm", "cart", "forest", "gbdt", "gru")

# Fixed params for the multiclass workload, sized so that no single
# family takes more than about a quarter of pipeline_s and every family
# still learns (see F1_FLOOR_3K).
PARAMS_3K = {
    "logistic": {"C": 1000.0, "max_iter": 20},
    "svm": {"kernel": "linear", "C": 0.1, "max_epochs": 4,
            "class_weight": "balanced"},
    "cart": {"max_depth": 3},
    "forest": {"n_estimators": 3, "max_depth": 8},
    "gbdt": {"n_estimators": 1, "num_leaves": 2, "max_bins": 16,
             "learning_rate": 1.0},
    "gru": {"embedding_dim": 16, "hidden_dim": 16, "epochs": 1,
            "batch_size": 32, "dropout": 0.0, "learning_rate": 0.03},
}

# Two-point grids for the tune flow; the svm grid spans both kernels so
# the dual kernel path runs. The other axes leave the cost of a fit
# unchanged, so `train --best` does the same work whichever point wins
# on a given seed.
GRIDS_2K = {
    "logistic": {"fixed": {"max_iter": 60, "tol": 0.0},
                 "grid": {"C": [10.0, 100.0]}},
    "svm": {"fixed": {"C": 1.0, "max_epochs": 12},
            "grid": {"kernel": ["linear", "rbf"]}},
    "cart": {"fixed": {"max_depth": 3}, "grid": {"criterion": ["gini", "entropy"]}},
    "forest": {"fixed": {"n_estimators": 3, "max_depth": 8},
               "grid": {"criterion": ["gini", "entropy"]}},
    "gbdt": {"fixed": {"n_estimators": 2, "num_leaves": 4, "max_bins": 16},
             "grid": {"learning_rate": [0.3, 1.0]}},
    "gru": {"fixed": {"embedding_dim": 16, "hidden_dim": 16, "epochs": 1,
                      "batch_size": 64, "dropout": 0.0},
            "grid": {"learning_rate": [3e-3, 1e-2]}},
}


# Test weighted F1 floors, set below the lowest value seen over seeds
# 0-9 (2k: cart 0.86, forest 0.89, the rest 0.98 or more; 3k: logistic
# 0.84, svm 0.998, cart 0.43, forest 0.71, gbdt 0.72, gru 0.60).
# Chance is 0.5 on the binary scheme and about 0.17 on the six-status mix.
F1_FLOOR_2K = dict.fromkeys(FAMILIES, 0.8)
F1_FLOOR_3K = {"logistic": 0.75, "svm": 0.9, "cart": 0.3, "forest": 0.5,
               "gbdt": 0.5, "gru": 0.4}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_docs: int
    scheme: str
    # extra SynthSpec fields
    synth: dict = field(default_factory=dict)
    # family -> experiment config body for `tune`; None selects the
    # `train --family` flow with `params`
    grids: dict | None = None
    params: dict | None = None
    # family -> lowest acceptable test weighted F1
    f1_floor: dict = field(default_factory=dict)

    def experiment_config(self, family: str, seed: int) -> dict:
        body = self.grids[family]
        return {"schema_version": 1, "family": family, "mode": "grid",
                "seed": seed, "fixed": body["fixed"], "grid": body["grid"]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-binary-2k",
            why="README quick start at acceptance size on short docs: fixed "
                "per-call, JSON, search and report costs, mostly-PAD GRU steps",
            n_docs=2000,
            scheme="binary",
            synth={"statuses": ("Normal", "Depression"), "normal_fraction": 0.5},
            grids=GRIDS_2K,
            f1_floor=F1_FLOOR_2K,
        ),
        Workload(
            name="multiclass-3k-long",
            why="six statuses on long docs: dense TF-IDF and full GRU steps, "
                "corpus, feature and JSON I/O do the most work",
            n_docs=3000,
            scheme="multiclass",
            synth={"min_markers": 6, "max_markers": 12,
                   "min_fillers": 40, "max_fillers": 70},
            params=PARAMS_3K,
            f1_floor=F1_FLOOR_3K,
        ),
    )
}
