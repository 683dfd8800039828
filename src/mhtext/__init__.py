"""Text classification toolkit for short social-media style statements.

The pipeline: load and clean a corpus CSV, map statuses to labels,
split deterministically, featurize (TF-IDF for the classical models, id
sequences for the recurrent one), train, and evaluate with
imbalance-aware metrics. A search harness and a CLI tie the stages
together.

Import names from their submodules (`from mhtext.metrics import
auroc`); the package itself only makes each submodule an attribute.
"""

from . import (
    cli,
    config,
    corpus,
    features,
    gru,
    linear,
    metrics,
    presets,
    report,
    search,
    seeds,
    svm,
    synth,
    trees,
)

__version__ = "0.1.0"

__all__ = [
    "cli",
    "config",
    "corpus",
    "features",
    "gru",
    "linear",
    "metrics",
    "presets",
    "report",
    "search",
    "seeds",
    "svm",
    "synth",
    "trees",
    "__version__",
]
