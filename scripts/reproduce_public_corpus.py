"""Train every model family on the public mental-health corpus.

Expects the combined Kaggle sentiment CSV (statement, status columns;
about 51k rows after dropping empties). Trains each family with
`presets.PUBLIC_CORPUS_PARAMS` and model seed 1, which the recorded
targets of acceptance check 9 assume, prints test weighted F1, AUROC
and seconds per family for the chosen scheme, and writes the prepared
dataset and each family's evaluation file to the output directory.

This is a long run: the forest and GRU take hours on a laptop.
"""

import argparse
import os
import time

from mhtext import report, search
from mhtext.config import prepare_dataset
from mhtext.presets import PUBLIC_CORPUS_PARAMS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--corpus", required=True, help="public corpus CSV")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--scheme", choices=("binary", "multiclass"), default="binary")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--families", nargs="+", default=None,
                        help="subset of families to run (default: all five)")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    param_table = PUBLIC_CORPUS_PARAMS[args.scheme]
    print(f"preparing {args.scheme} dataset from {args.corpus} ...")
    dataset = prepare_dataset(args.corpus, scheme_kind=args.scheme, seed=args.seed,
                              stratify=True)
    print(f"{dataset.n_docs} documents, {dataset.scheme.n_classes} classes, "
          f"{dataset.n_dropped} dropped as empty")
    dataset.save(os.path.join(args.outdir, f"prepared_{args.scheme}.json"))

    for family in args.families or list(param_table):
        start = time.perf_counter()
        fitted = search.train_family(family, dict(param_table[family]), dataset,
                                     model_seed=1)
        evaluation = search.evaluate_model(fitted, dataset, "test")
        auc = evaluation.auroc_values.get("binary", evaluation.auroc_values.get("micro"))
        print(f"{family:>9}: weighted F1 {evaluation.prf.weighted['f1']:.4f}  "
              f"AUROC {auc:.4f}  ({time.perf_counter() - start:.0f}s)")
        report.write_json(
            search.evaluation_record(family, dataset, "test", evaluation),
            os.path.join(args.outdir, f"evaluation_{args.scheme}_{family}.json"),
        )


if __name__ == "__main__":
    main()
