"""End-to-end shakedown: generate a corpus, then run the five CLI stages.

Makes a synthetic corpus (or reuses one) and calls `mhtext prepare`,
`tune`, `train --best`, `evaluate` and `report` through `mhtext.cli.run`,
leaving every artifact in the output directory. Exits with the first
nonzero stage exit code.
"""

import argparse
import os
import sys

from mhtext import cli, presets, synth


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--preset", default="binary",
                        help=f"one of: {', '.join(presets.preset_names())}")
    parser.add_argument("--scheme", choices=("binary", "multiclass"), default="binary")
    parser.add_argument("--n-docs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corpus", help="reuse a corpus CSV instead of generating one")
    args = parser.parse_args()

    # absolute paths, so MHTEXT_OUTPUT_ROOT cannot move one stage's
    # outputs away from the next stage's inputs
    outdir = os.path.abspath(args.outdir)
    os.makedirs(outdir, exist_ok=True)
    corpus = os.path.abspath(args.corpus or os.path.join(outdir, "corpus.csv"))
    if not args.corpus:
        statuses = ("Normal", "Depression") if args.scheme == "binary" else None
        kwargs = {"statuses": statuses, "normal_fraction": 0.5} if statuses else {}
        try:
            synth.make_corpus_file(corpus, args.n_docs, args.seed, **kwargs)
        except ValueError as exc:  # a SynthSpec field breaking its rule
            parser.error(str(exc))
        print(f"generated {corpus}")

    prepared, model, evaluation = (os.path.join(outdir, name) for name in
                                   ("prepared.json", "model", "evaluation.json"))
    stages = (
        ["prepare", "--corpus", corpus, "--out", prepared,
         "--scheme", args.scheme, "--seed", str(args.seed)],
        ["tune", "--prepared", prepared, "--preset", args.preset, "--outdir", outdir],
        ["train", "--prepared", prepared,
         "--best", os.path.join(outdir, "best_config.json"), "--out", model],
        ["evaluate", "--prepared", prepared, "--model", model,
         "--split", "test", "--out", evaluation],
        ["report", "--evaluation", evaluation, "--outdir", outdir],
    )
    for argv in stages:
        code = cli.run(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
