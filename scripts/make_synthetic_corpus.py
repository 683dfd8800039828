"""Generate a labeled synthetic corpus CSV for pipeline shakedowns.

Each status draws from its own marker-word pool, so any competent
classifier should separate the classes; the point is exercising the
plumbing, not the models.
"""

import argparse
import os

from mhtext import synth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="CSV path to write")
    parser.add_argument("--n-docs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--statuses", nargs="+", default=None,
        help="status names to draw from (default: all of "
             f"{' '.join(synth.DEFAULT_STATUSES)})",
    )
    parser.add_argument(
        "--normal-fraction", type=float, default=0.34,
        help="share of documents labeled Normal",
    )
    parser.add_argument(
        "--clean", action="store_true",
        help="skip the URL/mention/casing noise layer",
    )
    args = parser.parse_args()

    kwargs = {"normal_fraction": args.normal_fraction, "noise": not args.clean}
    if args.statuses:
        kwargs["statuses"] = tuple(args.statuses)
    # the README quick start writes into a directory that may not exist yet
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    try:
        rows = synth.make_corpus_file(args.out, args.n_docs, args.seed, **kwargs)
    except ValueError as exc:  # a SynthSpec field breaking its rule
        parser.error(str(exc))
    counts: dict[str, int] = {}
    for _, _, status in rows:
        counts[status] = counts.get(status, 0) + 1
    print(f"wrote {len(rows)} documents to {args.out}")
    for status in sorted(counts):
        print(f"  {status}: {counts[status]}")


if __name__ == "__main__":
    main()
