"""Report emission: JSON metrics, ROC points, and class distributions.

Outputs are byte-deterministic for a given evaluation when the fixed
clock is on (MHTEXT_FIXED_CLOCK=1): JSON is written with sorted keys,
floats are repr'd by json itself, CSV rows use fixed formatting, and
the SVG contains no volatile content. With the real clock only the
generated_at stamp differs.

Indented JSON has the bytes of json.dumps(payload, sort_keys=True,
indent=2), which the standard library encodes in pure Python only.
`indented_json` hands every run of scalars to json's C encoder in one
call instead (a list of numbers, a dict's values, the values of a list
of records such as the ROC points) and lays out the tokens it returns.

Every file the CLI writes goes through `replacing`: it is written
under a temporary name beside its path and then moved over it, so an
interrupted or failed write leaves the old file as it was.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

from .errors import DataError, check_header

EVALUATION_SCHEMA_VERSION = 1  # of the evaluation file `evaluate` writes and `report` reads
FIXED_CLOCK_ENV = "MHTEXT_FIXED_CLOCK"
_EPOCH_STAMP = "1970-01-01T00:00:00Z"


def fixed_clock_enabled() -> bool:
    return os.environ.get(FIXED_CLOCK_ENV, "").strip().lower() in ("1", "true", "yes")


def timestamp() -> str:
    if fixed_clock_enabled():
        return _EPOCH_STAMP
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_C_ENCODER = json.JSONEncoder(sort_keys=True)  # no indent, so encode() runs in C
_SCALARS = (str, int, float)  # bool is an int


def _tokens(values) -> list[str] | None:
    """The JSON text of each of `values` from one C encoder call; None
    unless all are scalars, or when a string holding ", " splits apart."""
    if all(value is None or isinstance(value, _SCALARS) for value in values):
        tokens = _C_ENCODER.encode(values)[1:-1].split(", ")
        if len(tokens) == len(values):
            return tokens
    return None


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return _C_ENCODER.encode({key: None})[1:-7]  # a number, bool or None key as json spells it


def _records(items, inner: str) -> str | None:
    """The items of a list of dicts that share one set of str keys and
    hold only scalars, poured from one C encoder call into a %-template;
    None for any other list."""
    first = items[0]
    if not (isinstance(first, dict) and first and all(isinstance(k, str) for k in first)
            and all(isinstance(item, dict) and item.keys() == first.keys() for item in items)):
        return None
    keys = sorted(first)
    tokens = _tokens([item[key] for item in items for key in keys])
    if tokens is None:
        return None
    field = inner + "  "
    record = "{" + field + ("," + field).join(
        _key(key).replace("%", "%%") + ": %s" for key in keys) + inner + "}"
    return ("," + inner).join([record] * len(items)) % tuple(tokens)


def _indented(obj, level: int) -> str:
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items())
        values = [value for _, value in items]
        texts = _tokens(values) or [_indented(value, level + 1) for value in values]
        return "{" + inner + ("," + inner).join(
            _key(key) + ": " + text for (key, _), text in zip(items, texts)) + outer + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        texts = _tokens(obj)
        body = ("," + inner).join(texts) if texts is not None else _records(obj, inner)
        if body is None:
            body = ("," + inner).join(_indented(item, level + 1) for item in obj)
        return "[" + inner + body + outer + "]"
    return _C_ENCODER.encode(obj)


def indented_json(payload) -> str:
    """The text of json.dumps(payload, sort_keys=True, indent=2), or the
    exception it raises."""
    return _indented(payload, 0)


@contextlib.contextmanager
def replacing(path: str, binary: bool = False):
    """A handle on `<path>.<pid>.tmp`, moved over `path` when the block
    ends. When the block or the move raises, the temporary file is
    deleted and `path` keeps its old bytes."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with (open(temp, "wb") if binary
              else open(temp, "w", encoding="utf-8", newline="\n")) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def write_json(payload: dict, path: str) -> None:
    with replacing(path) as handle:
        handle.write(indented_json(payload) + "\n")


def _roc_csv(points: list[dict]) -> str:
    lines = ["fpr,tpr,threshold"]
    for point in points:
        threshold = point.get("threshold")
        if threshold is None:
            lines.append("%.17g,%.17g," % (point["fpr"], point["tpr"]))
        else:
            lines.append("%.17g,%.17g,%.17g" % (point["fpr"], point["tpr"], threshold))
    return "\n".join(lines) + "\n"


def _distribution_rows(confusion: list[list[int]], class_names: list[str]):
    counts = [int(sum(row)) for row in confusion]
    names = list(class_names) + [
        f"class_{i}" for i in range(len(class_names), len(counts))
    ]
    return [(i, names[i], counts[i]) for i in range(len(counts))]


def _distribution_csv(rows) -> str:
    lines = ["class_id,class_name,count"]
    for class_id, name, count in rows:
        safe = '"' + name.replace('"', '""') + '"' if "," in name or '"' in name else name
        lines.append(f"{class_id},{safe},{count}")
    return "\n".join(lines) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def distribution_svg(rows, title: str = "Class distribution") -> str:
    """A self-contained bar chart; no external assets, no randomness."""
    width, height = 640, 360
    left, right, top, bottom = 60, 20, 40, 80
    plot_w = width - left - right
    plot_h = height - top - bottom
    counts = [count for _, _, count in rows]
    peak = max(counts) if counts else 1
    peak = max(peak, 1)
    n = max(len(rows), 1)
    slot = plot_w / n
    bar_w = slot * 0.7
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle" fill="#222222">{_esc(title)}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#444444" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="#444444" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        value = int(round(peak * frac))
        y = top + plot_h - plot_h * frac
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" fill="#444444">{value}</text>'
        )
        if frac > 0:
            parts.append(
                f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
    for i, (_, name, count) in enumerate(rows):
        x = left + slot * i + (slot - bar_w) / 2
        bar_h = plot_h * (count / peak)
        y = top + plot_h - bar_h
        label = name if len(name) <= 14 else name[:13] + "…"
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{bar_h:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 5:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="#222222">{count}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{top + plot_h + 16:.1f}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle" '
            f'fill="#222222" transform="rotate(30 {x + bar_w / 2:.1f} '
            f'{top + plot_h + 16:.1f})">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render(evaluation: dict) -> list[tuple[str, str]]:
    """The ROC and class-distribution files as (name, text) pairs; raises
    on metrics they cannot be drawn from."""
    metrics = evaluation.get("metrics", {})
    files = []
    points = metrics.get("roc_points")
    if points:
        files.append(("roc_points.csv", _roc_csv(points)))
    confusion = metrics.get("confusion_matrix")
    if confusion:
        rows = _distribution_rows(confusion, evaluation.get("class_names", []))
        files.append(("class_distribution.csv", _distribution_csv(rows)))
        files.append(("class_distribution.svg", distribution_svg(rows)))
    return files


@dataclass(frozen=True)
class Report:
    """A checked evaluation and the ROC and class-distribution files
    drawn from it, as (name, text) pairs."""

    evaluation: dict
    files: list[tuple[str, str]]


def check_evaluation(evaluation: dict) -> Report:
    """Decode an evaluation file read from JSON: its metrics must be an
    object that every report file can be drawn from, so a file that
    cannot be drawn is refused before any is written."""
    check_header(evaluation, "evaluation file", DataError,
                 schema_version=EVALUATION_SCHEMA_VERSION)
    if not isinstance(evaluation.get("metrics"), dict):
        raise ValueError("no metrics object")
    return Report(evaluation, _render(evaluation))


def emit_report(report: Report, outdir: str) -> list[str]:
    """Write report.json plus the report's ROC and class-distribution
    files.

    Returns the list of paths written. The ROC CSV is only produced when
    the evaluation carries ROC points.
    """
    payload = dict(report.evaluation)
    payload["generated_at"] = timestamp()
    os.makedirs(outdir, exist_ok=True)
    report_path = os.path.join(outdir, "report.json")
    write_json(payload, report_path)
    written = [report_path]
    for name, text in report.files:
        path = os.path.join(outdir, name)
        with replacing(path) as handle:
            handle.write(text)
        written.append(path)
    return written
