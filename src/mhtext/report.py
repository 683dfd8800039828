"""Report emission: JSON metrics, ROC points, and class distributions.

Outputs are byte-deterministic for a given evaluation when the fixed
clock is on (MHTEXT_FIXED_CLOCK=1): JSON is dumped with sorted keys,
floats are repr'd by json itself, CSV rows use fixed formatting, and
the SVG contains no volatile content. With the real clock only the
generated_at stamp differs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

FIXED_CLOCK_ENV = "MHTEXT_FIXED_CLOCK"
_EPOCH_STAMP = "1970-01-01T00:00:00Z"


def fixed_clock_enabled() -> bool:
    return os.environ.get(FIXED_CLOCK_ENV, "").strip().lower() in ("1", "true", "yes")


def timestamp() -> str:
    if fixed_clock_enabled():
        return _EPOCH_STAMP
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _roc_csv(points: list[dict]) -> str:
    lines = ["fpr,tpr,threshold"]
    for point in points:
        threshold = point.get("threshold")
        thr = "" if threshold is None else format(float(threshold), ".17g")
        lines.append(
            f"{format(float(point['fpr']), '.17g')},"
            f"{format(float(point['tpr']), '.17g')},{thr}"
        )
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
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        written.append(path)
    return written
