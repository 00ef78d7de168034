"""CSV and SVG reporting for experiment results.

All output is byte-deterministic: floats are written with ``repr`` (exact
round-trip, so regenerated aggregates match the originals) and the SVG
emitter formats coordinates with fixed precision.
"""

from __future__ import annotations

from contextlib import closing
from pathlib import Path
from typing import Sequence

from .data import write_csv, csv_rows
from .errors import DataError
from .experiment import ExperimentResult, LearningCurve, RoundRecord, aggregate_curve
from .patients import INIT_MODES, STRATEGIES

RAW_FIELDS = (
    "strategy", "init_mode", "trial_seed", "round", "train_size",
    "test_accuracy", "epochs_used", "relaxed_count",
)
AGGREGATE_FIELDS = (
    "strategy", "init_mode", "round", "train_size", "mean_acc", "std_acc", "stderr_acc",
)

RAW_FILENAME = "raw.csv"
AGGREGATE_FILENAME = "aggregate.csv"

GroupKey = tuple[str, str]  # (strategy, init_mode)


def write_raw_csv(groups: Sequence[tuple[GroupKey, Sequence[RoundRecord]]], path) -> None:
    write_csv(path, RAW_FIELDS, (
        [strategy, init_mode, r.trial_seed, r.round_index, r.train_size,
         r.test_accuracy, r.epochs_used, r.relaxed_count]
        for (strategy, init_mode), records in groups
        for r in records
    ))


def write_aggregate_csv(groups: Sequence[tuple[GroupKey, LearningCurve]], path) -> None:
    write_csv(path, AGGREGATE_FIELDS, (
        [strategy, init_mode, i, size,
         curve.mean_accuracy[i], curve.std_accuracy[i], curve.stderr_accuracy[i]]
        for (strategy, init_mode), curve in groups
        for i, size in enumerate(curve.train_sizes)
    ))


def read_raw_csv(path) -> dict[GroupKey, list[RoundRecord]]:
    """Parse a raw CSV back into records grouped by (strategy, init_mode).

    Every field is checked, and a (trial, round) listed twice in a group is
    rejected at its second line.
    """
    groups: dict[GroupKey, list[RoundRecord]] = {}
    lines: dict[tuple, int] = {}  # (strategy, init_mode, trial_seed, round) -> first line
    with closing(csv_rows(path)) as rows:
        _, header = next(rows, (1, []))
        if tuple(header) != RAW_FIELDS:
            raise DataError(f"{path}: expected header {','.join(RAW_FIELDS)}")
        for line_number, fields in rows:
            try:
                if len(fields) != len(RAW_FIELDS):
                    raise ValueError(f"expected {len(RAW_FIELDS)} fields, found {len(fields)}")
                row = dict(zip(RAW_FIELDS, fields))
                key = (row["strategy"], row["init_mode"])
                if key[0] not in STRATEGIES:
                    raise ValueError(f"unknown strategy {key[0]!r}")
                if key[1] not in INIT_MODES:
                    raise ValueError(f"unknown init_mode {key[1]!r}")
                record = RoundRecord(
                    trial_seed=int(row["trial_seed"]),
                    round_index=int(row["round"]),
                    train_size=int(row["train_size"]),
                    test_accuracy=float(row["test_accuracy"]),
                    epochs_used=int(row["epochs_used"]),
                    relaxed_count=int(row["relaxed_count"]),
                )
            except ValueError as exc:
                raise DataError(f"{path}:{line_number}: malformed row ({exc})") from None
            where = (*key, record.trial_seed, record.round_index)
            if where in lines:
                raise DataError(f"{path}:{line_number}: {_label(key)} trial {record.trial_seed} "
                                f"round {record.round_index} repeats line {lines[where]}")
            lines[where] = line_number
            groups.setdefault(key, []).append(record)
    if not groups:
        raise DataError(f"{path}: no data rows")
    return groups


# ---------------------------------------------------------------------------
# SVG learning-curve plots
# ---------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH, _HEIGHT = 640, 440
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 62, 18, 30, 48


def render_curves_svg(series: Sequence[tuple[str, LearningCurve]], title: str = "") -> str:
    """Render learning curves: one mean path and one stderr band per series.

    x is the train-set size, y the mean test accuracy on the fixed [0, 1]
    axis; the shaded band spans mean +/- standard error.
    """
    if not series:
        raise ValueError("no curves to render")
    sizes = sorted({s for _, curve in series for s in curve.train_sizes})
    x_min, x_max = sizes[0], sizes[-1]
    if x_min == x_max:
        x_min, x_max = x_min - 1, x_max + 1

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (1.0 - y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.2f}" y="18" text-anchor="middle" font-size="13">{_escape(title)}</text>'
        )

    # axes and ticks
    x0, y0 = px(x_min), py(0.0)
    parts.append(f'<line x1="{x0:.2f}" y1="{py(1.0):.2f}" x2="{x0:.2f}" y2="{y0:.2f}" stroke="black"/>')
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{px(x_max):.2f}" y2="{y0:.2f}" stroke="black"/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(tick)
        parts.append(f'<line x1="{x0 - 4:.2f}" y1="{y:.2f}" x2="{x0:.2f}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 7:.2f}" y="{y + 3.5:.2f}" text-anchor="end">{tick:.2f}</text>'
        )
    for tick in _x_ticks(sizes):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y0 + 4:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{y0 + 16:.2f}" text-anchor="middle">{tick}</text>')
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 10}" text-anchor="middle">train set size</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.2f})">test accuracy</text>'
    )

    for index, (label, curve) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        xs = [px(s) for s in curve.train_sizes]
        upper = [py(min(1.0, m + e)) for m, e in zip(curve.mean_accuracy, curve.stderr_accuracy)]
        lower = [py(max(0.0, m - e)) for m, e in zip(curve.mean_accuracy, curve.stderr_accuracy)]
        band_points = " ".join(
            [f"{x:.2f},{y:.2f}" for x, y in zip(xs, upper)]
            + [f"{x:.2f},{y:.2f}" for x, y in zip(reversed(xs), reversed(lower))]
        )
        parts.append(
            f'<polygon class="band" fill="{color}" fill-opacity="0.18" stroke="none" points="{band_points}"/>'
        )
        path = "M" + " L".join(
            f"{x:.2f},{py(m):.2f}" for x, m in zip(xs, curve.mean_accuracy)
        )
        parts.append(
            f'<path class="curve" d="{path}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for x, m in zip(xs, curve.mean_accuracy):
            parts.append(f'<circle cx="{x:.2f}" cy="{py(m):.2f}" r="2.2" fill="{color}"/>')
        legend_y = _MARGIN_TOP + 14 + 16 * index
        parts.append(
            f'<line x1="{_MARGIN_LEFT + 8}" y1="{legend_y - 4}" x2="{_MARGIN_LEFT + 30}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{_MARGIN_LEFT + 35}" y="{legend_y}">{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _x_ticks(sizes: Sequence[int], max_ticks: int = 6) -> list[int]:
    if len(sizes) <= max_ticks:
        return list(sizes)
    step = (len(sizes) - 1) / (max_ticks - 1)
    return [sizes[round(i * step)] for i in range(max_ticks)]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# ---------------------------------------------------------------------------
# Top-level report emission
# ---------------------------------------------------------------------------

def report_files(directory, keys: Sequence[GroupKey]) -> list[Path]:
    """The files a report on the groups ``keys`` writes into ``directory``, in this order.

    ``raw.csv`` (written by :func:`emit_report` alone), ``aggregate.csv``, one SVG
    per group, and a combined overlay SVG when there are several groups.
    """
    directory = Path(directory)
    svg = [directory / f"curve_{strategy}_{init_mode}.svg" for strategy, init_mode in keys]
    if len(keys) > 1:
        svg.append(directory / "curves_combined.svg")
    return [directory / RAW_FILENAME, directory / AGGREGATE_FILENAME, *svg]


def emit_report(results: Sequence[ExperimentResult], out_dir) -> dict[str, object]:
    """Write raw CSV, aggregate CSV, and learning-curve SVGs for results.

    Each experiment gets its own SVG; when several experiments are emitted
    together a combined overlay plot is written as well. Returns the paths.
    """
    if not results:
        raise ValueError("no results to report")

    keys = [(res.config.strategy, res.config.init_mode) for res in results]
    if len(set(keys)) != len(keys):
        raise ValueError("results must have distinct (strategy, init_mode) pairs")

    raw_path, aggregate_path, *svg_paths = report_files(out_dir, keys)
    write_raw_csv([(key, res.records) for key, res in zip(keys, results)], raw_path)
    _write_curves([(key, res.curve) for key, res in zip(keys, results)], aggregate_path, svg_paths)
    return {"raw": raw_path, "aggregate": aggregate_path, "svg": svg_paths}


def regenerate_report(in_dir) -> dict[str, object]:
    """Rebuild aggregate CSV and SVGs from an existing raw CSV.

    An output file that exists as a directory is a DataError, raised before anything is written.
    """
    path = Path(in_dir) / RAW_FILENAME
    curves = []
    for key, records in read_raw_csv(path).items():
        try:
            curves.append((key, aggregate_curve(records)))
        except ValueError as exc:
            raise DataError(f"{path}: {_label(key)}: {exc}") from None
    _, aggregate_path, *svg_paths = report_files(in_dir, [key for key, _ in curves])
    for target in (aggregate_path, *svg_paths):
        if target.is_dir():
            raise DataError(f"cannot write {target}: it is a directory")
    _write_curves(curves, aggregate_path, svg_paths)
    return {"aggregate": aggregate_path, "svg": svg_paths}


def _label(key: GroupKey) -> str:
    return f"{key[0]} ({key[1]} init)"


def _write_curves(curves: Sequence[tuple[GroupKey, LearningCurve]], aggregate_path: Path,
                  svg_paths: Sequence[Path]) -> None:
    """Aggregate CSV plus one SVG per experiment, and a combined overlay when there are several."""
    write_aggregate_csv(curves, aggregate_path)
    labeled = [(_label(key), curve) for key, curve in curves]
    for (label, curve), svg_path in zip(labeled, svg_paths):
        svg_path.write_text(render_curves_svg([(label, curve)], title=label), encoding="utf-8")
    if len(labeled) > 1:
        svg_paths[-1].write_text(render_curves_svg(labeled, title="learning curves"), encoding="utf-8")
