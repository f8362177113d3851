"""Metric suite over an evaluation split: coarse accuracy (Level-1),
within-group fine accuracy (Level-2 A), joint-score accuracy (Level-2 B),
and thresholded fallback accuracy (Level-2 C) with stop/proceed counts,
for every scoring unit of `inference.UNITS`, plus per-class precision
and per-species coarse-stop rates.

Accuracies are micro accuracy over units, reported as percentages.

Every scheme is scored the same way: `evaluate` picks the scheme's heads
(the flat baseline's through `flat_heads`) and reads every metric from
the per-unit rows of one `inference.score_split` call, so a split that
is thresholded and evaluated is scored once.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import data as D
from .errors import EmptyEvalSet
from .inference import TAU_UNIT, UnitRows, best_threshold, check_threshold, score_split
# not called here: perfbench's tracer wraps these names on this module too
from .inference import aggregate_avg, aggregate_vote, score_track  # noqa: F401
from .model import FineLocal, HeadOutputs, ModelParams, forward_flat
from .taxonomy import Taxonomy
from .training import loss_of


@dataclass(kw_only=True)
class UnitReport:
    unit: str
    n_units: int
    level1_acc: float
    level2a_acc: float
    level2b_acc: float
    level2c_acc: float
    stopped: int
    proceeded: int
    tau: float
    # per-class precision; None where a class was never predicted
    per_group_precision_level1: dict[str, float | None]
    per_species_precision_2a: dict[str, float | None]
    per_species_precision_2b: dict[str, float | None]
    # fraction of units with this ground-truth species that stopped coarse
    per_species_stop_fraction: dict[str, float | None]


@dataclass
class EvalReport:
    scheme: str
    tau: float
    units: dict[str, UnitReport]


def _shares(hits: np.ndarray, totals: np.ndarray, names, scale: float) -> dict:
    """name -> `scale * (hits / total)` of each class, None where its total
    is 0; `hits / total` is the float `np.mean` gives over the class's mask."""
    return {name: scale * (h / t) if t else None
            for name, h, t in zip(names, hits.tolist(), totals.tolist())}


def _precision(pred: np.ndarray, truth: np.ndarray, names) -> dict:
    n = len(names)
    return _shares(np.bincount(pred[pred == truth], minlength=n),
                   np.bincount(pred, minlength=n), names, 100.0)


def _unit_report(unit: str, rows: UnitRows, tau: float, taxonomy: Taxonomy) -> UnitReport:
    """Metrics of one unit from its rows."""
    n = rows.y1.shape[0]
    stopped_mask = rows.stopped(tau)
    S = taxonomy.S
    stop_frac = _shares(np.bincount(rows.y2[stopped_mask], minlength=S),
                        np.bincount(rows.y2, minlength=S), taxonomy.species_names, 1.0)
    return UnitReport(
        unit=unit,
        n_units=n,
        level1_acc=float(100.0 * np.mean(rows.coarse == rows.y1)),
        level2a_acc=float(100.0 * np.mean(rows.level2a == rows.y2)),
        level2b_acc=float(100.0 * np.mean(rows.fine == rows.y2)),
        level2c_acc=float(100.0 * np.mean(rows.correct(tau))),
        stopped=int(stopped_mask.sum()),
        proceeded=int(n - stopped_mask.sum()),
        tau=tau,
        per_group_precision_level1=_precision(rows.coarse, rows.y1, taxonomy.groups),
        per_species_precision_2a=_precision(rows.level2a, rows.y2, taxonomy.species_names),
        per_species_precision_2b=_precision(rows.fine, rows.y2, taxonomy.species_names),
        per_species_stop_fraction=stop_frac,
    )


def flat_heads(params: ModelParams, x) -> HeadOutputs:
    """The flat baseline's softmax as hierarchical outputs, a flat
    classifier with a post-hoc hierarchy: `joint` is the softmax itself,
    `coarse` its sum over each group's columns and `fine_local` each
    group's columns over that sum. A group whose sum underflows to 0 gets
    NaN columns, but it never wins the coarse argmax, and `select_image`
    reads only the winner's columns."""
    t, joint = params.taxonomy, forward_flat(params, x)
    coarse = np.add.reduceat(joint, t.starts, axis=-1)
    fine = joint / coarse[..., t.column_group]
    return HeadOutputs(coarse, FineLocal(fine, t.spans), joint)


def evaluate(params: ModelParams, eval_split: D.Dataset, taxonomy: Taxonomy,
             tau: float | None, scheme: str = "scheme3") -> EvalReport:
    """Full hierarchical metric suite of `scheme`'s heads over every unit
    of `inference.UNITS`, at `tau`, or, if it is None, at the threshold
    `best_threshold` finds on the `TAU_UNIT` rows of the same scoring of
    the split.

    A unit stopped at the coarse level counts correct iff its coarse
    label is right; a proceeding unit iff its species label is right.
    """
    # None: `score_split` resolves the hierarchical `forward` when it runs
    heads = flat_heads if loss_of(scheme) == "baseline" else None
    if len(eval_split.tracks) == 0:
        raise EmptyEvalSet("evaluation split has no tracks")
    if tau is not None:
        check_threshold(tau)
    rows = score_split(params, eval_split.tracks, taxonomy, heads=heads)
    if tau is None:
        tau = best_threshold(rows[TAU_UNIT])
    units = {u: _unit_report(u, r, tau, taxonomy) for u, r in rows.items()}
    return EvalReport(scheme=scheme, tau=tau, units=units)


def evaluate_flat(params: ModelParams, eval_split: D.Dataset,
                  taxonomy: Taxonomy) -> EvalReport:
    """The flat baseline's metric suite at its searched threshold."""
    return evaluate(params, eval_split, taxonomy, None, "baseline")


def _fmt(value) -> str:
    return "" if value is None else f"{value:.1f}"


TABLE_COLUMNS = ["model", "unit", "level1", "level2a", "level2b",
                 "level2c", "stopped", "proceeded"]


def table_rows(report: EvalReport) -> list[list[str]]:
    rows = []
    # the results table's own row order, not that of `inference.UNITS`:
    # the bytes of every table.csv and ablation_table.csv written so far pin it
    for unit in ("image", "video_vote", "video_avg"):
        u = report.units[unit]
        rows.append([report.scheme, unit, _fmt(u.level1_acc), _fmt(u.level2a_acc),
                     _fmt(u.level2b_acc), _fmt(u.level2c_acc), str(u.stopped),
                     str(u.proceeded)])
    return rows


def write_table_csv(reports: list[EvalReport], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TABLE_COLUMNS)
        for report in reports:
            writer.writerows(table_rows(report))


def report_to_dict(report: EvalReport) -> dict:
    """The report as `dataclasses.asdict` gives it, built without its
    recursive deep copy: each unit's fields in order, every per-class
    dict copied."""
    return {"scheme": report.scheme, "tau": report.tau,
            "units": {name: {key: dict(value) if type(value) is dict else value
                             for key, value in vars(unit).items()}
                      for name, unit in report.units.items()}}


# per-class CSV -> (its key column, the UnitReport field, that field's scale to percent)
PER_CLASS_CSVS = {
    "per_group_level1.csv": ("group", "per_group_precision_level1", 1.0),
    "per_species_level2a.csv": ("species", "per_species_precision_2a", 1.0),
    "per_species_level2b.csv": ("species", "per_species_precision_2b", 1.0),
    "per_species_stop_rate.csv": ("species", "per_species_stop_fraction", 100.0),
}


def write_report(report: EvalReport, out_dir: str) -> None:
    """report.json (full precision), table.csv (1 decimal place), and
    each per-class CSV of `PER_CLASS_CSVS`, one column per unit in the
    order of `report.units`."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report_to_dict(report), f, indent=2)
    write_table_csv([report], os.path.join(out_dir, "table.csv"))
    units = list(report.units.values())
    for name, (key, attr, scale) in PER_CLASS_CSVS.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([key] + [u.unit for u in units])
            for c in getattr(units[0], attr):
                values = [getattr(u, attr).get(c) for u in units]
                writer.writerow([c] + [_fmt(v if v is None else scale * v) for v in values])
