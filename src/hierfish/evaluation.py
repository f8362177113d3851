"""Metric suite over an evaluation split: coarse accuracy (Level-1),
within-group fine accuracy (Level-2 A), joint-score accuracy (Level-2 B),
and thresholded fallback accuracy (Level-2 C) with stop/proceed counts,
for the image unit and both video units, plus per-class precision and
per-species coarse-stop rates.

Accuracies are micro accuracy over units, reported as percentages.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .errors import EmptyEvalSet, InvalidThreshold, TaxonomyMismatch
from .inference import (
    aggregate_avg,
    aggregate_vote,
    score_track,
    select_image,
)
from .model import ModelParams, forward_flat
from .taxonomy import Taxonomy


@dataclass
class UnitReport:
    unit: str
    n_units: int
    level1_acc: float | None
    level2a_acc: float | None
    level2b_acc: float
    level2c_acc: float | None
    stopped: int | None
    proceeded: int | None
    tau: float | None
    # per-class precision; None where a class was never predicted
    per_group_precision_level1: dict[str, float | None] = field(default_factory=dict)
    per_species_precision_2a: dict[str, float | None] = field(default_factory=dict)
    per_species_precision_2b: dict[str, float | None] = field(default_factory=dict)
    # fraction of units with this ground-truth species that stopped coarse
    per_species_stop_fraction: dict[str, float | None] = field(default_factory=dict)


@dataclass
class EvalReport:
    scheme: str
    tau: float | None
    units: dict[str, UnitReport]


def _precision(pred: np.ndarray, truth: np.ndarray, names) -> dict:
    out = {}
    for idx, name in enumerate(names):
        mask = pred == idx
        out[name] = float(100.0 * np.mean(truth[mask] == idx)) if mask.any() else None
    return out


@dataclass
class _UnitRecords:
    """Per-unit raw decisions, one row per evaluation unit."""
    y1: list = field(default_factory=list)
    y2: list = field(default_factory=list)
    coarse_sel: list = field(default_factory=list)
    sel_2a: list = field(default_factory=list)
    sel_2b: list = field(default_factory=list)
    conf_2b: list = field(default_factory=list)

    def add(self, y1, y2, coarse_sel, sel_2a, sel_2b, conf_2b):
        self.y1.append(y1)
        self.y2.append(y2)
        self.coarse_sel.append(coarse_sel)
        self.sel_2a.append(sel_2a)
        self.sel_2b.append(sel_2b)
        self.conf_2b.append(conf_2b)

    def report(self, unit: str, tau: float, taxonomy: Taxonomy) -> UnitReport:
        y1 = np.asarray(self.y1)
        y2 = np.asarray(self.y2)
        coarse_sel = np.asarray(self.coarse_sel)
        sel_2a = np.asarray(self.sel_2a)
        sel_2b = np.asarray(self.sel_2b)
        conf_2b = np.asarray(self.conf_2b)
        n = y1.shape[0]
        stopped_mask = conf_2b < tau
        correct_2c = np.where(stopped_mask, coarse_sel == y1, sel_2b == y2)
        stop_frac = {}
        for s, name in enumerate(taxonomy.species_names):
            mask = y2 == s
            stop_frac[name] = float(np.mean(stopped_mask[mask])) if mask.any() else None
        return UnitReport(
            unit=unit,
            n_units=n,
            level1_acc=float(100.0 * np.mean(coarse_sel == y1)),
            level2a_acc=float(100.0 * np.mean(sel_2a == y2)),
            level2b_acc=float(100.0 * np.mean(sel_2b == y2)),
            level2c_acc=float(100.0 * np.mean(correct_2c)),
            stopped=int(stopped_mask.sum()),
            proceeded=int(n - stopped_mask.sum()),
            tau=tau,
            per_group_precision_level1=_precision(coarse_sel, y1, taxonomy.groups),
            per_species_precision_2a=_precision(sel_2a, y2, taxonomy.species_names),
            per_species_precision_2b=_precision(sel_2b, y2, taxonomy.species_names),
            per_species_stop_fraction=stop_frac,
        )


def evaluate(params: ModelParams, eval_split: Dataset, taxonomy: Taxonomy,
             tau: float, scheme: str = "scheme3") -> EvalReport:
    """Full hierarchical metric suite over image and both video units.

    A unit stopped at the coarse level counts correct iff its coarse
    label is right; a proceeding unit iff its species label is right.
    """
    if len(eval_split.tracks) == 0:
        raise EmptyEvalSet("evaluation split has no tracks")
    if not np.isfinite(tau) or tau < 0.0:
        raise InvalidThreshold(f"threshold {tau}")
    records = {u: _UnitRecords() for u in ("image", "video_avg", "video_vote")}
    for track in eval_split.tracks:
        try:
            y1 = taxonomy.group_index(track.group)
            y2 = taxonomy.species_index(track.species)
        except Exception as e:
            raise TaxonomyMismatch(str(e)) from e
        ts = score_track(params, track)
        for out in ts.frames:
            sel = select_image(out, taxonomy)
            records["image"].add(y1, y2, sel.coarse_group, sel.level2a,
                                 sel.level2b, sel.level2b_confidence)
        avg = aggregate_avg(ts, taxonomy)
        records["video_avg"].add(y1, y2, avg.coarse_selection, avg.level2a,
                                 avg.selection, avg.confidence)
        vote = aggregate_vote(ts, taxonomy)
        records["video_vote"].add(y1, y2, vote.coarse_selection, vote.level2a,
                                  vote.selection, vote.confidence)
    units = {u: rec.report(u, tau, taxonomy) for u, rec in records.items()}
    return EvalReport(scheme=scheme, tau=tau, units=units)


def evaluate_flat(params: ModelParams, eval_split: Dataset,
                  taxonomy: Taxonomy) -> EvalReport:
    """Flat-classifier baseline: image-unit species accuracy only."""
    if len(eval_split.tracks) == 0:
        raise EmptyEvalSet("evaluation split has no tracks")
    preds = []
    truth = []
    for track in eval_split.tracks:
        y2 = taxonomy.species_index(track.species)
        for fr in track.frames:
            probs = forward_flat(params, fr.model_input())
            preds.append(int(np.argmax(probs)))
            truth.append(y2)
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    unit = UnitReport(
        unit="image",
        n_units=len(preds),
        level1_acc=None,
        level2a_acc=None,
        level2b_acc=float(100.0 * np.mean(preds == truth)),
        level2c_acc=None,
        stopped=None,
        proceeded=None,
        tau=None,
        per_species_precision_2b=_precision(preds, truth, taxonomy.species_names),
    )
    return EvalReport(scheme="baseline", tau=None, units={"image": unit})


def _fmt(value, decimals=1) -> str:
    return "" if value is None else f"{value:.{decimals}f}"


TABLE_COLUMNS = ["model", "unit", "level1", "level2a", "level2b",
                 "level2c", "stopped", "proceeded"]


def table_rows(report: EvalReport) -> list[list[str]]:
    rows = []
    for unit in ("image", "video_vote", "video_avg"):
        if unit not in report.units:
            continue
        u = report.units[unit]
        rows.append([
            report.scheme, unit,
            _fmt(u.level1_acc), _fmt(u.level2a_acc), _fmt(u.level2b_acc),
            _fmt(u.level2c_acc),
            "" if u.stopped is None else str(u.stopped),
            "" if u.proceeded is None else str(u.proceeded),
        ])
    return rows


def write_table_csv(reports: list[EvalReport], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TABLE_COLUMNS)
        for report in reports:
            writer.writerows(table_rows(report))


def report_to_dict(report: EvalReport) -> dict:
    return asdict(report)


def report_from_dict(doc: dict) -> EvalReport:
    units = {u: UnitReport(**ur) for u, ur in doc["units"].items()}
    return EvalReport(scheme=doc["scheme"], tau=doc["tau"], units=units)


def _write_per_class_csv(path, key_header, keys, reports_units, attr):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([key_header] + [u.unit for u in reports_units])
        for key in keys:
            row = [key]
            for u in reports_units:
                value = getattr(u, attr).get(key)
                if attr == "per_species_stop_fraction" and value is not None:
                    value = 100.0 * value
                row.append(_fmt(value))
            writer.writerow(row)


def write_report(report: EvalReport, out_dir: str) -> None:
    """report.json (full precision), table.csv (1 decimal place), and
    per-class CSVs for each available metric."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report_to_dict(report), f, indent=2)
    write_table_csv([report], os.path.join(out_dir, "table.csv"))
    units = [report.units[u] for u in ("image", "video_avg", "video_vote")
             if u in report.units]
    if not units:
        return
    groups = list(units[0].per_group_precision_level1.keys())
    species = list(units[0].per_species_precision_2b.keys())
    if groups:
        _write_per_class_csv(os.path.join(out_dir, "per_group_level1.csv"),
                             "group", groups, units, "per_group_precision_level1")
    if units[0].per_species_precision_2a:
        _write_per_class_csv(os.path.join(out_dir, "per_species_level2a.csv"),
                             "species", species, units, "per_species_precision_2a")
    if species:
        _write_per_class_csv(os.path.join(out_dir, "per_species_level2b.csv"),
                             "species", species, units, "per_species_precision_2b")
    if units[0].per_species_stop_fraction:
        _write_per_class_csv(os.path.join(out_dir, "per_species_stop_rate.csv"),
                             "species", species, units, "per_species_stop_fraction")
