"""Command-line front end: generate -> split -> train -> search-threshold
-> evaluate -> report, plus an `ablation` command running every
configured scheme and emitting one combined results table.

Every command takes its settings from `resolve`: command-line flags
override config-file values override built-in defaults. All randomness
derives from one seed: `--seed`, else the config's `seed`, else 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as D
from . import evaluation as E
from . import inference as I
from . import model as M
from . import training as T
from .errors import ConfigError, HierfishError, MalformedDocument, read_json
from .taxonomy import Taxonomy, default_taxonomy, taxonomy_from_document

DEFAULT_SCHEMES = list(T.SCHEMES)
DEFAULT_SPLIT_RATIO = 0.8
CONFIG_KEYS = ("seed", "split_ratio", "schemes", "gen", "train")
# the JSON values a field of each type accepts; a bool is no number
JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _config_keys(doc) -> dict:
    """A parsed config document, an object of `CONFIG_KEYS` only; its
    values are checked in `resolve`, as flags may override them."""
    if not isinstance(doc, dict):
        raise ConfigError("must hold a JSON object")
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _load_config(path: str | None) -> dict:
    return {} if path is None else read_json(path, ConfigError, "config", _config_keys)


def _read_taxonomy(path: str | None) -> Taxonomy:
    if path is None:
        return default_taxonomy()
    return read_json(path, MalformedDocument, "taxonomy", taxonomy_from_document)


def _checked(key: str, value, type_name: str):
    if isinstance(value, bool) or not isinstance(value, JSON_TYPES[type_name]):
        raise ConfigError(f"config key {key!r} must be of type {type_name}, not {value!r}")
    return value


def _section(cfg: dict, name: str, cls, overrides: dict) -> dict:
    """The config's `name` object checked against the fields of `cls`
    (their taxonomy and seed are not config keys), with `overrides` on top."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    types = {f.name: getattr(f.type, "__name__", f.type) for f in dataclasses.fields(cls)
             if f.name not in ("taxonomy", "seed")}
    unknown = set(section) - set(types)
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    return {**{key: _checked(f"{name}.{key}", value, types[key])
               for key, value in section.items()}, **overrides}


@dataclasses.dataclass
class Settings:
    """What a command runs with, after flag > config > default precedence."""
    taxonomy: Taxonomy
    seed: int
    split_ratio: float
    schemes: list
    gen: D.GenConfig
    train: T.TrainConfig


def resolve(args) -> Settings:
    """The one settings path of every command."""
    cfg = _load_config(getattr(args, "config", None))
    flags = {key: value for key, value in vars(args).items() if value is not None}
    seed = flags.get("seed", _checked("seed", cfg.get("seed", 0), "int"))
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, not {seed}")
    ratio = flags.get("ratio", _checked("split_ratio",
                                        cfg.get("split_ratio", DEFAULT_SPLIT_RATIO), "float"))
    schemes = (flags["schemes"].split(",") if "schemes" in flags
               else cfg.get("schemes", DEFAULT_SCHEMES))
    if not isinstance(schemes, list):
        raise ConfigError(f"config key 'schemes' must be a list, not {schemes!r}")
    if not schemes:
        raise ConfigError("config key 'schemes' must list at least one scheme")
    for k, scheme in enumerate(schemes):
        if scheme not in T.SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}")
        if scheme in schemes[:k]:
            raise ConfigError(f"scheme {scheme!r} is listed twice")
    taxonomy = _read_taxonomy(args.taxonomy)
    gen = _section(cfg, "gen", D.GenConfig, {})
    train = _section(cfg, "train", T.TrainConfig,
                     {key: flags[key] for key in ("scheme", "epochs") if key in flags})
    return Settings(taxonomy, seed, ratio, schemes, D.GenConfig(taxonomy, seed=seed, **gen),
                    T.TrainConfig(seed=seed, **train))


# one body per stage, shared by the single-stage commands and `run_scheme`

def _write_model(params, history, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    M.save_checkpoint(params, os.path.join(out_dir, "model.json"))
    with open(os.path.join(out_dir, "loss.csv"), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "mean_loss"])
        writer.writerows([epoch, repr(loss)] for epoch, loss in enumerate(history))


def _write_threshold(tau: float, out_dir: str) -> float:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "threshold.json"), "w", encoding="utf-8") as f:
        json.dump({"tau": tau}, f)
    return tau


def cmd_gen(args) -> int:
    s = resolve(args)
    dataset = D.generate(s.gen)
    os.makedirs(args.out, exist_ok=True)
    D.save_jsonl(dataset, os.path.join(args.out, "dataset.jsonl"))
    with open(os.path.join(args.out, "taxonomy.json"), "w", encoding="utf-8") as f:
        f.write(s.taxonomy.to_json() + "\n")
    print(f"wrote {len(dataset)} tracks / {dataset.n_frames} frames to {args.out}")
    return 0


def cmd_split(args) -> int:
    s = resolve(args)
    # `copy_lines` reads --data again, which a pipe cannot give
    if os.path.exists(args.data) and not os.path.isfile(args.data):
        raise ConfigError(f"--data {args.data} is not a regular file, and split reads it twice")
    lines = {}   # track id -> where its frames' lines lie in the file
    dataset = D.load_jsonl(args.data, lines)
    D.check_labels(dataset, s.taxonomy)
    train, evaln = D.split_by_track(dataset, s.split_ratio, s.seed)
    os.makedirs(args.out, exist_ok=True)
    # each side's lines copied from the file, not printed again
    D.copy_lines(args.data, lines, {os.path.join(args.out, "train.jsonl"): train,
                                    os.path.join(args.out, "eval.jsonl"): evaln})
    print(f"split: {len(train)} train / {len(evaln)} eval tracks")
    return 0


def cmd_train(args) -> int:
    s = resolve(args)
    dataset = D.load_jsonl(args.data)
    params, history = T.train(s.train, dataset, s.taxonomy)   # checks the labels
    _write_model(params, history, args.out)
    final = f"{history[-1]:.4f}" if history else "n/a"
    print(f"trained {s.train.scheme} for {s.train.epochs} epochs, final loss {final}")
    return 0


def cmd_search_threshold(args) -> int:
    taxonomy = resolve(args).taxonomy
    params = M.load_checkpoint(args.model, taxonomy)
    dataset = D.load_jsonl(args.data)
    tau = _write_threshold(I.search_threshold(params, dataset.tracks, taxonomy), args.out)
    print(f"tau = {tau!r}")
    return 0


def cmd_eval(args) -> int:
    s = resolve(args)
    params = M.load_checkpoint(args.model, s.taxonomy)
    report = E.evaluate(params, D.load_jsonl(args.data), s.taxonomy, args.threshold,
                        s.train.scheme)
    E.write_report(report, args.out)
    for row in E.table_rows(report):
        print(",".join(row))
    return 0


def cmd_infer(args) -> int:
    taxonomy = resolve(args).taxonomy
    tau, unit = I.check_threshold(args.threshold), args.unit
    params = M.load_checkpoint(args.model, taxonomy)
    dataset = D.load_jsonl(args.data)
    rows = I.score_split(params, dataset.tracks, taxonomy, (unit,))[unit]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "predictions.jsonl")
    stopped = rows.stopped(tau)
    labels = np.where(stopped, rows.coarse, rows.fine).tolist()
    confidences = np.where(stopped, rows.coarse_conf, rows.conf).tolist()
    with open(out_path, "w", encoding="utf-8") as f:
        for track, stop, label, conf in zip(dataset.tracks, stopped, labels, confidences):
            f.write(json.dumps({
                "track_id": track.track_id,
                "unit": unit,
                "level": "coarse" if stop else "fine",
                "label": taxonomy.groups[label] if stop else taxonomy.species_name(label),
                "label_index": label,
                "confidence": conf,
            }, ensure_ascii=False) + "\n")
    print(f"wrote predictions for {len(dataset)} tracks to {out_path}")
    return 0


def run_scheme(scheme: str, params, history, eval_split: D.Dataset, taxonomy: Taxonomy,
               out_dir: str, report: E.EvalReport | None = None) -> E.EvalReport:
    """Write one trained scheme's artifacts, search its threshold, evaluate.
    `report`, another scheme's evaluation of the same trained model, is
    taken under this scheme's name instead of scoring the split again."""
    _write_model(params, history, out_dir)
    report = (E.evaluate(params, eval_split, taxonomy, None, scheme) if report is None
              else dataclasses.replace(report, scheme=scheme))
    E.write_report(report, out_dir)
    _write_threshold(report.tau, out_dir)
    return report


def cmd_ablation(args) -> int:
    s = resolve(args)
    dataset = D.generate(s.gen)
    train_split, eval_split = D.split_by_track(dataset, s.split_ratio, s.seed)
    # every distinct loss trains in one lockstep loop, before any file is written
    trained = T.train(s.train, train_split, s.taxonomy, s.schemes)
    os.makedirs(args.out, exist_ok=True)
    # a scheme whose loss an earlier one already trained takes that run's
    # report: the model, threshold and scores are the same
    reports, by_loss = [], {}
    for scheme in s.schemes:
        loss = T.LOSSES[scheme]
        by_loss[loss] = run_scheme(scheme, *trained[scheme], eval_split, s.taxonomy,
                                   os.path.join(args.out, scheme), by_loss.get(loss))
        reports.append(by_loss[loss])
    E.write_table_csv(reports, os.path.join(args.out, "ablation_table.csv"))
    for report in reports:
        for row in E.table_rows(report):
            print(",".join(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierfish",
        description="Hierarchical coarse/fine species classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, data=False, model=False, threshold=False):
        if not model:   # a command reading a checkpoint draws no random numbers
            p.add_argument("--config", default=None, help="JSON config file")
            p.add_argument("--seed", type=int, default=None,
                           help="default: the config's seed, else 0")
        p.add_argument("--taxonomy", default=None,
                       help="taxonomy JSON (default: built-in 6/31 taxonomy)")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True, help="frames JSONL")
        if model:
            p.add_argument("--model", required=True, help="model checkpoint JSON")
        if threshold:
            p.add_argument("--threshold", type=float, default=0.0)

    common(sub.add_parser("gen", help="generate a synthetic dataset"))

    p = sub.add_parser("split", help="track-level train/eval split")
    common(p, data=True)
    p.add_argument("--ratio", type=float, default=None)

    p = sub.add_parser("train", help="train one scheme")
    common(p, data=True)
    p.add_argument("--scheme", choices=T.SCHEMES, default=None)
    p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("search-threshold", help="greedy threshold search")
    common(p, data=True, model=True)

    p = sub.add_parser("eval", help="compute the full metric suite")
    common(p, data=True, model=True, threshold=True)
    p.add_argument("--scheme", choices=T.SCHEMES, default=None)

    p = sub.add_parser("infer", help="per-track predictions JSONL")
    common(p, data=True, model=True, threshold=True)
    # any track unit; by default the one `search-threshold` searches tau on
    p.add_argument("--unit", choices=[u for u, unit in I.UNITS.items() if not unit.frames],
                   default=I.TAU_UNIT)

    p = sub.add_parser("ablation", help="run all schemes end to end")
    common(p)
    p.add_argument("--schemes", default=None,
                   help="comma-separated subset of schemes")
    p.add_argument("--epochs", type=int, default=None)

    return parser


COMMANDS = {
    "gen": cmd_gen,
    "split": cmd_split,
    "train": cmd_train,
    "search-threshold": cmd_search_threshold,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "ablation": cmd_ablation,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (HierfishError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
