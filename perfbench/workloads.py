"""The three benchmark workloads and the output checks they share.

Each workload builds its inputs from the seed in `setup` and then runs
passes. A pass returns its main-work wall time, the held-out inference
figures, per-track latencies, the scheme3 report and digests of the
artifacts it wrote; the run compares those digests across passes. The
warm-up pass runs the same stages on a smaller input; only ablation's
(scheme3 alone) yields artifacts the timed passes must match.

- ablation: `hierfish ablation` at defaults; training is nearly all the
  work. A probe afterwards reads the scheme3 checkpoint and the
  held-out tracks back from files and runs the infer rule on them.
- video_backlog: a 24 x 5 taxonomy and a scheme3 model trained in
  setup; each pass is search_threshold -> evaluate -> infer over about
  600 held-out tracks, so per-frame scoring at a wide G dominates.
- cli_files: the README's file chain through `cli.main`; JSONL writes
  and reads, checkpoint and report I/O share the time with scoring.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from hierfish import cli
from hierfish import data as D
from hierfish import evaluation as E
from hierfish import inference as I
from hierfish import model as M
from hierfish.taxonomy import Taxonomy, default_taxonomy

JOINT_SUM_TOL = 1e-12
JOINT_SAMPLE = 32            # frames whose joint vector is checked per pass
WARMUP_TRACKS = 60           # video_backlog warm-up: a prefix of the backlog


class Checks:
    """Output checks; every failure is printed and counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", flush=True)


@dataclass
class PassResult:
    wall: float                      # seconds of the workload's main work
    eval_seconds: float              # one search -> evaluate -> infer sequence
    eval_frames: int                 # held-out frames that sequence covers
    latencies: list[float]           # seconds per track of the infer rule
    report: dict                     # scheme3 EvalReport as a dict
    artifacts: dict[str, str] = field(default_factory=dict)   # name -> sha256


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def file_digests(root: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(root, name), "rb") as f:
            out[name] = digest(f.read())
    return out


def wide_taxonomy(groups: int, species: int) -> Taxonomy:
    return Taxonomy(
        groups=tuple(f"Group{g:02d}" for g in range(groups)),
        species_by_group=tuple(tuple(f"Group{g:02d} species{i}" for i in range(species))
                               for g in range(groups)),
    )


def prediction_line(track_id: str, pred: I.Prediction, taxonomy: Taxonomy) -> str:
    """One `predictions.jsonl` line, formatted as `hierfish infer` writes it."""
    name = (taxonomy.groups[pred.label] if pred.level == "coarse"
            else taxonomy.species_name(pred.label))
    return json.dumps({
        "track_id": track_id,
        "unit": pred.unit,
        "level": pred.level,
        "label": name,
        "label_index": pred.label,
        "confidence": pred.confidence,
    }, ensure_ascii=False) + "\n"


def infer_rule(params, tracks, taxonomy: Taxonomy, tau: float):
    """The `infer` rule for both video units, timed per track.

    Returns (video_avg lines, video_vote lines, seconds per track).
    """
    avg_lines, vote_lines, latencies = [], [], []
    for track in tracks:
        t0 = perf_counter()
        ts = I.score_track(params, track)
        avg = I.aggregate_avg(ts, taxonomy)
        p_avg = I.decide(avg.confidence, avg.p1, avg.selection, tau, "video_avg")
        vote = I.aggregate_vote(ts, taxonomy)
        coarse = np.zeros(taxonomy.G)
        coarse[vote.coarse_selection] = vote.coarse_confidence
        p_vote = I.decide(vote.confidence, coarse, vote.selection, tau, "video_vote")
        latencies.append(perf_counter() - t0)
        avg_lines.append(prediction_line(track.track_id, p_avg, taxonomy))
        vote_lines.append(prediction_line(track.track_id, p_vote, taxonomy))
    return avg_lines, vote_lines, latencies


def latency_sweeps(params, tracks, taxonomy, tau, min_samples: int) -> list[float]:
    """Infer-rule sweeps over `tracks` until `min_samples` latencies (none if <= 0)."""
    latencies: list[float] = []
    for _ in range(math.ceil(min_samples / len(tracks))):
        latencies += infer_rule(params, tracks, taxonomy, tau)[2]
    return latencies


def heldout_sequence(params, split: D.Dataset, taxonomy: Taxonomy, out_dir: str):
    """search_threshold -> evaluate -> write_report -> infer rule.

    Returns (seconds, tau, report, avg lines, vote lines, latencies).
    """
    t0 = perf_counter()
    tau = I.search_threshold(params, split.tracks, taxonomy)
    report = E.evaluate(params, split, taxonomy, tau, scheme="scheme3")
    E.write_report(report, out_dir)
    avg_lines, vote_lines, latencies = infer_rule(params, split.tracks, taxonomy, tau)
    return perf_counter() - t0, tau, report, avg_lines, vote_lines, latencies


def check_report(checks: Checks, report: dict, label: str) -> None:
    """Level-2C never falls below Level-2B on the split tau was searched on."""
    va = report["units"]["video_avg"]
    checks.expect(va["level2c_acc"] >= va["level2b_acc"],
                  f"{label}: video_avg level2c {va['level2c_acc']} < level2b {va['level2b_acc']}")


def check_joint_sums(checks: Checks, params, split: D.Dataset) -> None:
    frames = [fr for t in split.tracks for fr in t.frames]
    step = max(1, len(frames) // JOINT_SAMPLE)
    for fr in frames[::step][:JOINT_SAMPLE]:
        total = float(M.forward(params, fr.model_input()).joint.sum())
        checks.expect(abs(total - 1.0) <= JOINT_SUM_TOL,
                      f"joint vector of {fr.track_id}/{fr.frame_index} sums to {total!r}")


def run_cli(checks: Checks, args: list) -> float:
    """One `cli.main` call; returns its wall time and checks its exit code."""
    argv = [str(a) for a in args]
    t0 = perf_counter()
    rc = cli.main(argv)
    seconds = perf_counter() - t0
    checks.expect(rc == 0, f"hierfish {argv[0]} exited {rc}")
    return seconds


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, work: str, checks: Checks, set_phase):
        self.seed = seed
        self.tiny = tiny
        self.work = work                  # inputs built by setup
        self.checks = checks
        self.set_phase = set_phase        # labels the spans of the probe
        os.makedirs(work, exist_ok=True)

    min_passes = 2      # timed passes, so their artifacts can be compared

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, out: str, warmup: bool = False, samples: int = 0) -> PassResult:
        """One pass; `samples` asks for at least that many track latencies."""
        raise NotImplementedError


class Ablation(Workload):
    name = "ablation"
    min_passes = 1      # one pass is most of a run's time budget

    def setup(self):
        self.taxonomy = default_taxonomy()
        gen = ({"tracks_total": 70, "frames_min": 2, "frames_max": 4}
               if self.tiny else {})
        self.config_args = []
        if self.tiny:
            config = os.path.join(self.work, "config.json")
            write_json(config, {"gen": gen, "train": {"epochs": 2}})
            self.config_args = ["--config", config]
        # the same held-out split the ablation builds internally
        dataset = D.generate(D.GenConfig(taxonomy=self.taxonomy, seed=self.seed, **gen))
        _, heldout = D.split_by_track(dataset, cli.DEFAULT_SPLIT_RATIO, self.seed)
        self.heldout = os.path.join(self.work, "heldout.jsonl")
        D.save_jsonl(heldout, self.heldout)

    def run_pass(self, out, warmup=False, samples=0):
        checks = self.checks
        args = ["ablation", *self.config_args, "--seed", self.seed, "--out", out]
        schemes = list(cli.DEFAULT_SCHEMES)
        if warmup:
            # scheme3 alone warms every stage at a quarter of the cost, and
            # its artifacts must match the timed pass's
            schemes = ["scheme3"]
            args += ["--schemes", "scheme3"]
        wall = run_cli(checks, args)

        self.set_phase("probe")
        s3 = os.path.join(out, "scheme3")
        params = M.load_checkpoint(os.path.join(s3, "model.json"), self.taxonomy)
        heldout = D.load_jsonl(self.heldout)
        D.check_labels(heldout, self.taxonomy)
        probe = os.path.join(out, "probe")
        # the held-out split is small, so the sequence repeats until it has
        # given enough latency samples, over a window of several seconds
        runs = [heldout_sequence(params, heldout, self.taxonomy, probe)]
        while len(runs) * len(heldout.tracks) < samples:
            runs.append(heldout_sequence(params, heldout, self.taxonomy, probe))
        _, tau, report, avg_lines, vote_lines, _ = runs[0]
        seconds = statistics.median(r[0] for r in runs)
        latencies = [x for r in runs for x in r[5]]
        for r in runs[1:]:
            checks.expect(r[1] == tau and r[3] == avg_lines and r[4] == vote_lines,
                          "a repeated held-out sequence gave other predictions")
        check_joint_sums(checks, params, heldout)

        names = [f"{s}/{f}" for s in schemes for f in ("model.json", "report.json")]
        names += [f"{s}/threshold.json" for s in schemes if s != "baseline"]
        if not warmup:
            names.append("ablation_table.csv")
        artifacts = file_digests(out, names)
        with open(os.path.join(out, "ablation_table.csv"), "r", encoding="utf-8") as f:
            rows = [line for line in f if line.startswith("scheme3,")]
        artifacts["ablation_table.csv:scheme3"] = digest("".join(rows).encode())
        artifacts["probe/predictions"] = digest("".join(avg_lines + vote_lines).encode())
        for s in schemes:
            if s != "baseline":
                check_report(checks, read_json(os.path.join(out, s, "report.json")), s)
        with open(os.path.join(s3, "report.json"), "rb") as a, \
                open(os.path.join(probe, "report.json"), "rb") as b:
            checks.expect(a.read() == b.read(),
                          "scheme3 report differs from the one rebuilt from its checkpoint")
        checks.expect(read_json(os.path.join(s3, "threshold.json"))["tau"] == tau,
                      "scheme3 tau differs from the one searched on its checkpoint")
        return PassResult(wall=wall, eval_seconds=seconds, eval_frames=heldout.n_frames,
                          latencies=latencies, report=E.report_to_dict(report),
                          artifacts=artifacts)


class VideoBacklog(Workload):
    name = "video_backlog"

    def setup(self):
        groups, species = (4, 3) if self.tiny else (24, 5)
        self.taxonomy = wide_taxonomy(groups, species)
        gen = (dict(tracks_total=40, frames_min=2, frames_max=4) if self.tiny
               else dict(tracks_total=1200, frames_min=4, frames_max=12))
        tax_path = os.path.join(self.work, "taxonomy.json")
        with open(tax_path, "w", encoding="utf-8") as f:
            f.write(self.taxonomy.to_json() + "\n")
        dataset = D.generate(D.GenConfig(taxonomy=self.taxonomy, seed=self.seed, **gen))
        train, backlog = D.split_by_track(dataset, 0.5, self.seed)
        train_path = os.path.join(self.work, "train.jsonl")
        backlog_path = os.path.join(self.work, "backlog.jsonl")
        D.save_jsonl(train, train_path)
        D.save_jsonl(backlog, backlog_path)
        model_dir = os.path.join(self.work, "model")
        run_cli(self.checks, ["train", "--taxonomy", tax_path, "--data", train_path,
                              "--scheme", "scheme3", "--epochs", 1 if self.tiny else 3,
                              "--seed", self.seed, "--out", model_dir])
        self.params = M.load_checkpoint(os.path.join(model_dir, "model.json"), self.taxonomy)
        self.backlog = D.load_jsonl(backlog_path)
        D.check_labels(self.backlog, self.taxonomy)

    def run_pass(self, out, warmup=False, samples=0):
        backlog = self.backlog
        if warmup:
            backlog = D.Dataset(tracks=backlog.tracks[:WARMUP_TRACKS], mode=backlog.mode)
        seconds, tau, report, avg_lines, vote_lines, latencies = heldout_sequence(
            self.params, backlog, self.taxonomy, out)
        self.set_phase("probe")
        latencies += latency_sweeps(self.params, backlog.tracks, self.taxonomy, tau,
                                    samples - len(latencies))
        checks = self.checks
        report = E.report_to_dict(report)
        check_report(checks, report, "backlog")
        checks.expect(report["units"]["image"]["n_units"] == backlog.n_frames,
                      "image unit count differs from the backlog's frame count")
        check_joint_sums(checks, self.params, backlog)
        artifacts = {}
        if not warmup:   # a smaller input, so nothing to compare
            artifacts = file_digests(out, ["report.json"])
            artifacts["predictions"] = digest("".join(avg_lines + vote_lines).encode())
        return PassResult(wall=seconds, eval_seconds=seconds,
                          eval_frames=backlog.n_frames, latencies=latencies,
                          report=report, artifacts=artifacts)


class CliFiles(Workload):
    name = "cli_files"

    def setup(self):
        self.taxonomy = default_taxonomy()
        self.tax_path = os.path.join(self.work, "taxonomy.json")
        with open(self.tax_path, "w", encoding="utf-8") as f:
            f.write(self.taxonomy.to_json() + "\n")
        gen = ({"tracks_total": 70, "frames_min": 2, "frames_max": 4}
               if self.tiny else {"tracks_total": 1200})
        self.config = os.path.join(self.work, "config.json")
        write_json(self.config, {"gen": gen})
        self.warmup_config = os.path.join(self.work, "warmup.json")
        write_json(self.warmup_config, {"gen": {**gen, "tracks_total": 70}})

    def run_pass(self, out, warmup=False, samples=0):
        checks, tax, seed = self.checks, self.tax_path, self.seed
        config = self.warmup_config if warmup else self.config
        data_dir, splits, s3 = (os.path.join(out, d) for d in ("data", "splits", "s3"))
        eval_path = os.path.join(splits, "eval.jsonl")
        model_path = os.path.join(s3, "model.json")
        t0 = perf_counter()
        run_cli(checks, ["gen", "--config", config, "--taxonomy", tax,
                         "--seed", seed, "--out", data_dir])
        run_cli(checks, ["split", "--taxonomy", tax, "--seed", seed,
                         "--data", os.path.join(data_dir, "dataset.jsonl"), "--out", splits])
        run_cli(checks, ["train", "--taxonomy", tax, "--seed", seed, "--scheme", "scheme3",
                         "--epochs", 1, "--data", os.path.join(splits, "train.jsonl"),
                         "--out", s3])
        eval_seconds = run_cli(checks, ["search-threshold", "--taxonomy", tax,
                                        "--model", model_path, "--data", eval_path,
                                        "--out", s3])
        tau = read_json(os.path.join(s3, "threshold.json"))["tau"]
        common = ["--taxonomy", tax, "--model", model_path, "--data", eval_path,
                  "--threshold", repr(tau)]
        eval_seconds += run_cli(checks, ["eval", *common, "--scheme", "scheme3",
                                         "--out", os.path.join(s3, "report")])
        eval_seconds += run_cli(checks, ["infer", *common, "--unit", "video_avg",
                                         "--out", os.path.join(s3, "infer")])
        wall = perf_counter() - t0

        self.set_phase("probe")
        params = M.load_checkpoint(model_path, self.taxonomy)
        heldout = D.load_jsonl(eval_path)
        D.check_labels(heldout, self.taxonomy)
        avg_lines, vote_lines, latencies = infer_rule(params, heldout.tracks, self.taxonomy, tau)
        latencies += latency_sweeps(params, heldout.tracks, self.taxonomy, tau,
                                    samples - len(latencies))
        check_joint_sums(checks, params, heldout)
        predictions = os.path.join(s3, "infer", "predictions.jsonl")
        with open(predictions, "r", encoding="utf-8") as f:
            checks.expect(f.read() == "".join(avg_lines),
                          "hierfish infer output differs from the library's infer rule")
        report = read_json(os.path.join(s3, "report", "report.json"))
        check_report(checks, report, "eval")
        artifacts = {}
        if not warmup:   # a smaller input, so nothing to compare
            artifacts = file_digests(out, ["s3/model.json", "s3/threshold.json",
                                           "s3/report/report.json",
                                           "s3/infer/predictions.jsonl"])
            artifacts["probe/video_vote"] = digest("".join(vote_lines).encode())
        return PassResult(wall=wall, eval_seconds=eval_seconds,
                          eval_frames=heldout.n_frames, latencies=latencies,
                          report=report, artifacts=artifacts)


WORKLOADS = {w.name: w for w in (Ablation, VideoBacklog, CliFiles)}
