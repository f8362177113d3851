"""Spans and counts recorded around hierfish's public functions.

The tracer replaces a function at every module attribute its callers
resolve, so by-name imports are covered too: `evaluation.score_track`
and `inference.score_track` are wrapped separately and record under
one name. Stage functions get spans (name, layer, start, end, parent,
phase); per-frame and per-example functions get counts only. Spans
stay in memory until the run writes them out.

Everything runs on one thread, so no layer waits on another and the
spans of one phase never overlap except by nesting.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import Counter
from time import perf_counter

from hierfish import cli, data, evaluation, inference, model, taxonomy, training

LAYERS = ("taxonomy", "data", "model", "training", "inference", "evaluation", "cli")


def _save_jsonl(tracer, args):
    tracer.counts["data.jsonl_bytes_written"] += os.path.getsize(args[1])


def _load_jsonl(tracer, args):
    tracer.counts["data.jsonl_bytes_read"] += os.path.getsize(args[0])


def _train(tracer, args):
    config, train_split = args[0], args[1]
    n = train_split.n_frames
    tracer.counts["training.steps"] += config.epochs * math.ceil(n / config.batch_size)


def _score_track(tracer, args):
    track = args[1]
    tracer.counts["inference.frames_scored"] += len(track.frames)
    tracer.distinct_frames[track.track_id] = len(track.frames)


class Tracer:
    """Installs wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []      # [name, layer, start, end, parent, phase]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.distinct_frames: dict[str, int] = {}   # track id -> frames
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, layer, fn, after=None):
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, perf_counter(), None,
                          stack[-1] if stack else None, self.phase])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args)
            return result

        return wrapper

    def _count(self, name, layer, fn):
        counts, errors = self.counts, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise

        return wrapper

    def _targets(self):
        """(owner, attribute, wrapper) for every place a caller resolves."""
        span, count = self._span, self._count
        score = span("inference.score_track", "inference", inference.score_track,
                     _score_track)
        agg_avg = span("inference.aggregate", "inference", inference.aggregate_avg)
        agg_vote = span("inference.aggregate", "inference", inference.aggregate_vote)
        forward = count("model.forward_calls", "model", model.forward)
        forward_flat = count("model.forward_flat_calls", "model", model.forward_flat)
        targets = [
            (data, "generate", span("data.generate", "data", data.generate)),
            (data, "split_by_track", span("data.split_by_track", "data", data.split_by_track)),
            (data, "save_jsonl", span("data.save_jsonl", "data", data.save_jsonl, _save_jsonl)),
            (data, "load_jsonl", span("data.load_jsonl", "data", data.load_jsonl, _load_jsonl)),
            (data, "check_labels", span("data.check_labels", "data", data.check_labels)),
            (model, "forward", forward),
            (inference, "forward", forward),
            (model, "forward_flat", forward_flat),
            (evaluation, "forward_flat", forward_flat),
            (model, "save_checkpoint",
             span("model.checkpoint_save", "model", model.save_checkpoint)),
            (model, "load_checkpoint",
             span("model.checkpoint_load", "model", model.load_checkpoint)),
            (training, "train", span("training.train", "training", training.train, _train)),
            (training, "check_example",
             count("training.check_example_calls", "training", training.check_example)),
            (inference, "score_track", score),
            (evaluation, "score_track", score),
            (inference, "aggregate_avg", agg_avg),
            (evaluation, "aggregate_avg", agg_avg),
            (inference, "aggregate_vote", agg_vote),
            (evaluation, "aggregate_vote", agg_vote),
            (inference, "search_threshold",
             span("inference.search_threshold", "inference", inference.search_threshold)),
            (evaluation, "evaluate", span("evaluation.evaluate", "evaluation", evaluation.evaluate)),
            (evaluation, "evaluate_flat",
             span("evaluation.evaluate_flat", "evaluation", evaluation.evaluate_flat)),
            (evaluation, "write_report",
             span("evaluation.write_report", "evaluation", evaluation.write_report)),
            (evaluation, "write_table_csv",
             span("evaluation.write_table_csv", "evaluation", evaluation.write_table_csv)),
            (taxonomy.Taxonomy, "species_index",
             count("taxonomy.species_index_calls", "taxonomy", taxonomy.Taxonomy.species_index)),
            (taxonomy.Taxonomy, "to_local",
             count("taxonomy.to_local_calls", "taxonomy", taxonomy.Taxonomy.to_local)),
            (cli, "run_scheme", span("cli.run_scheme", "cli", cli.run_scheme)),
        ]
        # cli.main dispatches through the COMMANDS table, not module attributes
        for command, fn in cli.COMMANDS.items():
            targets.append((cli.COMMANDS, command, span(f"cli.{command}", "cli", fn)))
        return targets

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for owner, attr, wrapper in self._targets():
            if isinstance(owner, dict):
                self._saved.append((owner, attr, owner[attr]))
                owner[attr] = wrapper
            else:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        return False

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, phase in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[3] - s[2] - child[i] for i, s in enumerate(self.spans)]

    def total(self, name: str, phase: str | None = None) -> float:
        """Summed duration of the spans called `name`, in one phase or all."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[0] == name and (phase is None or s[5] == phase))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, layer, start, end, parent, phase) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "layer": layer,
                                    "start": start, "end": end, "parent": parent,
                                    "phase": phase}) + "\n")
