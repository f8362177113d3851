"""Image- and track-based prediction rules.

A track is scored in one forward pass: `TrackScores` holds one
`HeadOutputs` whose arrays carry a leading frame axis (T, ·), which
`select_image` and both aggregates read directly; a batch of tracks of
one length adds a leading track axis, (n, T, ·).

Track-level aggregation comes in two flavours: averaging per-frame
score vectors, and per-frame argmax voting with confidence averaged
over the supporting frames. Either way the selected confidence can be
compared against a threshold to fall back to the coarse-group
prediction when the fine-level score is too low.

`score_split` is the one loop over a split's tracks. It first resolves
every track's labels through `data.check_labels`, the one label rule
training also keeps. It then scores the tracks in batches of one length
(`track_batches`), each stacked on a leading track axis into one forward
(one matmul call per layer, which numpy runs as one GEMM per track; see
`model`), bit-identical to scoring each track alone. The forward is
`model.forward` unless the caller passes another that gives
`HeadOutputs` (the flat baseline's `evaluation.flat_heads`).

`UNITS` is the one table of scoring units: each names whether its rows
are frames (image) or tracks (video units) and the reducer of a batch's
outputs to those rows. `score_split` runs each asked-for unit's reducer
on every batch and writes its rows at the tracks' own places in split
order, so a split's raw scores are never held: `select_image` and the
frame average (`aggregate_avg`) reduce the whole batch at once, the
vote (`aggregate_vote`) one track at a time. The threshold search
(on `TAU_UNIT`), the metric suite and `hierfish infer` (on any track
unit) all read these `UnitRows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import data as D
from .errors import EmptyEvalSet, EmptyTrack, InvalidThreshold, MalformedDocument
from .model import FineLocal, HeadOutputs, ModelParams, forward
from .taxonomy import Taxonomy

# the most frames `score_split` scores in one batch, unless one track
# alone has more. A `score_split` of every unit, median ms and traced
# allocation peak at 32 / 64 / 128 / 256 frames, one thread: 106 / 85 /
# 79 / 78 ms and 0.63 / 0.87 / 1.29 / 2.14 MB on a 24 x 5 split of 587
# tracks of 4-12 frames; 31 / 21 / 19 / 17 ms and 0.22 / 0.30 / 0.45 /
# 0.66 MB on a 6 x 31 split of 116 tracks of 8-24. 256 is at most 8%
# faster for half again the peak
CHUNK_FRAMES = 128


@dataclass
class Prediction:
    level: str        # "coarse" | "fine"
    label: int        # group index if coarse, global species index if fine
    confidence: float
    unit: str


@dataclass
class TrackScores:
    """Head outputs of one track's frames, in order, on a leading frame
    axis (T, ·), or of a batch of tracks of one length (n, T, ·). A list
    of per-frame `HeadOutputs` is stacked on construction."""
    frames: HeadOutputs

    def __post_init__(self):
        if isinstance(self.frames, list):
            if not self.frames:
                raise EmptyTrack("track has no frames")
            frames = self.frames
            self.frames = HeadOutputs(
                coarse=np.stack([f.coarse for f in frames]),
                fine_local=FineLocal(np.stack([f.fine_local.fine for f in frames]),
                                     frames[0].fine_local.spans),
                joint=np.stack([f.joint for f in frames]))


@np.errstate(over="ignore", invalid="ignore")   # a non-finite activation raises instead
def score_track(params: ModelParams, track) -> TrackScores:
    """Every frame of `track` in one forward pass."""
    return TrackScores(frames=forward(params, track.model_input()))


def track_batches(tracks):
    """Index arrays into `tracks`, each of tracks of one length, in
    ascending length (split order among equals); a batch holds at most
    CHUNK_FRAMES frames, and a longer track is a batch of its own."""
    lengths = [len(t) for t in tracks]
    order = sorted(range(len(tracks)), key=lengths.__getitem__)
    for T, same in groupby(order, key=lengths.__getitem__):
        same, n = np.array(list(same)), max(CHUNK_FRAMES // max(T, 1), 1)
        for a in range(0, len(same), n):
            yield same[a:a + n]


def stacked_forward(fn, params: ModelParams, tracks):
    """(indices, `fn(params, x)`) of each batch of `track_batches`, `fn`
    being a forward such as `model.forward` and x the batch's blocks
    stacked on a leading track axis, (n, T, ·): item j of the outputs
    is, bit for bit, `fn` on track `indices[j]` alone. If a batch
    raises, every track is scored alone, in split order, and the error
    re-raised, so it is the one the first failing track raises alone,
    even if that track's batch comes later."""
    try:
        for idx in track_batches(tracks):
            blocks = [tracks[k].model_input() for k in idx]
            x = (tuple(map(np.stack, zip(*blocks))) if isinstance(blocks[0], tuple)
                 else np.stack(blocks))
            yield idx, fn(params, x)
    except Exception:   # whatever it is, the one-by-one pass picks the error raised
        for track in tracks:
            fn(params, track.model_input())
        raise


@dataclass
class ImageSelection:
    """Scalars for one frame; (T,) arrays, one entry per frame, for a stack."""
    coarse_group: int
    coarse_confidence: float
    level2a: int              # fine argmax within the coarse-argmax group
    level2b: int              # argmax of the joint scores
    level2b_confidence: float


def _pick_in_group(g, scores: np.ndarray, taxonomy: Taxonomy):
    """Level-2A: each row's argmax of `scores` (..., S) within its group
    `g` (...,), in one argmax over the S columns (group-major, so column
    s is global species s), the columns outside the group at -inf."""
    in_group = taxonomy.column_group == g[..., None]
    return np.where(in_group, scores, -np.inf).argmax(axis=-1)


def select_image(outputs: HeadOutputs, taxonomy: Taxonomy) -> ImageSelection:
    """Image-based selections for one frame or a stack of frames; ties
    broken by lowest index (np.argmax)."""
    g = outputs.coarse.argmax(axis=-1)
    return ImageSelection(
        coarse_group=g,
        coarse_confidence=outputs.coarse.max(axis=-1),
        level2a=_pick_in_group(g, outputs.fine_local.fine, taxonomy),
        level2b=outputs.joint.argmax(axis=-1),
        level2b_confidence=outputs.joint.max(axis=-1),
    )


def _mean(x: np.ndarray):
    """`x.mean(axis=0)`: the same sum and division, without numpy's
    Python-level wrapper."""
    return np.add.reduce(x, axis=0) / x.shape[0]


@dataclass
class AvgAggregate:
    """One track's fields, numpy scalars; a batch of n tracks adds a
    leading (n,) axis to each."""
    p1: np.ndarray            # (G,) frame-averaged coarse scores
    p2: np.ndarray            # (S,) frame-averaged joint scores
    selection: int            # argmax of p2
    confidence: float
    coarse_selection: int     # argmax of p1
    coarse_confidence: float
    level2a: int              # argmax of p2 within the p1-argmax group


def aggregate_avg(track: TrackScores, taxonomy: Taxonomy) -> AvgAggregate:
    """Average the per-frame score vectors over the frame axis, then
    select as `select_image` does: of one track's frames (T, ·), or of
    each track of a batch of one length (n, T, ·), bit for bit as each
    track alone."""
    p1, p2 = (np.add.reduce(x, axis=-2) / x.shape[-2]
              for x in (track.frames.coarse, track.frames.joint))
    g = p1.argmax(axis=-1)
    return AvgAggregate(
        p1=p1, p2=p2,
        selection=p2.argmax(axis=-1), confidence=p2.max(axis=-1),
        coarse_selection=g, coarse_confidence=p1.max(axis=-1),
        level2a=_pick_in_group(g, p2, taxonomy),
    )


def _vote(scores: np.ndarray):
    """(label, mask of its supporting rows, every row's top score) of
    per-row argmax voting over `scores` (T, n): the most frequent pick,
    ties by higher mean top score over the supporting rows (taken only for
    the labels tied on the top count), residual ties by lowest label."""
    picks = scores.argmax(axis=1)
    top = np.maximum.reduce(scores, axis=1)
    counts = np.bincount(picks)
    tied = (counts == np.maximum.reduce(counts)).nonzero()[0].tolist()
    if len(tied) > 1:
        means = [float(_mean(top[picks == label])) for label in tied]
        tied = [tied[means.index(max(means))]]   # the first, lowest, label of the top mean
    return tied[0], picks == tied[0], top


@dataclass
class VoteAggregate:
    selection: int
    confidence: float          # mean joint score over supporting frames
    coarse_selection: int
    coarse_confidence: float
    level2a: int


def aggregate_vote(track: TrackScores, taxonomy: Taxonomy) -> VoteAggregate:
    """Per-frame argmax voting over the track.

    The coarse fallback votes over per-frame coarse argmaxes; the 2A
    selection votes over per-frame within-group picks restricted to the
    frames that agree with the winning coarse group, which keeps a
    correct 2A prediction implying a correct coarse one.
    """
    joint = track.frames.joint
    sel, support, top = _vote(joint)
    conf = float(_mean(top[support]))
    gsel, support, top = _vote(track.frames.coarse)
    gconf = float(_mean(top[support]))
    a, b = taxonomy.spans[gsel].tolist()
    sel_2a = a + _vote(joint[support, a:b])[0]
    return VoteAggregate(selection=sel, confidence=conf, coarse_selection=gsel,
                         coarse_confidence=gconf, level2a=sel_2a)


def check_threshold(tau: float) -> float:
    """`tau` itself if it can serve as a threshold: finite and >= 0."""
    if not np.isfinite(tau) or tau < 0.0:
        raise InvalidThreshold(f"threshold {tau}")
    return tau


def decide(confidence: float, coarse_scores: np.ndarray, fine_selection: int,
           threshold: float, unit: str = "image") -> Prediction:
    """Fine prediction unless its confidence falls below the threshold,
    in which case fall back to the coarse-level argmax."""
    check_threshold(threshold)
    if confidence < threshold:
        g = int(np.argmax(coarse_scores))
        return Prediction(level="coarse", label=g,
                          confidence=float(coarse_scores[g]), unit=unit)
    return Prediction(level="fine", label=int(fine_selection),
                      confidence=float(confidence), unit=unit)


@dataclass
class UnitRows:
    """One unit's labels and selections over a split: a row per frame for
    a frame unit (image), per track for a track unit (video)."""
    y1: np.ndarray            # true group
    y2: np.ndarray            # true global species
    coarse: np.ndarray        # coarse selection
    coarse_conf: np.ndarray
    level2a: np.ndarray       # species selected within the coarse selection's group
    fine: np.ndarray          # species selected by the joint scores
    conf: np.ndarray          # its confidence, held against the threshold

    @classmethod
    def labelled(cls, labels: np.ndarray) -> UnitRows:
        """Rows of `labels`, (n, 2) pairs of true group and species, their
        selections to fill."""
        n, i, f = len(labels), np.intp, float
        return cls(*labels.T.copy(), coarse=np.empty(n, i), coarse_conf=np.empty(n, f),
                   level2a=np.empty(n, i), fine=np.empty(n, i), conf=np.empty(n, f))

    def put(self, at, coarse, coarse_conf, level2a, fine, conf) -> None:
        """Write one reduction's selections at `at`, an index, a slice or
        an index array shaped as the selections."""
        self.coarse[at], self.coarse_conf[at], self.level2a[at] = coarse, coarse_conf, level2a
        self.fine[at], self.conf[at] = fine, conf

    def stopped(self, tau: float) -> np.ndarray:
        """The fallback rule: rows whose fine confidence is below tau."""
        return self.conf < tau

    def correct(self, tau: float) -> np.ndarray:
        """Level-2C: a stopped row is right iff its group is, others iff their species is."""
        return np.where(self.stopped(tau), self.coarse == self.y1, self.fine == self.y2)


def _image_rows(out: HeadOutputs, taxonomy: Taxonomy):
    s = select_image(out, taxonomy)
    return s.coarse_group, s.coarse_confidence, s.level2a, s.level2b, s.level2b_confidence


def _track_rows(aggregate, out: HeadOutputs, taxonomy: Taxonomy):
    """The selections of `aggregate(TrackScores(out))`, of one track's
    outputs (T, ·) or of a batch's (n, T, ·)."""
    a = aggregate(TrackScores(frames=out), taxonomy)
    return a.coarse_selection, a.coarse_confidence, a.level2a, a.selection, a.confidence


def _vote_rows(out: HeadOutputs, taxonomy: Taxonomy):
    """The vote's selections, one track at a time."""
    return zip(*[_track_rows(aggregate_vote, out[j], taxonomy) for j in range(len(out.joint))])


# a scoring unit: whether its rows are frames (else tracks), and its reducer
# of a batch's outputs (n, T, ·) to the rows' selections in `UnitRows.put`
# order, each (n, T) for frames or (n,) for tracks
Unit = NamedTuple("Unit", [("frames", bool), ("reduce", object)])
UNITS = {"image": Unit(True, _image_rows),
         "video_avg": Unit(False, lambda out, taxonomy: _track_rows(aggregate_avg, out, taxonomy)),
         "video_vote": Unit(False, _vote_rows)}
TAU_UNIT = "video_avg"   # the unit whose rows the threshold is searched on


@np.errstate(over="ignore", invalid="ignore")   # a non-finite activation raises instead
def score_split(params: ModelParams, tracks, taxonomy: Taxonomy,
                units=UNITS, heads=None) -> dict[str, UnitRows]:
    """The rows of each unit of `UNITS` named in `units` over `tracks`, in
    order, of the `HeadOutputs` that `heads(params, x)` gives, by default
    `forward`'s. Every unit's name and every track's labels are checked
    before any track is scored; then each batch of `stacked_forward` is
    reduced by each unit's reducer, before the next is scored, to rows
    at the batch's tracks' places, or at their frames' for a frame unit."""
    if unknown := [u for u in units if u not in UNITS]:
        raise MalformedDocument(f"unknown unit {unknown[0]!r}")
    tracks = list(tracks)
    labels = np.array(D.check_labels(D.Dataset(tracks), taxonomy), dtype=np.intp).reshape(-1, 2)
    lengths = np.array([len(t) for t in tracks], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths   # each track's first frame row
    # a frame's labels are its track's
    tables = {u: UnitRows.labelled(np.repeat(labels, lengths if UNITS[u].frames else 1, axis=0))
              for u in units}
    for idx, out in stacked_forward(heads or forward, params, tracks):
        for unit, rows in tables.items():
            at = starts[idx, None] + np.arange(out.joint.shape[1]) if UNITS[unit].frames else idx
            rows.put(at, *UNITS[unit].reduce(out, taxonomy))
    return tables


STOP_ALL_EPS = 1e-9


def best_threshold(rows: UnitRows) -> float:
    """Greedy threshold search over one unit's rows.

    Candidates are 0, every row's selected confidence, and 1 + eps
    (stop everything). Picks the candidate maximizing fallback accuracy;
    among maximizers the smallest, so the greatest number of rows
    proceeds to the fine level. The result never scores below the
    no-fallback accuracy on the rows it was searched on.
    """
    if len(rows.conf) == 0:
        raise EmptyEvalSet("no tracks to search over")
    order = np.argsort(rows.conf, kind="stable")
    conf = rows.conf[order]
    candidates = np.unique(np.concatenate([[0.0], conf, [1.0 + STOP_ALL_EPS]]))
    # rows right if stopped / if proceeding, counted over the rows in
    # ascending confidence; a candidate stops the rows below it
    stop_ok = np.concatenate([[0], np.cumsum((rows.coarse == rows.y1)[order])])
    fine_ok = np.concatenate([[0], np.cumsum((rows.fine == rows.y2)[order])])
    below = np.searchsorted(conf, candidates, side="left")
    correct = stop_ok[below] + (fine_ok[-1] - fine_ok[below])
    return float(candidates[np.argmax(correct)])   # argmax: the first maximizer


def search_threshold(params: ModelParams, eval_tracks, taxonomy: Taxonomy) -> float:
    """`best_threshold` on the `TAU_UNIT` rows of `eval_tracks`."""
    return best_threshold(score_split(params, eval_tracks, taxonomy, (TAU_UNIT,))[TAU_UNIT])
