"""Image- and track-based prediction rules.

A track is scored in one forward pass: `TrackScores` holds one
`HeadOutputs` whose arrays carry a leading frame axis (T, ·), which
`select_image` and both aggregates read directly.

Track-level aggregation comes in two flavours: averaging per-frame
score vectors, and per-frame argmax voting with confidence averaged
over the supporting frames. Either way the selected confidence can be
compared against a threshold to fall back to the coarse-group
prediction when the fine-level score is too low.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEvalSet, EmptyTrack, InvalidThreshold
from .model import HeadOutputs, ModelParams, forward
from .taxonomy import Taxonomy

UNITS = ("image", "video_avg", "video_vote")


@dataclass
class Prediction:
    level: str        # "coarse" | "fine"
    label: int        # group index if coarse, global species index if fine
    confidence: float
    unit: str


@dataclass
class TrackScores:
    """Head outputs of one track's frames, in order, on a leading frame
    axis. A list of per-frame `HeadOutputs` is stacked on construction."""
    frames: HeadOutputs

    def __post_init__(self):
        if isinstance(self.frames, list):
            if not self.frames:
                raise EmptyTrack("track has no frames")
            self.frames = HeadOutputs(
                coarse=np.stack([f.coarse for f in self.frames]),
                fine_local=list(map(np.stack, zip(*(f.fine_local for f in self.frames)))),
                joint=np.stack([f.joint for f in self.frames]))


def score_track(params: ModelParams, track) -> TrackScores:
    """Every frame of `track` in one forward pass."""
    return TrackScores(frames=forward(params, track.model_input()))


@dataclass
class ImageSelection:
    """Scalars for one frame; (T,) arrays, one entry per frame, for a stack."""
    coarse_group: int
    coarse_confidence: float
    level2a: int              # fine argmax within the coarse-argmax group
    level2a_confidence: float
    level2b: int              # argmax of the joint scores
    level2b_confidence: float


def _at(a: np.ndarray, idx) -> np.ndarray:
    """`a[..., idx]` frame by frame: a scalar for one frame, (T,) for a stack."""
    return np.take_along_axis(a, idx[..., None], axis=-1)[..., 0][()]


def select_image(outputs: HeadOutputs, taxonomy: Taxonomy) -> ImageSelection:
    """Image-based selections for one frame or a stack of frames; ties
    broken by lowest index (np.argmax)."""
    g = outputs.coarse.argmax(axis=-1)
    # per group, the global index of its local fine argmax; 2A takes the
    # coarse winner's
    picks = np.stack([taxonomy.to_global(h, 0) + f.argmax(axis=-1)
                      for h, f in enumerate(outputs.fine_local)], axis=-1)
    s2a = _at(picks, g)
    s2b = outputs.joint.argmax(axis=-1)
    return ImageSelection(
        coarse_group=g,
        coarse_confidence=outputs.coarse.max(axis=-1),
        level2a=s2a,
        level2a_confidence=_at(outputs.joint, s2a),
        level2b=s2b,
        level2b_confidence=outputs.joint.max(axis=-1),
    )


@dataclass
class AvgAggregate:
    p1: np.ndarray            # (G,) frame-averaged coarse scores
    p2: np.ndarray            # (S,) frame-averaged joint scores
    selection: int            # argmax of p2
    confidence: float
    coarse_selection: int     # argmax of p1
    coarse_confidence: float
    level2a: int              # argmax of p2 within the p1-argmax group


def aggregate_avg(track: TrackScores, taxonomy: Taxonomy) -> AvgAggregate:
    """Average per-frame score vectors over the track, then select."""
    p1 = track.frames.coarse.mean(axis=0)
    p2 = track.frames.joint.mean(axis=0)
    sel = int(np.argmax(p2))
    g = int(np.argmax(p1))
    start = taxonomy.to_global(g, 0)
    size = taxonomy.group_sizes[g]
    s2a = start + int(np.argmax(p2[start:start + size]))
    return AvgAggregate(
        p1=p1, p2=p2,
        selection=sel, confidence=float(p2[sel]),
        coarse_selection=g, coarse_confidence=float(p1[g]),
        level2a=s2a,
    )


def _majority(votes: np.ndarray, confidences: np.ndarray) -> tuple[int, float]:
    """Most frequent vote; ties by higher mean supporting confidence,
    residual ties by lowest label. Returns (label, mean confidence)."""
    labels, counts = np.unique(votes, return_counts=True)
    best = None
    for label, count in zip(labels, counts):
        conf = float(confidences[votes == label].mean())
        key = (count, conf, -label)
        if best is None or key > best[0]:
            best = (key, int(label), conf)
    return best[1], best[2]


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
    coarse = track.frames.coarse
    joint = track.frames.joint
    fine_votes = np.argmax(joint, axis=1)
    fine_conf = joint.max(axis=1)
    sel, conf = _majority(fine_votes, fine_conf)

    coarse_votes = np.argmax(coarse, axis=1)
    coarse_conf = coarse.max(axis=1)
    gsel, gconf = _majority(coarse_votes, coarse_conf)

    support = coarse_votes == gsel
    start = taxonomy.to_global(gsel, 0)
    size = taxonomy.group_sizes[gsel]
    block = joint[np.ix_(support, range(start, start + size))]
    votes_2a = start + np.argmax(block, axis=1)
    conf_2a = block.max(axis=1)
    sel_2a, _ = _majority(votes_2a, conf_2a)

    return VoteAggregate(
        selection=sel, confidence=conf,
        coarse_selection=gsel, coarse_confidence=gconf,
        level2a=sel_2a,
    )


def decide(confidence: float, coarse_scores: np.ndarray, fine_selection: int,
           threshold: float, unit: str = "image") -> Prediction:
    """Fine prediction unless its confidence falls below the threshold,
    in which case fall back to the coarse-level argmax."""
    if not np.isfinite(threshold) or threshold < 0.0:
        raise InvalidThreshold(f"threshold {threshold}")
    if confidence < threshold:
        g = int(np.argmax(coarse_scores))
        return Prediction(level="coarse", label=g,
                          confidence=float(coarse_scores[g]), unit=unit)
    return Prediction(level="fine", label=int(fine_selection),
                      confidence=float(confidence), unit=unit)


STOP_ALL_EPS = 1e-9


def search_threshold(params: ModelParams, eval_tracks, taxonomy: Taxonomy) -> float:
    """Greedy threshold search on the frame-averaged video unit.

    Candidates are 0, every track's selected confidence, and 1 + eps
    (stop everything). Picks the candidate maximizing fallback accuracy;
    among maximizers the smallest, so the greatest number of tracks
    proceeds to the fine level. The result never scores below the
    no-fallback accuracy on the split it was searched on.
    """
    tracks = list(eval_tracks)
    if not tracks:
        raise EmptyEvalSet("no tracks to search over")
    conf = np.empty(len(tracks))
    fine_ok = np.empty(len(tracks), dtype=bool)
    coarse_ok = np.empty(len(tracks), dtype=bool)
    for k, track in enumerate(tracks):
        ts = score_track(params, track)
        agg = aggregate_avg(ts, taxonomy)
        y1 = taxonomy.group_index(track.group)
        y2 = taxonomy.species_index(track.species)
        conf[k] = agg.confidence
        fine_ok[k] = agg.selection == y2
        coarse_ok[k] = agg.coarse_selection == y1
    candidates = np.unique(np.concatenate([[0.0], conf, [1.0 + STOP_ALL_EPS]]))
    best_tau = 0.0
    best_acc = -1.0
    for tau in candidates:
        acc = float(np.mean(np.where(conf < tau, coarse_ok, fine_ok)))
        if acc > best_acc:
            best_acc = acc
            best_tau = float(tau)
    return best_tau
