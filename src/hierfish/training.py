"""Losses for all four training schemes, exact gradients, and the
image-based mini-batch SGD loop.

Schemes:
  baseline - flat head only, cross entropy on the species simplex.
  scheme1  - cross entropy on the coarse head plus cross entropy on the
             ground-truth group's local fine head (no score product).
  scheme2  - coarse cross entropy plus cross entropy on the joint
             (product) score of the true species, indexed within the
             ground-truth head.
  scheme3  - the same two terms, the joint score indexed over the full
             species simplex.

For one-hot labels scheme2's and scheme3's indexing pick the same
element, so `LOSSES`, the one scheme -> loss table, maps scheme2 to
scheme3's loss: the kernel dispatches on it, and `hierfish ablation`
trains each distinct loss once.

One kernel, `_loss_and_grads`, computes the batch loss and its gradient
for every scheme; `compute_gradients` (the finite-difference oracle's
subject), `batch_loss` and `train` all call it. The fine heads run as
one segmented softmax over a (B, S) array, group g in the columns
`ModelParams.fine_spans[g]` (see `model.heads_forward`); the backward
pass subtracts the one-hot label from that array once and takes each
group's gradient as a block of one by-group row gather.

Parameter layout: `ModelParams` keeps every weight in one contiguous
float64 vector, `params.vector`, with the named fields as views into it
in `ModelParams.fields()` order:
  W1, b1, W2, b2 | Wc1, bc1, Wc2, bc2 | Wl1, bl1, Wl2, bl2 | Wf[0..G-1] | bf[0..G-1]
(each matrix row-major). The gradient buffer has the same layout, so the
kernel writes each gradient into its view and `train` applies the mean
and momentum to the whole vector at once.

`train` validates the data once per call: it turns the labels into
integer arrays, checks each frame's input layout and finiteness, and
gathers each step's inputs from the frames into a preallocated buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from .data import Dataset
from .errors import (
    DimensionMismatch,
    DivergedTraining,
    EmptyDataset,
    InconsistentLabels,
    LabelOutOfRange,
    MalformedDocument,
    NonFiniteActivation,
    NonFiniteInput,
)
from .model import ModelParams
from .taxonomy import Taxonomy

# scheme -> the loss it trains (see the module docstring)
LOSSES = {"baseline": "baseline", "scheme1": "scheme1",
          "scheme2": "scheme3", "scheme3": "scheme3"}
SCHEMES = tuple(LOSSES)


@dataclass
class TrainConfig:
    scheme: str = "scheme3"
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    d1: int = 24
    hidden: int = 24
    d2: int = 16

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise MalformedDocument(f"unknown scheme {self.scheme!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise MalformedDocument(
                f"learning_rate must be finite and > 0, not {self.learning_rate!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise MalformedDocument(f"momentum must be in [0, 1), not {self.momentum!r}")
        if self.epochs < 0:
            raise MalformedDocument(f"epochs must be >= 0, not {self.epochs!r}")
        for key in ("batch_size", "d1", "hidden", "d2"):
            if getattr(self, key) < 1:
                raise MalformedDocument(f"{key} must be >= 1, not {getattr(self, key)!r}")


@dataclass
class LabeledExample:
    features: object            # raw vector or (shallow, deep) pair
    coarse_label: int           # group index
    fine_label: int             # global species index


def check_example(ex: LabeledExample, taxonomy: Taxonomy) -> tuple[int, int]:
    """Validate labels; returns (group, local index) of the fine label."""
    if not (0 <= ex.coarse_label < taxonomy.G):
        raise LabelOutOfRange(f"coarse label {ex.coarse_label}")
    if not (0 <= ex.fine_label < taxonomy.S):
        raise LabelOutOfRange(f"fine label {ex.fine_label}")
    g, i = taxonomy.to_local(ex.fine_label)
    if g != ex.coarse_label:
        raise InconsistentLabels(
            f"fine label {ex.fine_label} belongs to group {g}, not {ex.coarse_label}"
        )
    return g, i


def compute_loss(scheme: str, outputs, example: LabeledExample, taxonomy: Taxonomy) -> float:
    """Per-example loss. `outputs` is HeadOutputs for the hierarchical
    schemes or a flat probability vector for the baseline."""
    if scheme not in LOSSES:
        raise MalformedDocument(f"unknown scheme {scheme!r}")
    if LOSSES[scheme] == "baseline":
        probs = np.asarray(outputs, dtype=np.float64)
        if not (0 <= example.fine_label < probs.shape[0]):
            raise LabelOutOfRange(f"fine label {example.fine_label}")
        return float(-np.log(probs[example.fine_label]))
    g, i = check_example(example, taxonomy)
    fine = (outputs.fine_local[g][i] if LOSSES[scheme] == "scheme1"
            else outputs.joint[example.fine_label])
    return float(-np.log(outputs.coarse[g]) - np.log(fine))


def _loss_and_grads(params: ModelParams, grads: ModelParams, inputs, y1, y2,
                    scheme: str) -> float:
    """Mean batch loss; overwrites `grads` with its gradient.

    `inputs` is (X,) with X of shape (B, d_in) in trunk mode, or the
    (shallow, deep) pair in precomputed mode. y1/y2 are the coarse and
    global fine labels. `grads` has the layout of `params`.
    """
    B = y1.shape[0]
    rows = np.arange(B)
    trunk = params.mode == M.MODE_TRUNK
    loss = LOSSES[scheme]
    grads.vector.fill(0.0)
    if trunk:
        X, = inputs
        z1, A1, z2, A2 = M.trunk_features(params, X)
    else:
        A1, A2 = inputs

    # a zero probability yields an inf loss; the train loop turns that
    # into DivergedTraining rather than warning here
    dA1 = dA2 = None
    if loss == "baseline":
        cache, flat = M.flat_forward(params, A2)
        with np.errstate(divide="ignore"):
            losses = -np.log(flat[rows, y2])
        Gl = flat   # the probabilities become the logit gradient in place
        Gl[rows, y2] -= 1.0
        np.matmul(cache["Hl"].T, Gl, out=grads.Wl2)
        np.add.reduce(Gl, axis=0, out=grads.bl2)
        dzl1 = (Gl @ params.Wl2.T) * (cache["zl1"] > 0)
        np.matmul(A2.T, dzl1, out=grads.Wl1)
        np.add.reduce(dzl1, axis=0, out=grads.bl1)
        if trunk:
            dA2 = dzl1 @ params.Wl1.T
    else:
        cache, coarse, fine, joint = M.heads_forward(params, A1, A2)
        # scheme1 scores the true species within its group's head, scheme3
        # on the joint simplex
        with np.errstate(divide="ignore"):
            losses = (-np.log(coarse[rows, y1])
                      - np.log((fine if loss == "scheme1" else joint)[rows, y2]))
        # coarse-logit gradient: the joint term contributes a second
        # (coarse - onehot) for scheme3 since log joint splits into
        # log coarse + log fine
        Gc = coarse   # joint and the losses are computed; reuse in place
        Gc[rows, y1] -= 1.0
        if loss != "scheme1":
            Gc *= 2.0
        np.matmul(cache["Hc"].T, Gc, out=grads.Wc2)
        np.add.reduce(Gc, axis=0, out=grads.bc2)
        dzc1 = (Gc @ params.Wc2.T) * (cache["zc1"] > 0)
        np.matmul(A1.T, dzc1, out=grads.Wc1)
        np.add.reduce(dzc1, axis=0, out=grads.bc1)
        # fine-logit gradient, in place: only the true group's block of a
        # row is nonzero. Rows sorted by group, ascending within a group;
        # group g owns the rows a:b of Gf and its columns fine_spans[g]
        fine[rows, y2] -= 1.0
        by_group = np.argsort(y1, kind="stable")
        Gf, A2_s = fine[by_group], A2[by_group]
        ends = np.bincount(y1, minlength=params.G).cumsum().tolist()
        if trunk:
            dA1 = dzc1 @ params.Wc1.T
            dA2_s = np.zeros_like(A2)
        for g, a, b, (c, d) in zip(range(params.G), [0] + ends[:-1], ends, params.fine_spans):
            if a == b:
                continue
            block = Gf[a:b, c:d]
            np.matmul(A2_s[a:b].T, block, out=grads.Wf[g])
            np.add.reduce(block, axis=0, out=grads.bf[g])
            if trunk:
                dA2_s[a:b] += block @ params.Wf[g].T
        if trunk:
            dA2 = np.empty_like(A2)
            dA2[by_group] = dA2_s

    if trunk:
        dz2 = dA2 * (z2 > 0)
        np.matmul(A1.T, dz2, out=grads.W2)
        np.add.reduce(dz2, axis=0, out=grads.b2)
        back = dz2 @ params.W2.T
        dA1 = back if dA1 is None else dA1 + back
        dz1 = dA1 * (z1 > 0)
        np.matmul(X.T, dz1, out=grads.W1)
        np.add.reduce(dz1, axis=0, out=grads.b1)

    grads.vector /= B
    return float(losses.mean())


def _batch_arrays(batch: list[LabeledExample], params: ModelParams, taxonomy: Taxonomy):
    if not batch:
        raise EmptyDataset("empty batch")
    for ex in batch:
        check_example(ex, taxonomy)
    y1 = np.array([ex.coarse_label for ex in batch])
    y2 = np.array([ex.fine_label for ex in batch])
    if params.mode == M.MODE_TRUNK:
        inputs = (np.stack([np.asarray(ex.features, dtype=np.float64) for ex in batch]),)
    else:
        inputs = tuple(
            np.stack([np.asarray(ex.features[k], dtype=np.float64) for ex in batch])
            for k in (0, 1)
        )
    return inputs, y1, y2


def compute_gradients(params: ModelParams, batch: list[LabeledExample],
                      scheme: str, taxonomy: Taxonomy) -> ModelParams:
    """Gradient of the mean batch loss, shaped like the parameters."""
    inputs, y1, y2 = _batch_arrays(batch, params, taxonomy)
    grads = params.zeros_like()
    _loss_and_grads(params, grads, inputs, y1, y2, scheme)
    return grads


def batch_loss(params: ModelParams, batch: list[LabeledExample],
               scheme: str, taxonomy: Taxonomy) -> float:
    """Mean batch loss only; used by the finite-difference check."""
    inputs, y1, y2 = _batch_arrays(batch, params, taxonomy)
    return _loss_and_grads(params, params.zeros_like(), inputs, y1, y2, scheme)


def _where(frame) -> str:
    return f"track {frame.track_id!r} frame {frame.frame_index}"


def _stage(frames, mode: str, taxonomy: Taxonomy):
    """Validate every frame once and return (columns, y1, y2).

    `columns` holds one list of per-frame float64 vectors per model
    input: (features,) in trunk mode, (shallow, deep) in precomputed
    mode.
    """
    attrs = ("features",) if mode == M.MODE_TRUNK else ("shallow", "deep")
    columns = tuple([] for _ in attrs)
    n = len(frames)
    y1 = np.empty(n, dtype=np.intp)
    y2 = np.empty(n, dtype=np.intp)
    checked: set[tuple[int, int]] = set()
    for k, fr in enumerate(frames):
        s = taxonomy.species_index(fr.species)
        g = taxonomy.group_index(fr.group)
        if (g, s) not in checked:
            check_example(LabeledExample(None, g, s), taxonomy)
            checked.add((g, s))
        y1[k], y2[k] = g, s
        for attr, column in zip(attrs, columns):
            value = getattr(fr, attr)
            if value is None:
                raise DimensionMismatch(
                    f"{_where(fr)}: no {attr} vector, which a {mode!r} dataset needs"
                )
            vec = np.asarray(value, dtype=np.float64)
            if vec.ndim != 1 or (column and vec.shape != column[0].shape):
                raise DimensionMismatch(
                    f"{_where(fr)}: {attr} has shape {vec.shape}, expected "
                    f"{column[0].shape if column else '(d,)'}"
                )
            if not np.isfinite(vec).all():
                raise NonFiniteInput(f"{_where(fr)}: non-finite values in {attr}")
            column.append(vec)
    return columns, y1, y2


def _gather(buffer: np.ndarray, column: list, idx: np.ndarray) -> np.ndarray:
    """Copy the rows `idx` of a staged column into the head of `buffer`."""
    out = buffer[:idx.shape[0]]
    out[...] = [column[j] for j in idx.tolist()]
    return out


def train(config: TrainConfig, train_split: Dataset,
          taxonomy: Taxonomy) -> tuple[ModelParams, list[float]]:
    """Image-based mini-batch SGD with momentum; deterministic for a seed.

    The data decides the network's input side: `train_split.mode` picks
    trunk or precomputed mode, and the frames' widths set d_in (trunk)
    or d1 and d2 (precomputed). Returns the trained parameters and the
    per-epoch mean training loss.
    """
    frames = list(train_split.frames())
    if not frames:
        raise EmptyDataset("train split has no frames")
    mode = train_split.mode
    columns, y1, y2 = _stage(frames, mode, taxonomy)
    widths = [column[0].shape[0] for column in columns]
    dims = (dict(d_in=widths[0], d1=config.d1, d2=config.d2) if mode == M.MODE_TRUNK
            else dict(d1=widths[0], d2=widths[1]))
    params = M.init_params(taxonomy, hidden=config.hidden, seed=config.seed,
                           mode=mode, **dims)
    grads = params.zeros_like()
    velocity = np.zeros_like(params.vector)
    n = len(frames)
    B = config.batch_size
    buffers = [np.empty((min(B, n), column[0].shape[0])) for column in columns]
    history: list[float] = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, 1, epoch])
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, B):
            idx = order[start:start + B]
            inputs = [_gather(buf, col, idx) for buf, col in zip(buffers, columns)]
            try:
                loss = _loss_and_grads(params, grads, inputs, y1[idx], y2[idx],
                                       config.scheme)
            except NonFiniteActivation as e:
                raise DivergedTraining(
                    f"exploded activations at epoch {epoch}; lower the learning rate"
                ) from e
            if not np.isfinite(loss):
                raise DivergedTraining(
                    f"non-finite loss at epoch {epoch}; lower the learning rate"
                )
            loss_sum += loss * idx.shape[0]
            velocity *= config.momentum
            velocity -= config.learning_rate * grads.vector
            params.vector += velocity
        history.append(loss_sum / n)
    return params, history
