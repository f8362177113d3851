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
`Taxonomy.spans[g]`, with one stacked GEMM per run of
equal-size heads (see `model.heads_forward`); the backward pass
subtracts the one-hot label from that array once and takes each
group's gradient as a block of one by-group row gather.

Parameter layout: one function, `model.weight_layout`, owns the format
of a model's one float64 vector of P entries; every weight is a view
into it, written in place. The kernel always sees K models stacked
into a (K, P) array, one row per distinct loss in `LOSS_ORDER`: every
matrix is a (K, a, b) view and every bias a (K, 1, n) view, so one call
of the forward functions runs all K models by broadcasting. `train`
trains all the losses of a run in lockstep: every model of one seed starts
from the same weights and draws the same batches, so each step makes
one gather, one stacked trunk pass, the flat head on the baseline row
(row 0), the coarse and fine heads stacked on the hierarchical rows,
and one momentum update over (K, P). What differs per loss stays per
row: scheme1's row reads `fine` at the label, and scheme3's the joint
there (coarse × fine, the product `model.forward` forms; no other joint
entry is formed) and doubles its coarse-logit gradient. Every dense
layer back-propagates through `_dense_back`, the per-group fine heads
once per group on all the hierarchical rows. numpy runs a stacked
matmul or reduction as the same 2-D operation per row, so each row is
bit-identical to its model trained alone (tests/test_training.py
checks this); a single model is the K = 1 case.

The gradient buffer has the layout of the parameters and is never
refilled (the rule is at `_loss_and_grads`): `_dense_back` writes each
gradient, and the heads' input gradients, through `out=`, and `train`
applies the mean and momentum to the whole (K, P) array at once. One
`np.errstate` decorator on the kernel silences the divide warning of a
zero probability, an inf loss that `train` turns into an error.

`train` validates the data once per call: it resolves each track's
labels, takes its checked blocks (`data.Track.blocks`: shapes, then
every value finite and within `data.MAX_FEATURE`, so of two faulty
tracks the first is named), stacks them into one matrix per model input,
and gathers each step's rows into a preallocated buffer. It refuses more
than `MAX_WEIGHTS` weights over all K models before allocating any, and
a model that diverges stops the run, named by its scheme. A batch whose
loss is not finite even at the initial weights stops it as an input
fault instead, naming the batch's frame with the largest |value|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import model as M
from .errors import (
    DimensionMismatch,
    DivergedTraining,
    EmptyDataset,
    InconsistentLabels,
    InfeasibleConfig,
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
# the row order of models trained in lockstep: the baseline first, so
# the hierarchical models are one contiguous block
LOSS_ORDER = ("baseline", "scheme1", "scheme3")
# the most weights `train` allocates over all its models, as `generate`
# bounds its feature values
MAX_WEIGHTS = 10**8


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


def _dense_back(A, G, W, dW, db, out=None):
    """Back-propagate the gradient G of a dense layer's output A @ W + b:
    writes dW = AᵀG and db = ΣG over the batch axis (-2), and returns the
    input gradient GWᵀ, written into `out` if given, or None when W is
    None."""
    np.matmul(A.swapaxes(-1, -2), G, out=dW)
    np.add.reduce(G, axis=-2, keepdims=True, out=db)
    if W is not None:
        return np.matmul(G, W.swapaxes(-1, -2), out=out)


@functools.cache
def _hierarchical_rows(losses: tuple) -> tuple[np.ndarray, np.ndarray]:
    """For the hierarchical rows `losses`: the (K', 1) mask of rows whose
    loss reads `fine` (scheme1; the others read the joint), and the
    (K', 1, 1) coarse-logit gradient scale, 2.0 on the rows that read
    the joint (see `_loss_and_grads`), else 1.0."""
    reads_fine = np.array([loss == "scheme1" for loss in losses])[:, None]
    scale = np.where(reads_fine, 1.0, 2.0)[..., None]
    reads_fine.flags.writeable = scale.flags.writeable = False
    return reads_fine, scale


@functools.cache
def _cells(K: int, B: int, n: int) -> np.ndarray:
    """The (K, B) flat index of each row's first entry in a (K, B, n)
    array: the label of row b of model k is at cells[k, b] + label."""
    cells = np.arange(0, K * B * n, n).reshape(K, B)
    cells.flags.writeable = False
    return cells


@np.errstate(divide="ignore")   # a zero probability: an inf loss, not a warning
def _loss_and_grads(params: ModelParams, grads: ModelParams, inputs, y1, y2,
                    losses) -> np.ndarray:
    """Mean batch loss of each model of stacked `params`, as a (K,) array;
    writes their gradients into `grads`.

    `losses[k]` is model k's loss, in `LOSS_ORDER`. `inputs` is (X,) with
    X of shape (B, d_in) in trunk mode, or the (shallow, deep) pair in
    precomputed mode; every model reads the same batch. y1/y2 are the
    coarse and global fine labels. `grads` has the layout of `params`
    and starts as zeros (`zeros_like`): each call writes every gradient
    its losses own and zeroes the fine heads of a group with no row in
    the batch, so the weights no loss of a row trains (the baseline's
    coarse and fine heads, the other rows' flat head, precomputed
    mode's trunk) keep those zeros.
    """
    K, B = len(losses), y1.shape[0]
    h = int(losses[0] == "baseline")   # models h: are hierarchical
    trunk = params.mode == M.MODE_TRUNK
    if trunk:
        X, = inputs
        z1, A1, z2, A2 = M.trunk_features(params, X)
        dA2 = np.empty_like(A2)
    else:
        A1, A2 = (np.broadcast_to(a, (K,) + a.shape) for a in inputs)
    out = np.empty((K, B))

    # precomputed mode has no trunk, so the heads compute no input
    # gradient (W is None)
    if h:
        p, dp = params.rows(0, 1), grads.rows(0, 1)
        cache, flat = M.flat_forward(p, A2[:1])
        label = _cells(1, B, params.S)[0] + y2
        out[0] = -np.log(flat.ravel()[label])
        Gl = flat   # the probabilities become the logit gradient in place
        Gl.ravel()[label] -= 1.0
        dzl1 = _dense_back(cache["Hl"], Gl, p.Wl2, dp.Wl2, dp.bl2)
        dzl1 *= cache["zl1"] > 0
        _dense_back(A2[:1], dzl1, p.Wl1 if trunk else None, dp.Wl1, dp.bl1,
                    out=dA2[:1] if trunk else None)
    if h < K:
        p, dp = params.rows(h, K), grads.rows(h, K)
        A1h, A2h = A1[h:], A2[h:]
        cache, coarse, fine = M.heads_forward(p, A1h, A2h)
        group, species = _cells(K - h, B, params.G) + y1, _cells(K - h, B, params.S) + y2
        # scheme1 scores the true species within its group's head, scheme3
        # on the joint simplex, read only at the label: coarse × fine there
        # is the joint `forward` forms. Coarse-logit gradient: the joint
        # term contributes a second (coarse - onehot) for scheme3, since
        # log joint splits into log coarse + log fine
        reads_fine, coarse_scale = _hierarchical_rows(tuple(losses[h:]))
        coarse_at, fine_at = coarse.ravel()[group], fine.ravel()[species]
        out[h:] = -np.log(coarse_at) - np.log(np.where(reads_fine, fine_at,
                                                        coarse_at * fine_at))
        Gc = coarse   # the loss terms are read; reuse the probabilities in place
        Gc.ravel()[group] -= 1.0
        Gc *= coarse_scale
        dzc1 = _dense_back(cache["Hc"], Gc, p.Wc2, dp.Wc2, dp.bc2)
        dzc1 *= cache["zc1"] > 0
        dA1h = _dense_back(A1h, dzc1, p.Wc1 if trunk else None, dp.Wc1, dp.bc1)
        # fine-logit gradient, in place: only the true group's block of a
        # row is nonzero. Rows sorted by group, ascending within a group;
        # group g owns the rows a:b of Gf and its columns (c, d) = spans[g],
        # and writes its input gradient into the rows a:b of dA2_s
        fine.ravel()[species] -= 1.0
        by_group = np.argsort(y1, kind="stable")
        ends = np.bincount(y1, minlength=params.G).cumsum().tolist()
        Gf, A2_s = np.take(fine, by_group, axis=1), np.take(A2h, by_group, axis=1)
        dA2_s = np.empty((K - h, B, params.d2)) if trunk else None
        spans = params.taxonomy.spans.tolist()
        for g, a, b, (c, d) in zip(range(params.G), [0] + ends[:-1], ends, spans):
            if a == b:   # no row of group g: its heads get no gradient
                dp.Wf[g].fill(0.0)
                dp.bf[g].fill(0.0)
                continue
            _dense_back(A2_s[:, a:b], Gf[:, a:b, c:d], p.Wf[g] if trunk else None,
                        dp.Wf[g], dp.bf[g], out=dA2_s[:, a:b] if trunk else None)
        if trunk:
            dA2[h:, by_group] = dA2_s

    if trunk:
        dA2 *= z2 > 0
        dA1 = _dense_back(A1, dA2, params.W2, grads.W2, grads.b2)
        if h < K:
            dA1[h:] += dA1h
        dA1 *= z1 > 0
        _dense_back(X, dA1, None, grads.W1, grads.b1)

    grads.vector[...] /= B
    return np.add.reduce(out, axis=-1) / B   # as `out.mean(axis=-1)`, with less overhead


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
    stacked = params.tile(1)
    grads = stacked.zeros_like()
    _loss_and_grads(stacked, grads, inputs, y1, y2, (LOSSES[scheme],))
    return grads.row(0)


def batch_loss(params: ModelParams, batch: list[LabeledExample],
               scheme: str, taxonomy: Taxonomy) -> float:
    """Mean batch loss only; used by the finite-difference check."""
    inputs, y1, y2 = _batch_arrays(batch, params, taxonomy)
    stacked = params.tile(1)
    return float(_loss_and_grads(stacked, stacked.zeros_like(), inputs, y1, y2,
                                 (LOSSES[scheme],))[0])


def _stage(dataset: D.Dataset, taxonomy: Taxonomy):
    """Validate every track once and return (inputs, y1, y2, where).

    `inputs` holds one (N, d) float64 matrix per model input, the tracks'
    `Track.blocks` in order, of one width d across tracks. `where(row)`
    names a row as its track's frame.
    """
    tracks, mode = dataset.tracks, dataset.mode
    labels = D.check_labels(dataset, taxonomy)
    lengths = [len(t) for t in tracks]
    starts = np.cumsum([0] + lengths[:-1])

    def where(row: int) -> str:
        # the last track that starts at or before `row`
        j = int(np.searchsorted(starts, row, side="right")) - 1
        return f"track {tracks[j].track_id!r} frame {tracks[j].frame_index[row - starts[j]]}"

    columns = list(zip(*[t.blocks(mode) for t in tracks]))
    attrs = D.VECTOR_FIELDS[mode]
    for attr, column in zip(attrs, columns):
        width = column[0].shape[1]
        for t, block in zip(tracks, column):
            if block.shape[1] != width:
                raise DimensionMismatch(f"track {t.track_id!r} frame {t.frame_index[0]}: {attr} "
                                        f"has shape {block.shape}, expected ({len(t)}, {width})")
    inputs = [np.concatenate(column) for column in columns]
    y1, y2 = (np.repeat(np.array(y, dtype=np.intp), lengths) for y in zip(*labels))
    return inputs, y1, y2, where


def _check_size(taxonomy: Taxonomy, K: int, dims: dict) -> None:
    """Refuse to allocate K models of more than MAX_WEIGHTS weights in all."""
    size = K * M.weight_layout(taxonomy, *map(dims.get, M.DIM_KEYS)).size
    if size > MAX_WEIGHTS:
        raise InfeasibleConfig(
            f"{K} model(s) of d1={dims['d1']}, hidden={dims['hidden']}, d2={dims['d2']} "
            f"hold {size} weights, more than {MAX_WEIGHTS}; lower hidden, d1 or d2")


def _step(params, grads, inputs, y1, y2, losses):
    """One `_loss_and_grads` step: the (K,) losses, or None if a loss or an
    activation is not finite."""
    try:
        loss = _loss_and_grads(params, grads, inputs, y1, y2, losses)
    except NonFiniteActivation:
        return None
    return loss if np.isfinite(loss).all() else None


def _input_fault(initial, grads, batch, rows, where, losses):
    """None if the (inputs, y1, y2) `batch` of the staged rows `rows` has a
    finite loss at the `initial` weights. Otherwise the input is at fault:
    the error names the batch's row with the largest |value|."""
    if _step(initial, grads, *batch, losses) is not None:
        return None
    peak = np.maximum.reduce([np.abs(X).max(axis=1) for X in batch[0]])
    j = int(np.argmax(peak))
    return NonFiniteInput(f"{where(rows[j])}: input values up to |{peak[j]:g}| give a "
                          "non-finite loss at the network's initial weights; rescale the features")


def _diverged(params, grads, batch, losses, names, epoch):
    """The error for a step whose loss is not finite on the (inputs, y1,
    y2) `batch`: names the first model that fails it on its own, as it
    does in lockstep."""
    for k, loss in enumerate(losses):
        if _step(params.rows(k, k + 1), grads.rows(k, k + 1), *batch, (loss,)) is None:
            break
    return DivergedTraining(f"{names[loss]} diverged at epoch {epoch}; lower the learning rate")


def train(config: TrainConfig, train_split: D.Dataset, taxonomy: Taxonomy, schemes=None):
    """Image-based mini-batch SGD with momentum; deterministic for a seed.

    The data decides the network's input side: `train_split.mode` picks
    trunk or precomputed mode, and the blocks' widths set d_in (trunk)
    or d1 and d2 (precomputed). Returns the trained parameters and the
    per-epoch mean training loss of `config.scheme`.

    With `schemes`, trains one model per distinct loss of those schemes
    in one lockstep loop (`config.scheme` is not used) and returns
    {scheme: (params, history)}; schemes that share a loss share the
    pair. Each model is bit-identical to the one its scheme trains alone.
    """
    if not train_split.n_frames:
        raise EmptyDataset("train split has no frames")
    names = {}   # loss -> the first scheme that trains it
    for scheme in [config.scheme] if schemes is None else schemes:
        if scheme not in LOSSES:
            raise MalformedDocument(f"unknown scheme {scheme!r}")
        names.setdefault(LOSSES[scheme], scheme)
    if not names:
        raise MalformedDocument("no scheme to train")
    losses = [loss for loss in LOSS_ORDER if loss in names]
    mode = train_split.mode
    matrices, y1, y2, where = _stage(train_split, taxonomy)
    widths = [X.shape[1] for X in matrices]
    dims = (dict(d_in=widths[0], d1=config.d1, d2=config.d2) if mode == M.MODE_TRUNK
            else dict(d_in=M.D_IN, d1=widths[0], d2=widths[1]))
    dims.update(hidden=config.hidden)
    _check_size(taxonomy, len(losses), dims)
    initial = M.init_params(taxonomy, seed=config.seed, mode=mode, **dims)
    params = initial.tile(len(losses))
    grads = params.zeros_like()
    velocity = np.zeros_like(params.vector)
    n = y1.shape[0]
    B = config.batch_size
    buffers = [np.empty((min(B, n), width)) for width in widths]
    histories: list[list[float]] = [[] for _ in losses]
    # each step's loss and activations are checked: an overflow is an error, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            rng = np.random.default_rng([config.seed, 1, epoch])
            order = rng.permutation(n)
            loss_sums = [0.0] * len(losses)   # Python floats round as float64 does
            for start in range(0, n, B):
                idx = order[start:start + B]
                # mode="clip" (`idx` is in range) lets np.take write into `out` unbuffered
                inputs = [np.take(X, idx, axis=0, out=buf[:idx.shape[0]], mode="clip")
                          for X, buf in zip(matrices, buffers)]
                loss = _step(params, grads, inputs, y1[idx], y2[idx], losses)
                if loss is None:
                    # the input is at fault if the batch fails at the initial weights too
                    batch = (inputs, y1[idx], y2[idx])
                    raise (_input_fault(initial.tile(len(losses)), grads, batch, idx, where, losses)
                           or _diverged(params, grads, batch, losses, names, epoch))
                loss_sums = [s + x * idx.shape[0] for s, x in zip(loss_sums, loss.tolist())]
                velocity *= config.momentum
                grads.vector[...] *= config.learning_rate   # in place: no (K, P) temporary
                velocity -= grads.vector
                params.vector[...] += velocity
            for history, value in zip(histories, loss_sums):
                history.append(value / n)
    trained = [(params.row(k), history) for k, history in enumerate(histories)]
    if schemes is None:
        return trained[0]
    return {scheme: trained[losses.index(LOSSES[scheme])] for scheme in schemes}
