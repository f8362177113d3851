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
trains each distinct loss once. `loss_of` is its one lookup: every call
that takes a scheme refuses an unknown one through it.

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
into it, written in place. The kernel always sees K models stacked into
a (K, P) array, one row per distinct loss in `LOSS_ORDER`: every matrix
is a (K, a, b) view and every bias a (K, 1, n) view, so one call of the
forward functions runs all K models by broadcasting. `train` trains all
the losses of a run in lockstep: every model of one seed starts from the
same weights and draws the same batches, so each step makes one gather,
one stacked trunk pass, the flat head on the baseline row (row 0), the
coarse and fine heads stacked on the hierarchical rows, and one momentum
update over (K, P). What differs per loss stays per row: scheme1's row
reads `fine` at the label, and scheme3's the joint there (coarse × fine,
the product `model.forward` forms; no other joint entry is formed) and
doubles its coarse-logit gradient. Every dense layer back-propagates
through `_dense_back`, the per-group fine heads once per group on all
the hierarchical rows; every ReLU layer (the trunk's two, each MLP
head's hidden layer) through `_relu_back`, its mask, then `_dense_back`;
and the coarse and flat heads, one MLP softmax head (`model._mlp_head`),
through `_head_back`. numpy runs a stacked matmul or reduction as the
same 2-D operation per row, so each row is bit-identical to its model
trained alone (tests/test_training.py checks this); a single model is
the K = 1 case.

A step runs on a workspace (`_Workspace`), built once per batch size:
`train` builds one for its full batches and one for the ragged last
batch if there is one, and `compute_gradients`, `batch_loss` and the
reruns of a failed step (`_input_fault`, `_diverged`) a one-off one. It
holds every array a step writes (the input buffers its rows are gathered
into; activations, probabilities, masks, label gathers and backward
buffers) and every view it reads (weight and gradient views, transposes,
the fine runs' blocks, each group's columns of the fine gradient). One
function, `_head`, builds each MLP head's arrays and layer operands: the
flat head's on row 0 and the coarse head's on the hierarchical rows. The
model's forward functions write their arrays through `out=`
(`model.Buffers`), so `model.py` keeps the only copy of the forward
math; scoring hands them no workspace. The step runs the ufuncs the
allocating code ran, on the same operands in the same order, so its
bytes are that code's (`test_train_is_pinned`).

`train` builds each epoch's label tables at once for each workspace's
batches (`_label_tables`): the label cells of the flat, coarse and fine
probabilities, the rows sorted by group (`np.argsort(..., kind="stable")`
over the (steps, B) labels) and its inverse, and each group's end row,
from one `np.bincount`. The mean over the batch divides by B, or
multiplies by 1 / B when B is a power of two: then 1 / B is exact, and
x / B and x * (1 / B) are one correctly rounded operation on the same
exact value, so they give the same bits; for any other B they need not.

The gradient buffer has the layout of the parameters and is never
refilled (the rule is at `_loss_and_grads`): `_dense_back` writes each
gradient, and the heads' input gradients, through `out=`, and `train`
applies the mean and momentum to the whole (K, P) array at once. The
callers silence the divide warning of a zero probability, an inf loss
that `train` turns into an error.

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
from collections import namedtuple
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


def loss_of(scheme: str) -> str:
    """The loss `scheme` trains (`LOSSES`): the one lookup of a scheme,
    which refuses an unknown one."""
    if scheme not in LOSSES:
        raise MalformedDocument(f"unknown scheme {scheme!r}")
    return LOSSES[scheme]


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
        loss_of(self.scheme)
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
    loss = loss_of(scheme)
    if loss == "baseline":
        probs = np.asarray(outputs, dtype=np.float64)
        if not (0 <= example.fine_label < probs.shape[0]):
            raise LabelOutOfRange(f"fine label {example.fine_label}")
        return float(-np.log(probs[example.fine_label]))
    g, i = check_example(example, taxonomy)
    fine = (outputs.fine_local[g][i] if loss == "scheme1"
            else outputs.joint[example.fine_label])
    return float(-np.log(outputs.coarse[g]) - np.log(fine))


def _layer(A, W, dW, db):
    """A dense layer's backward operands for `_dense_back`: (Aᵀ, Wᵀ or
    None when W is, dW, db), views cut once."""
    return A.swapaxes(-1, -2), None if W is None else W.swapaxes(-1, -2), dW, db


def _dense_back(layer, G, out=None):
    """Back-propagate the gradient G of a dense layer's output A @ W + b,
    `layer` being `_layer(A, W, dW, db)`: writes dW = AᵀG and db = ΣG
    over the batch axis (-2), and the input gradient GWᵀ into `out`
    unless W is None."""
    AT, WT, dW, db = layer
    np.matmul(AT, G, out=dW)
    np.add.reduce(G, axis=-2, keepdims=True, out=db)
    if WT is not None:
        np.matmul(G, WT, out=out)


def _relu_back(layer, G, z, relu, out=None):
    """Back-propagate the gradient G of a ReLU layer's output max(z, 0),
    z being the output of the dense layer `layer`: G times the mask z >
    0 (written into `relu`), in place, then `_dense_back`."""
    G *= np.greater(z, 0.0, out=relu)
    _dense_back(layer, G, out)


# an MLP head's arrays in a workspace (`_head`): `model.HeadBuffers`'
# fields, where its forward writes, then its backward's: the hidden
# layer's gradient, its ReLU mask and its two layers' `_layer` operands
_Head = namedtuple("_Head", (*M.HeadBuffers._fields, "dz", "relu", "layer1", "layer2"))


def _head(x, W1, W2, dW1, db1, dW2, db2) -> _Head:
    """The `_Head` of an MLP head on x, (K, B, d): weights W1 (None when
    x takes no gradient) and W2, (K, hidden, n), and gradient views dW1,
    db1, dW2 and db2."""
    lead, (hidden, n) = x.shape[:-1], W2.shape[-2:]
    z, H, dz = (np.empty(lead + (hidden,)) for _ in range(3))
    return _Head(z, H, np.empty(lead + (n,)), np.empty(lead + (1,)), np.empty(lead + (1,)), dz,
                 np.empty(z.shape, bool), _layer(x, W1, dW1, db1), _layer(H, W2, dW2, db2))


def _head_back(head: _Head, out) -> None:
    """Back-propagate an MLP head from the logit gradient in its `probs`:
    its layer 2, then its ReLU layer 1, whose input gradient goes into
    `out` unless layer 1 takes none."""
    _dense_back(head.layer2, head.probs, head.dz)
    _relu_back(head.layer1, head.dz, head.z, head.relu, out)


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


class _Workspace(M.Buffers):
    """Every array a step of the stacked models `params` on a batch of B
    rows writes, and every view it cuts, built once: `train` builds one
    per batch size it uses, and a one-off step one for its batch.

    `inputs` are the batch's input arrays, (B, d) each (X in trunk mode,
    the (shallow, deep) pair in precomputed mode), which the caller fills
    before each step; `grads` has the layout of `params`; `losses[k]` is
    model k's loss, in `LOSS_ORDER`. The forward arrays are `M.Buffers`'
    attributes, so the model's functions write them; each MLP head's
    group (`flat_head`, `coarse_head`) is a `_Head`, which also holds
    its backward's arrays and layers. The rest are the step's label
    gathers, losses and gradients, and the views it reads: Aᵀ, Wᵀ, dW
    and db of each dense layer (`_layer`), the labels' cells of the
    probabilities, and each group's columns of the fine gradient.
    """

    def __init__(self, params: ModelParams, grads: ModelParams, inputs, losses):
        K, B = len(losses), inputs[0].shape[0]
        h = int(losses[0] == "baseline")   # models h: are hierarchical
        trunk = params.mode == M.MODE_TRUNK
        G, S, d1, d2 = params.G, params.S, params.d1, params.d2

        def arrays(n, *shape):
            return [np.empty(shape) for _ in range(n)]

        self.params, self.grads, self.inputs, self.losses = params, grads, inputs, tuple(losses)
        self.B, self.h = B, h
        self.trunk, self.heads, self.vector = trunk, h < K, grads.vector
        # the mean over the batch: x / B, or x * (1 / B) when B is a power
        # of two, one correctly rounded operation on the same exact value
        self.mean = (np.multiply, 1.0 / B) if B & (B - 1) == 0 else (np.divide, B)
        self.out = np.empty((K, B))
        # the label tables' bases (see `_label_tables`)
        self.fine_base, self.coarse_base = _cells(1, B, S)[0], _cells(1, B, G)[0]
        if trunk:
            X, = inputs
            self.X = X
            self.z1, self.A1, self.dA1 = arrays(3, K, B, d1)
            self.z2, self.A2, self.dA2 = arrays(3, K, B, d2)
            self.relu1, self.relu2 = np.empty((K, B, d1), bool), np.empty((K, B, d2), bool)
            self.trunk1 = _layer(X, None, grads.W1, grads.b1)
            self.trunk2 = _layer(self.A1, params.W2, grads.W2, grads.b2)
            A1, A2 = self.A1, self.A2
        else:
            A1, A2 = (np.broadcast_to(a, (K,) + a.shape) for a in inputs)
        # precomputed mode has no trunk, so the heads compute no input
        # gradient (W is None)
        if h:
            p, dp = params.rows(0, 1), grads.rows(0, 1)
            self.flat_params, self.flat_deep = p, A2[:1]
            self.flat_head = _head(self.flat_deep, p.Wl1 if trunk else None, p.Wl2,
                                   dp.Wl1, dp.bl1, dp.Wl2, dp.bl2)
            self.flat_ravel, self.flat_at = self.flat_head.probs.reshape(-1), np.empty(B)
            self.flat_loss = self.out[0]
            self.flat_dA2 = self.dA2[:1] if trunk else None
        if h < K:
            Kh, p, dp = K - h, params.rows(h, K), grads.rows(h, K)
            self.heads_params, self.A1h, self.A2h = p, A1[h:], A2[h:]
            self.coarse_head = _head(self.A1h, p.Wc1 if trunk else None, p.Wc2,
                                     dp.Wc1, dp.bc1, dp.Wc2, dp.bc2)
            self.sums, self.fine_top = arrays(2, Kh, B, G)
            self.fine, self.fine_spread, self.Gf = arrays(3, Kh, B, S)
            self.fine_blocks = M.fine_views(p, self.fine, self.sums)
            self.coarse_ravel = self.coarse_head.probs.reshape(-1)
            self.fine_ravel = self.fine.reshape(-1)
            self.coarse_at, self.fine_at, self.joint_at = arrays(3, Kh, B)
            # a batch's coarse and species label cells on every hierarchical
            # row: its (B,) cells on row 0, plus each row's offset
            self.coarse_cells, self.species_cells = (np.empty((Kh, B), np.intp) for _ in range(2))
            self.coarse_rows, self.species_rows = (_cells(Kh, 1, B * n) for n in (G, S))
            self.heads_loss = self.out[h:]
            self.reads_fine, self.coarse_scale = _hierarchical_rows(tuple(losses[h:]))
            # the fine heads' backward reads the rows sorted by group: Gf
            # and A2_s, and writes dA2_s; group g reads its columns of Gf
            self.A2_s, self.dA2_s = np.empty((Kh, B, d2)), np.empty((Kh, B, d2)) if trunk else None
            self.A2_sT = self.A2_s.swapaxes(-1, -2)
            self.groups = tuple((self.Gf[..., c:d], p.Wf[g].swapaxes(-1, -2) if trunk else None,
                                 dp.Wf[g], dp.bf[g])
                                for g, (c, d) in enumerate(params.taxonomy.spans.tolist()))
            self.dA1h = np.empty((Kh, B, d1)) if trunk else None
            if trunk:
                self.dA1_heads, self.dA2_heads = self.dA1[h:], self.dA2[h:]


def _label_tables(ws: _Workspace, Y1: np.ndarray, Y2: np.ndarray):
    """The label tables of the batches whose coarse and global fine
    labels are the rows of Y1 and Y2, (n, B) each, for `ws` of batch
    size B, built at once; yields per batch (the flat index of each
    row's fine label in a (B, S) array and of its coarse label in a (B,
    G) array, (B,) each, the rows sorted by group, stably, (B,), its
    inverse, and the running row count of groups 0..g, a list of G
    ints)."""
    n, G = Y1.shape[0], ws.params.G
    by_group = np.argsort(Y1, axis=1, kind="stable")
    counts = np.bincount((Y1 + np.arange(0, n * G, G)[:, None]).ravel(), minlength=n * G)
    return zip(Y2 + ws.fine_base, Y1 + ws.coarse_base, by_group, np.argsort(by_group, axis=1),
               counts.reshape(n, G).cumsum(axis=1).tolist())


def _loss_and_grads(ws: _Workspace, table) -> np.ndarray:
    """Mean batch loss of each model of the workspace's stacked `params`,
    as a (K,) array, on the batch in `ws.inputs` whose `_label_tables`
    entry is `table`; writes their gradients into `ws.grads`.

    `grads` starts as zeros (`zeros_like`) and is never refilled: each
    call writes every gradient its losses own and zeroes the fine heads
    of a group with no row in the batch, so the weights no loss of a row
    trains (the baseline's coarse and fine heads, the other rows' flat
    head, precomputed mode's trunk) keep those zeros. A zero probability
    gives an inf loss; the caller silences its divide warning.
    """
    fine_cells, coarse_cells, by_group, from_group, ends = table
    if ws.trunk:
        M.trunk_features(ws.params, ws.X, ws)
    if ws.h:
        M.flat_forward(ws.flat_params, ws.flat_deep, ws)
        at = ws.flat_ravel.take(fine_cells, out=ws.flat_at, mode="clip")
        np.negative(np.log(at, out=ws.flat_loss), out=ws.flat_loss)
        # the probabilities become the logit gradient in place
        at -= 1.0
        ws.flat_ravel[fine_cells] = at
        _head_back(ws.flat_head, ws.flat_dA2)
    if ws.heads:
        M.heads_forward(ws.heads_params, ws.A1h, ws.A2h, ws)
        # scheme1 scores the true species within its group's head, scheme3
        # on the joint simplex, read only at the label: coarse × fine there
        # is the joint `forward` forms. Coarse-logit gradient: the joint
        # term contributes a second (coarse - onehot) for scheme3, since
        # log joint splits into log coarse + log fine
        coarse_cells = np.add(coarse_cells, ws.coarse_rows, out=ws.coarse_cells)
        species_cells = np.add(fine_cells, ws.species_rows, out=ws.species_cells)
        coarse_at = ws.coarse_ravel.take(coarse_cells, out=ws.coarse_at, mode="clip")
        fine_at = ws.fine_ravel.take(species_cells, out=ws.fine_at, mode="clip")
        read = np.multiply(coarse_at, fine_at, out=ws.joint_at)
        np.copyto(read, fine_at, where=ws.reads_fine)
        loss = np.negative(np.log(coarse_at, out=ws.heads_loss), out=ws.heads_loss)
        loss -= np.log(read, out=read)
        coarse_at -= 1.0   # the loss terms are read; the probabilities become gradients
        ws.coarse_ravel[coarse_cells] = coarse_at
        coarse = ws.coarse_head.probs
        coarse *= ws.coarse_scale
        _head_back(ws.coarse_head, ws.dA1h)
        # fine-logit gradient, in place: only the true group's block of a
        # row is nonzero. Rows sorted by group, ascending within a group;
        # group g owns the rows a:b of Gf and its columns spans[g], and
        # writes its input gradient into the rows a:b of dA2_s
        fine_at -= 1.0
        ws.fine_ravel[species_cells] = fine_at
        ws.fine.take(by_group, axis=1, out=ws.Gf, mode="clip")
        ws.A2h.take(by_group, axis=1, out=ws.A2_s, mode="clip")
        a = 0
        for (Gf, WfT, dWf, dbf), b in zip(ws.groups, ends):
            if a == b:   # no row of group g: its heads get no gradient
                dWf.fill(0.0)
                dbf.fill(0.0)
                continue
            rows = Gf[:, a:b]
            np.matmul(ws.A2_sT[..., a:b], rows, out=dWf)
            np.add.reduce(rows, axis=-2, keepdims=True, out=dbf)
            if WfT is not None:
                np.matmul(rows, WfT, out=ws.dA2_s[:, a:b])
            a = b
        if ws.trunk:
            ws.dA2_s.take(from_group, axis=1, out=ws.dA2_heads, mode="clip")

    if ws.trunk:
        _relu_back(ws.trunk2, ws.dA2, ws.z2, ws.relu2, ws.dA1)
        if ws.heads:
            ws.dA1_heads += ws.dA1h
        _relu_back(ws.trunk1, ws.dA1, ws.z1, ws.relu1)

    mean, by = ws.mean
    mean(ws.vector, by, out=ws.vector)
    return mean(np.add.reduce(ws.out, axis=-1), by)   # as `out.mean(axis=-1)`, with less overhead


def _one_off(params: ModelParams, inputs, y1, y2, losses):
    """(workspace, label table) of one step of `params` on one batch, with
    a gradient of zeros of its own."""
    ws = _Workspace(params, params.zeros_like(), inputs, losses)
    return ws, next(_label_tables(ws, y1[None], y2[None]))


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
    ws, table = _one_off(params.tile(1), inputs, y1, y2, (loss_of(scheme),))
    with np.errstate(divide="ignore"):   # a zero probability: an inf loss, not a warning
        _loss_and_grads(ws, table)
    return ws.grads.row(0)


def batch_loss(params: ModelParams, batch: list[LabeledExample],
               scheme: str, taxonomy: Taxonomy) -> float:
    """Mean batch loss only; used by the finite-difference check."""
    inputs, y1, y2 = _batch_arrays(batch, params, taxonomy)
    with np.errstate(divide="ignore"):
        return float(_loss_and_grads(*_one_off(params.tile(1), inputs, y1, y2,
                                               (loss_of(scheme),)))[0])


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


def _step(ws: _Workspace, table):
    """One `_loss_and_grads` step: the (K,) losses, or None if a loss or an
    activation is not finite."""
    try:
        loss = _loss_and_grads(ws, table)
    except NonFiniteActivation:
        return None
    return loss if np.isfinite(loss).all() else None


def _input_fault(initial, batch, rows, where, losses):
    """None if the (inputs, y1, y2) `batch` of the staged rows `rows` has a
    finite loss at the `initial` weights. Otherwise the input is at fault:
    the error names the batch's row with the largest |value|."""
    if _step(*_one_off(initial.tile(len(losses)), *batch, losses)) is not None:
        return None
    peak = np.maximum.reduce([np.abs(X).max(axis=1) for X in batch[0]])
    j = int(np.argmax(peak))
    return NonFiniteInput(f"{where(rows[j])}: input values up to |{peak[j]:g}| give a "
                          "non-finite loss at the network's initial weights; rescale the features")


def _diverged(params, batch, losses, names, epoch):
    """The error for a step whose loss is not finite on the (inputs, y1,
    y2) `batch`: names the first model that fails it on its own, as it
    does in lockstep."""
    for k, loss in enumerate(losses):
        if _step(*_one_off(params.rows(k, k + 1), *batch, (loss,))) is None:
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
        names.setdefault(loss_of(scheme), scheme)
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
    # in-place updates of the (K, P) arrays: no temporaries
    weights, gradient, velocity = params.vector, grads.vector, np.zeros_like(params.vector)
    n, B = y1.shape[0], config.batch_size
    # a workspace for the full batches and one for the ragged last batch,
    # each with the input buffers its steps gather their rows into
    spaces = [(_Workspace(params, grads, [np.empty((size, width)) for width in widths], losses),
               count) for size, count in ((B, n // B), (n % B, 1)) if size and count]
    histories: list[list[float]] = [[] for _ in losses]
    # each step's loss and activations are checked: an overflow is an
    # error, and a zero probability an inf loss, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            rng = np.random.default_rng([config.seed, 1, epoch])
            order = rng.permutation(n)
            loss_sums = [0.0] * len(losses)   # Python floats round as float64 does
            start = 0
            for ws, count in spaces:
                rows = order[start:start + count * ws.B].reshape(count, ws.B)
                start += count * ws.B
                for idx, table in zip(rows, _label_tables(ws, y1[rows], y2[rows])):
                    # mode="clip" (`idx` is in range) lets np.take write into `out` unbuffered
                    for X, buf in zip(matrices, ws.inputs):
                        X.take(idx, axis=0, out=buf, mode="clip")
                    loss = _step(ws, table)
                    if loss is None:
                        # the input is at fault if the batch fails at the initial weights too
                        batch = (ws.inputs, y1[idx], y2[idx])
                        raise (_input_fault(initial, batch, idx, where, losses)
                               or _diverged(params, batch, losses, names, epoch))
                    loss_sums = [s + x * ws.B for s, x in zip(loss_sums, loss.tolist())]
                    velocity *= config.momentum
                    gradient *= config.learning_rate
                    velocity -= gradient
                    weights += velocity
            for history, value in zip(histories, loss_sums):
                history.append(value / n)
    trained = [(params.row(k), history) for k, history in enumerate(histories)]
    if schemes is None:
        return trained[0]
    return {scheme: trained[losses.index(LOSSES[scheme])] for scheme in schemes}
