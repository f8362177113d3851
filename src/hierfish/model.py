"""Multi-head coarse/fine network with confidence-score multiplication.

A small dense trunk produces a shallow feature vector (fed to the coarse
head) and a deep feature vector (shared by all per-group fine heads and
the flat baseline head). The joint score of a species is the product of
its group's coarse probability and its within-group fine probability, so
the joint vector is itself a probability distribution over all species.
The flat head's softmax is one too; `evaluation.flat_heads` sums it per
group for the baseline's coarse scores.

The coarse head and the flat head are the same two-layer softmax head
(`_mlp_head`) on different inputs: shallow features to G groups, deep
features to S species. Its hidden layer and the trunk's two layers are
one dense + ReLU layer (`_dense_relu`).

The fine heads' cost grows with the number of groups, so consecutive
heads of equal size run together: one stacked GEMM and one sum per run,
bit-identical to one per head (see `heads_forward`).

The forward functions take any leading axes: in training, K stacked
models (`ModelParams.tile`); in scoring, n stacked tracks of one length.
numpy runs a stacked matmul as one 2-D GEMM per leading index, and no
step mixes rows, so each model's or track's outputs are bit-identical to
a forward of it alone.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, pairwise
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    MalformedDocument,
    NonFiniteActivation,
    NonFiniteInput,
    TaxonomyMismatch,
    read_json,
)
from .taxonomy import Taxonomy

MODE_TRUNK = "trunk"
MODE_PRECOMPUTED = "precomputed"


DIM_KEYS = ("d_in", "d1", "hidden", "d2")


def weight_shapes(taxonomy: Taxonomy, d_in: int, d1: int, hidden: int, d2: int) -> dict:
    """The parameter table: checkpoint name -> shape of every weight, in
    `ModelParams.vector` order. The trunk (input -> shallow -> deep), the
    coarse head (shallow -> hidden -> G), the flat baseline head (deep ->
    hidden -> S), then the per-group fine heads (deep -> |S_g|): every
    `Wf{g}`, then every `bf{g}`."""
    G, S, sizes = taxonomy.G, taxonomy.S, taxonomy.group_sizes
    shapes = {"W1": (d_in, d1), "b1": (d1,), "W2": (d1, d2), "b2": (d2,),
              "Wc1": (d1, hidden), "bc1": (hidden,), "Wc2": (hidden, G), "bc2": (G,),
              "Wl1": (d2, hidden), "bl1": (hidden,), "Wl2": (hidden, S), "bl2": (S,)}
    shapes.update({f"Wf{g}": (d2, n) for g, n in enumerate(sizes)})
    shapes.update({f"bf{g}": (n,) for g, n in enumerate(sizes)})
    return shapes


# a weight's place in the vector: entries start..start + prod(shape)
Slot = NamedTuple("Slot", [("name", str), ("start", int), ("shape", tuple)])
# the vector's format: every weight's Slot in `weight_shapes` order; the
# names of the `Wf{g}` and of the `bf{g}`; the fine runs, (g, h, a, b,
# Slot of the run's (k, d2, n) matrices) each; the Slot of every `bf{g}`
# back to back, (S,); and the vector's length
Layout = NamedTuple("Layout", [("slots", tuple), ("Wf", tuple), ("bf", tuple),
                               ("fine_runs", tuple), ("fine_bias", Slot), ("size", int)])


@functools.cache   # keyed by the arguments, so the dims are positional: one entry a pair
def weight_layout(taxonomy: Taxonomy, d_in: int, d1: int, hidden: int, d2: int, /) -> Layout:
    """The vector's format for a taxonomy and dims, derived once per pair."""
    shapes = weight_shapes(taxonomy, d_in, d1, hidden, d2)
    starts = list(accumulate(map(math.prod, shapes.values()), initial=0))
    slots = tuple(map(Slot, shapes, starts, shapes.values()))
    G, sizes, spans = taxonomy.G, taxonomy.group_sizes, taxonomy.spans.tolist()
    wf, bf = slots[-2 * G:-G], slots[-G:]   # the table ends with every Wf{g}, then every bf{g}
    # a run's heads g..h-1: its bounds are the running sums of its lengths
    bounds = pairwise(accumulate((len(list(run)) for _, run in groupby(sizes)), initial=0))
    runs = tuple((g, h, spans[g][0], spans[h - 1][1],
                  Slot(f"Wf{g}:{h}", wf[g].start, (h - g, d2, sizes[g]))) for g, h in bounds)
    return Layout(slots, tuple(s.name for s in wf), tuple(s.name for s in bf), runs,
                  Slot("fine_bias", bf[0].start, (taxonomy.S,)), starts[-1])


class ModelParams:
    """Every weight array of a network for `taxonomy` and `dims` (the
    `DIM_KEYS`, each also an attribute) in one contiguous float64 vector.

    A model only cuts views from their `weight_layout`: each weight a
    field, a view into `vector` in `weight_shapes` order, so an optimizer
    can update all of them with whole-vector operations. Every view is
    written into (`p.W1[...] = x`); rebinding one raises AttributeError.
    `Wf` and `bf` are the tuples of the `Wf{g}` and `bf{g}` views, and
    `fine_runs` lists the runs of consecutive fine heads of equal size n
    as (g, h, a, b, W): heads g..h-1, their columns a..b-1 of the S
    (`Taxonomy.spans`), and W, one (k, d2, n) view of their k = h - g
    matrices `Wf{g}` (stacked, (K, k, d2, n)), back to back in `vector`.

    `tile(K)` stacks K models: `vector` is then (K, P), every matrix
    (K, a, b) and every bias (K, 1, n), so the forward functions run all
    K models at once by broadcasting. `rows(a, b)` is a stacked view of
    models a..b-1 and `row(k)` model k alone, both sharing the memory.
    """

    def __init__(self, mode: str, vector: np.ndarray, taxonomy: Taxonomy, dims: dict):
        dims = {key: dims[key] for key in DIM_KEYS}
        layout = weight_layout(taxonomy, *dims.values())
        if vector.shape[-1] != layout.size:
            raise DimensionMismatch(f"{layout.size} weights need a vector of that length, "
                                    f"not {vector.shape[-1]}")
        lead = vector.shape[:-1]

        def view(name, start, shape):
            pad = (1,) * (len(lead) and 2 - len(shape))   # a stacked bias is (K, 1, n)
            return vector[..., start:start + math.prod(shape)].reshape(lead + pad + shape)

        views = {slot.name: view(*slot) for slot in layout.slots}
        self.__dict__.update(views, **dims, G=taxonomy.G, S=taxonomy.S, mode=mode,
                             vector=vector, taxonomy=taxonomy, dims=dims, _views=views,
                             _rows={}, Wf=tuple(map(views.get, layout.Wf)),
                             bf=tuple(map(views.get, layout.bf)), fine_bias=view(*layout.fine_bias),
                             fine_runs=tuple((g, h, a, b, view(*W))
                                             for g, h, a, b, W in layout.fine_runs))

    def __setattr__(self, name, value):
        """A view is written into, never rebound; other attributes are set."""
        if name in self._views or name in ("vector", "Wf", "bf", "fine_bias", "fine_runs"):
            raise AttributeError(f"{name!r} is a view: write into it, as p.{name}[...] = x")
        super().__setattr__(name, value)

    def fields(self):
        """(name, array) of every weight, in `vector` order; used by
        checkpoints and the finite-difference gradient check."""
        return iter(self._views.items())

    def get(self, name: str) -> np.ndarray:
        return self._views[name]

    def _with(self, vector: np.ndarray) -> "ModelParams":
        return ModelParams(self.mode, vector, self.taxonomy, self.dims)

    def copy(self) -> "ModelParams":
        return self._with(self.vector.copy())

    def zeros_like(self) -> "ModelParams":
        return self._with(np.zeros_like(self.vector))

    def tile(self, K: int) -> "ModelParams":
        """K stacked copies of these (unstacked) parameters."""
        return self._with(np.tile(self.vector, (K, 1)))

    def rows(self, a: int, b: int) -> "ModelParams":
        """Stacked view of models a..b-1; built once per (a, b). Every row
        of a stack is the stack itself."""
        if (a, b) == (0, len(self.vector)):
            return self
        if (a, b) not in self._rows:
            self._rows[a, b] = self._with(self.vector[a:b])
        return self._rows[a, b]

    def row(self, k: int) -> "ModelParams":
        """Unstacked view of model k; built once per k."""
        if k not in self._rows:
            self._rows[k] = self._with(self.vector[k])
        return self._rows[k]


class FineLocal(Sequence):
    """Read-only per-group view of a fine array (..., S): item g is group
    g's local distribution `fine[..., a:b]`, (a, b) = `spans[g]`, built
    on access."""

    def __init__(self, fine: np.ndarray, spans: np.ndarray | list[tuple[int, int]]):
        self.fine, self.spans = fine, spans

    def __len__(self) -> int:
        return len(self.spans)

    def __getitem__(self, g: int) -> np.ndarray:
        a, b = self.spans[g]
        return self.fine[..., a:b]


@dataclass
class HeadOutputs:
    """One example's head probabilities; a batch adds a leading axis, a
    stack of batches one more.
    `fine_local` may be given as a list of per-group arrays: it is kept
    as the `FineLocal` of their concatenation."""
    coarse: np.ndarray              # (G,) probability vector
    fine_local: FineLocal           # per group, (|S_g|,) probability vector
    joint: np.ndarray               # (S,) probability vector, group-major

    def __post_init__(self):
        if not isinstance(self.fine_local, FineLocal):
            ends = np.cumsum([np.shape(f)[-1] for f in self.fine_local]).tolist()
            self.fine_local = FineLocal(np.concatenate(self.fine_local, axis=-1),
                                        list(zip([0] + ends[:-1], ends)))

    def __getitem__(self, key) -> "HeadOutputs":
        """Item or slice `key` of the leading axis, as views."""
        fine = self.fine_local
        return HeadOutputs(self.coarse[key], FineLocal(fine.fine[key], fine.spans),
                           self.joint[key])


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# a precomputed-mode model reads no raw input, but still carries (and
# draws from the seed) a first trunk layer of this width
D_IN = 32


def init_params(
    taxonomy: Taxonomy,
    d_in: int = D_IN,
    d1: int = 24,
    hidden: int = 24,
    d2: int = 16,
    seed: int = 0,
    mode: str = MODE_TRUNK,
) -> ModelParams:
    """Seeded uniform-Glorot weights, zero biases."""
    if mode not in (MODE_TRUNK, MODE_PRECOMPUTED):
        raise MalformedDocument(f"unknown mode {mode!r}")
    rng = np.random.default_rng([seed, 0])
    layout = weight_layout(taxonomy, d_in, d1, hidden, d2)
    params = ModelParams(mode, np.zeros(layout.size), taxonomy,
                         dict(d_in=d_in, d1=d1, hidden=hidden, d2=d2))
    # the fine heads draw first, then the other matrices in table order
    matrices = [slot for slot in layout.slots if len(slot.shape) == 2]
    for name, _, shape in sorted(matrices, key=lambda slot: not slot.name.startswith("Wf")):
        params.get(name)[...] = _glorot(rng, *shape)
    return params


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the max to avoid overflow."""
    logits = np.array(logits, dtype=np.float64)   # a copy: `_softmax` writes over it
    if not np.isfinite(logits).all():
        raise NonFiniteInput("non-finite logits")
    return _softmax(logits)


def _softmax(logits: np.ndarray, top=None, total=None) -> np.ndarray:
    """`stable_softmax` of float64 logits that the caller has checked to
    be finite, as the head functions do, written over them; the max and
    the sum go into `top` and `total` if given."""
    if logits.size == 0 or logits.shape[-1] == 0:
        raise EmptyInput("softmax over an empty vector")
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True, out=top)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True, out=total)
    return logits


def joint_scores(coarse: np.ndarray, fine_local: list[np.ndarray]) -> np.ndarray:
    """Product of each group's coarse score with its local fine scores.

    One example or a batch; the concatenated result sums to 1 because
    each local vector does. `forward` forms the same products on
    `heads_forward`'s (B, S) fine array, training only at the labels.
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    if coarse.ndim == 0 or len(fine_local) != coarse.shape[-1]:
        raise DimensionMismatch(
            f"coarse has {coarse.shape} entries but {len(fine_local)} fine heads given"
        )
    return np.concatenate(
        [coarse[..., g:g + 1] * np.asarray(fine_local[g], dtype=np.float64)
         for g in range(coarse.shape[-1])], axis=-1
    )


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteActivation(f"non-finite values in {name}")


# where `_mlp_head` writes, None for a fresh array: the hidden layer's
# pre-activation and output, the logits (then the probabilities), and the
# softmax's max and sum. A training workspace's head group has these
# fields, then its backward's (`training._Head`)
HeadBuffers = namedtuple("HeadBuffers", "z hidden probs top total", defaults=(None,) * 5)


class Buffers:
    """Where the forward functions write: one attribute per array, None
    for a fresh one. Scoring hands them `FRESH`, every attribute None
    and each head's group a `HeadBuffers()`, so each ufunc allocates its
    result and `heads_forward` cuts its views. A training step hands
    them its workspace (`training._Workspace`), whose arrays and views
    are built once and written through `out=`, with the same ufuncs on
    the same operands, so the bytes are the same.

    trunk_features: z1, A1, z2, A2. flat_forward: flat_head, an MLP
    head's group (`HeadBuffers`). heads_forward: coarse_head, another,
    then fine, sums (each head's sum), fine_top (each head's max),
    fine_spread (a per-group value spread over its columns), and
    fine_blocks, `fine_views` of fine and sums, which `heads_forward`
    reads in its place.
    """
    z1 = A1 = z2 = A2 = None
    flat_head = coarse_head = HeadBuffers()
    fine = sums = fine_top = fine_spread = fine_blocks = None


FRESH = Buffers()


def _dense_relu(x: np.ndarray, W: np.ndarray, b: np.ndarray, z=None, out=None):
    """A dense layer and its ReLU: (z, max(z, 0)), z = x @ W + b, written
    into `z` and `out` if given. The trunk's two layers and each MLP
    head's hidden layer."""
    z = np.matmul(x, W, out=z)
    z += b
    return z, np.maximum(z, 0.0, out=out)


def trunk_features(params: ModelParams, X: np.ndarray, ws: Buffers = FRESH):
    """Batched trunk pass. Returns (z1, shallow, z2, deep)."""
    if X.shape[-1] != params.d_in:
        raise DimensionMismatch(
            f"input dim {X.shape[-1]} != model d_in {params.d_in}"
        )
    z1, A1 = _dense_relu(X, params.W1, params.b1, ws.z1, ws.A1)
    z2, A2 = _dense_relu(A1, params.W2, params.b2, ws.z2, ws.A2)
    _check_finite("trunk", z2)
    return z1, A1, z2, A2


def _mlp_head(name: str, x: np.ndarray, W1, b1, W2, b2, bufs: HeadBuffers) -> np.ndarray:
    """A two-layer softmax head on x: dense, ReLU, dense, then the
    softmax of the logits, checked finite first (`name` names the head
    in the error), written into the head's group `bufs`. The coarse head
    (shallow features to G groups) and the flat head (deep features to
    S species)."""
    _, hidden = _dense_relu(x, W1, b1, bufs.z, bufs.hidden)
    logits = np.matmul(hidden, W2, out=bufs.probs)
    logits += b2
    _check_finite(name, logits)
    return _softmax(logits, bufs.top, bufs.total)


def fine_views(params: ModelParams, fine: np.ndarray, sums: np.ndarray):
    """The views `heads_forward` runs the fine heads through, for the
    arrays it fills, fine (..., B, S) and sums (..., B, G); one example
    is a batch of one. Per run of `params.fine_runs`: (W, the run's
    columns of fine as (..., k, B, n), the same as (..., B, k, n), and
    their sums' columns (..., B, k)); the rows of deep as (..., 1, B, d2)
    @ (..., k, d2, n) land in the first."""
    if fine.ndim == 1:
        fine, sums = fine[None], sums[None]
    lead, blocks = fine.shape[:-1], []
    for g, h, a, b, W in params.fine_runs:
        block = fine[..., a:b].reshape(lead + (h - g, W.shape[-1]))
        blocks.append((W, block.swapaxes(-2, -3), block, sums[..., g:h]))
    return tuple(blocks)


def heads_forward(params: ModelParams, shallow: np.ndarray, deep: np.ndarray,
                  ws: Buffers = FRESH):
    """Hierarchical heads. Returns (coarse, fine).

    shallow: (B, d1), deep: (B, d2); probabilities are (B, G) and
    (B, S), where `fine` holds every group's local distribution in its
    columns `params.taxonomy.spans[g]`. Without the batch axis, one
    example; with more leading axes, a stack (module docstring). The
    joint is left to the caller: `forward` forms all of it, training
    only the product at each row's label.

    The fine heads run as one segmented softmax over a single (B, S)
    array. Consecutive heads of equal size form a run
    (`params.fine_runs`): one stacked GEMM per run writes the run's
    column block, then one bias add, one finiteness check, one max per
    group, one subtract/exp/divide, and one `np.add.reduce` per run
    over its block seen as (B, k, n) gives the k heads' sums. numpy
    runs a stacked matmul as the same 2-D GEMM per head, and the
    reduction sums each head's n columns in the same order as a softmax
    over that head alone, so the outputs are bit-identical to per-group
    heads; a GEMM fused across heads of unequal size, or
    `np.add.reduceat`, would not be.
    """
    if shallow.shape[-1] != params.d1 or deep.shape[-1] != params.d2:
        raise DimensionMismatch(
            f"feature dims ({shallow.shape[-1]}, {deep.shape[-1]}) != "
            f"model ({params.d1}, {params.d2})"
        )
    coarse = _mlp_head("coarse head", shallow, params.Wc1, params.bc1, params.Wc2, params.bc2,
                       ws.coarse_head)
    t, fine, sums, blocks = params.taxonomy, ws.fine, ws.sums, ws.fine_blocks
    if fine is None:
        fine, sums = np.empty(deep.shape[:-1] + (params.S,)), np.empty(coarse.shape)
        blocks = fine_views(params, fine, sums)
    rows = (deep if deep.ndim > 1 else deep[None])[..., None, :, :]
    for W, out, _, _ in blocks:
        np.matmul(rows, W, out=out)
    fine += params.fine_bias
    if not np.isfinite(fine).all():
        g = next(g for g, (a, b) in enumerate(t.spans) if not np.isfinite(fine[..., a:b]).all())
        raise NonFiniteActivation(f"non-finite values in fine head {g}")
    top = np.maximum.reduceat(fine, t.starts, axis=-1, out=ws.fine_top)
    fine -= top.take(t.column_group, axis=-1, out=ws.fine_spread, mode="clip")
    np.exp(fine, out=fine)
    for _, _, block, out in blocks:
        np.add.reduce(block, axis=-1, out=out)
    fine /= sums.take(t.column_group, axis=-1, out=ws.fine_spread, mode="clip")
    return coarse, fine


def flat_forward(params: ModelParams, deep: np.ndarray, ws: Buffers = FRESH):
    """Flat baseline head. Returns probs (B, S); (S,) for one example."""
    if deep.shape[-1] != params.d2:
        raise DimensionMismatch(
            f"deep dim {deep.shape[-1]} != model d2 {params.d2}"
        )
    return _mlp_head("flat head", deep, params.Wl1, params.bl1, params.Wl2, params.bl2,
                     ws.flat_head)


def _resolve_features(params: ModelParams, x):
    """Map raw input or a (shallow, deep) pair to trunk outputs per mode."""
    if params.mode == MODE_TRUNK:
        if isinstance(x, tuple):
            raise DimensionMismatch("trunk mode expects raw feature input")
        x = np.asarray(x, dtype=np.float64)
        _, shallow, _, deep = trunk_features(params, x)
    else:
        if not (isinstance(x, tuple) and len(x) == 2):
            raise DimensionMismatch("precomputed mode expects a (shallow, deep) pair")
        shallow = np.asarray(x[0], dtype=np.float64)
        deep = np.asarray(x[1], dtype=np.float64)
    return shallow, deep


def forward(params: ModelParams, x) -> HeadOutputs:
    """Hierarchical forward pass over one example or a batch.

    `x` is raw features, (d_in,) or (B, d_in), in trunk mode, or a
    (shallow, deep) pair of (d1,)/(d2,) vectors or (B, d1)/(B, d2)
    batches in precomputed mode. The outputs keep the batch axis, and
    any axes before it: item j of an (n, T, ·) stack is bit-identical
    to a forward of `x[j]` alone. The joint is formed here, from the
    heads' outputs.
    """
    shallow, deep = _resolve_features(params, x)
    coarse, fine = heads_forward(params, shallow, deep)
    return HeadOutputs(coarse=coarse, fine_local=FineLocal(fine, params.taxonomy.spans),
                       joint=coarse[..., params.taxonomy.column_group] * fine)


def forward_flat(params: ModelParams, x) -> np.ndarray:
    """Flat baseline pass over one example, a batch or a stack (as in
    `forward`); probabilities over all species."""
    _, deep = _resolve_features(params, x)
    return flat_forward(params, deep)


def save_checkpoint(params: ModelParams, path: str) -> None:
    doc = {
        "mode": params.mode,
        "dims": params.dims,
        "taxonomy_digest": params.taxonomy.digest(),
        "weights": {name: arr.tolist() for name, arr in params.fields()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


NUMBER_TYPES = frozenset({int, float})   # the JSON number types; a bool is no number
_LISTS = {1: "flat list of numbers", 2: "list of lists of numbers"}


def number_array(values, key: str, ndim: int = 1) -> np.ndarray:
    """`values`, a JSON list of numbers (ndim 1) or of such lists (ndim 2),
    as a float64 array; anything else is a ValueError naming `key`. The
    one number rule of frame vectors and checkpoint weights."""
    if type(values) is not list or (ndim == 2 and any(type(row) is not list for row in values)):
        raise ValueError(f"{key!r} must be a {_LISTS[ndim]}")
    items = values if ndim == 1 else list(chain.from_iterable(values))
    if not NUMBER_TYPES.issuperset(map(type, items)):
        bad = next(v for v in items if type(v) not in NUMBER_TYPES)
        if type(bad) is list:
            raise ValueError(f"{key!r} must be a {_LISTS[ndim]}")
        raise ValueError(f"could not convert {bad!r} in {key!r} to a number")
    return np.array(values, dtype=np.float64)


def _checkpoint_params(taxonomy: Taxonomy, doc) -> ModelParams:
    """The model a parsed checkpoint holds (`load_checkpoint`); each
    fault's message leaves naming the document to `read_json`."""
    if not isinstance(doc, dict):
        raise MalformedDocument("must hold a JSON object")
    for key in ("taxonomy_digest", "mode", "dims", "weights"):
        if key not in doc:
            raise MalformedDocument(f"no {key!r}")
    if doc["taxonomy_digest"] != taxonomy.digest():
        raise TaxonomyMismatch("trained against a different taxonomy")
    mode, dims, weights = doc["mode"], doc["dims"], doc["weights"]
    if not (isinstance(dims, dict) and sorted(dims) == sorted(DIM_KEYS)
            and all(type(v) is int and v > 0 for v in dims.values())):
        raise MalformedDocument(f"'dims' must map {', '.join(DIM_KEYS)} to positive integers")
    if not isinstance(weights, dict):
        raise MalformedDocument("'weights' must be an object")
    if mode not in (MODE_TRUNK, MODE_PRECOMPUTED):
        raise MalformedDocument(f"unknown mode {mode!r}")
    shapes = weight_shapes(taxonomy, **dims)
    for name in weights:
        if name not in shapes:
            raise MalformedDocument(f"unknown weight {name!r}")
    arrays = {}
    for name, shape in shapes.items():
        if name not in weights:
            raise MalformedDocument(f"no weight {name!r}")
        try:
            arr = number_array(weights[name], name, len(shape))
        except (ValueError, OverflowError) as e:
            raise MalformedDocument(f"weight {name!r}: {e}") from e
        if arr.shape != shape:
            raise MalformedDocument(f"weight {name!r} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise MalformedDocument(f"weight {name!r} has non-finite values")
        arrays[name] = arr
    size = weight_layout(taxonomy, *map(dims.get, DIM_KEYS)).size
    params = ModelParams(mode, np.empty(size), taxonomy, dims)
    for name, arr in arrays.items():
        params.get(name)[...] = arr
    return params


def load_checkpoint(path: str, taxonomy: Taxonomy) -> ModelParams:
    """Read a checkpoint, checking it against the table its dims and the
    taxonomy give (`weight_shapes`): every weight present, of its shape,
    made of JSON numbers and finite, and no name outside the table; then
    write each weight into its view. Nothing is allocated beyond the
    document's own weights and their model, whatever its dims claim."""
    return read_json(path, MalformedDocument, "checkpoint",
                     functools.partial(_checkpoint_params, taxonomy))
