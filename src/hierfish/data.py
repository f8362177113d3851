"""Track/frame dataset model, JSONL persistence, track-level splitting,
and a synthetic long-tail generator.

Each track is a short clip of one individual fish; every frame of a
track carries the same (group, species) label pair, and a `Track`
stores its frames' vectors as one block, a row per frame. The
generator places a centroid per group, offsets per species, adds a
jitter vector shared by all frames of a track (deformation/occlusion
is correlated within one catch), and independent per-frame noise.
Species track counts follow a Zipf profile over species rank.

A frames file (JSONL) holds one frame per line. `save_jsonl` spells
each line as `json.dumps` does, printing each track's floats with one
orjson call; `load_jsonl` reads the file in one streaming pass, a
block of lines at a time, each block parsed by one orjson call and
checked as a whole, and can note where each frame's line lies, so that
`copy_lines` (what `hierfish split` writes) copies lines instead of
printing their floats again. A block that any check doubts goes
through a per-line loop, which alone names an error; there json stays
the exact path, for the values and lines where it and orjson differ.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter, lt

import numpy as np
import orjson

from .errors import (
    DimensionMismatch,
    EmptyTrack,
    InconsistentLabels,
    IndexOutOfRange,
    InfeasibleConfig,
    MalformedRecord,
    NonFiniteInput,
    SpeciesTooSmall,
    TaxonomyMismatch,
)
from .model import MODE_PRECOMPUTED, MODE_TRUNK, NUMBER_TYPES, number_array
from .taxonomy import Taxonomy


# the largest |value| a model reads in a feature (`Track.blocks`). An SGD
# step puts a feature into the gradient of each weight it meets, and the
# next forward multiplies that weight by it again, so a step squares a
# feature's scale; the square of a larger value is within 1e9 of
# float64's limit (1.8e308). Such a value either overflows the network or,
# where the untrained network saturates on it, trains silently as a frame
# of zero loss and zero gradient
MAX_FEATURE = 1e150


@dataclass(frozen=True)
class Frame:
    """One frame of a track, as a read-only view: its vectors are rows of
    the track's block, so writing into one writes into the track."""
    track_id: str
    frame_index: int
    group: str
    species: str
    features: np.ndarray | None = None
    shallow: np.ndarray | None = None
    deep: np.ndarray | None = None

    def model_input(self):
        if self.features is not None:
            return self.features
        return (self.shallow, self.deep)


@dataclass
class Track:
    """One clip of one fish, stored as one block: row j holds frame
    `frame_index[j]` (ascending), as `features` (T, d) in trunk mode or
    as `shallow` (T, d1) and `deep` (T, d2) in precomputed mode. Every
    frame carries the track's label pair."""
    track_id: str
    group: str
    species: str
    frame_index: list[int]
    features: np.ndarray | None = None
    shallow: np.ndarray | None = None
    deep: np.ndarray | None = None

    @property
    def frames(self) -> list[Frame]:
        blocks = (self.features, self.shallow, self.deep)
        return [Frame(self.track_id, k, self.group, self.species,
                      *(None if block is None else block[j] for block in blocks))
                for j, k in enumerate(self.frame_index)]

    def __len__(self) -> int:
        return len(self.frame_index)

    def blocks(self, mode: str) -> tuple:
        """`mode`'s vector fields (`VECTOR_FIELDS`) as (T, d > 0) float64
        blocks, uncopied if float64: the block and value rule of training
        and scoring. Every field's shape is checked first; then, field by
        field, every value must be finite and within ±`MAX_FEATURE`, or the
        error names the field's first row that is not."""
        T = len(self.frame_index)
        if not T:
            raise EmptyTrack(f"track {self.track_id!r} has no frames")
        blocks = []
        for attr in VECTOR_FIELDS[mode]:
            if getattr(self, attr) is None:
                raise DimensionMismatch(f"track {self.track_id!r} frame {self.frame_index[0]}: "
                                        f"no {attr} vector, which a {mode!r} dataset needs")
            block = np.asarray(getattr(self, attr), dtype=np.float64)
            if block.ndim != 2 or block.shape[0] != T or not block.shape[1]:
                raise DimensionMismatch(f"track {self.track_id!r} frame {self.frame_index[0]}: "
                                        f"{attr} has shape {block.shape}, expected ({T}, d > 0)")
            blocks.append(block)
        for attr, block in zip(VECTOR_FIELDS[mode], blocks):
            # NaN compares false, so one test refuses a NaN, an inf and a huge value
            if not np.maximum.reduce(np.abs(block), axis=None) <= MAX_FEATURE:
                peaks = np.abs(block).max(axis=1)
                j = int((peaks <= MAX_FEATURE).argmin())
                where = f"track {self.track_id!r} frame {self.frame_index[j]}"
                if not np.isfinite(peaks[j]):
                    raise NonFiniteInput(f"{where}: non-finite values in {attr}")
                raise NonFiniteInput(f"{where}: input values up to |{peaks[j]:g}| exceed "
                                     f"{MAX_FEATURE:g}; rescale the features")
        return tuple(blocks)

    def model_input(self):
        """The `blocks` of the track's own layout: features, or (shallow, deep)."""
        if self.features is not None:
            return self.blocks(MODE_TRUNK)[0]
        return self.blocks(MODE_PRECOMPUTED)


@dataclass
class Dataset:
    tracks: list[Track]
    mode: str = MODE_TRUNK   # raw feature vectors; MODE_PRECOMPUTED: (shallow, deep) pairs

    def frames(self):
        for t in self.tracks:
            yield from t.frames

    @property
    def n_frames(self) -> int:
        return sum(len(t) for t in self.tracks)

    def __len__(self) -> int:
        return len(self.tracks)


# the most feature values `generate` builds (0.8 GB of float64); also keeps
# tracks_total exact in the float64 arithmetic of `species_track_counts`
MAX_GEN_VALUES = 10**8


@dataclass
class GenConfig:
    taxonomy: Taxonomy
    zipf_exponent: float = 1.2
    tracks_total: int = 600
    frames_min: int = 8
    frames_max: int = 24
    sigma_group: float = 2.0
    sigma_species: float = 1.0
    sigma_track: float = 1.0
    sigma_frame: float = 3.0
    dim: int = 32
    seed: int = 0

    def __post_init__(self):
        for key in ("zipf_exponent", "sigma_group", "sigma_species", "sigma_track",
                    "sigma_frame"):
            value = getattr(self, key)
            # the sign test refuses -0.0 too, which numpy takes for a negative scale
            if not (math.isfinite(value) and math.copysign(1.0, value) > 0):
                raise InfeasibleConfig(f"{key} must be finite and >= 0, not {value!r}")
        if self.frames_min < 1 or self.frames_max < self.frames_min:
            raise InfeasibleConfig(f"frames_min={self.frames_min}, frames_max={self.frames_max}: "
                                   "need 1 <= frames_min <= frames_max")
        if self.dim < 1:
            raise InfeasibleConfig(f"dim={self.dim} < 1")
        size = self.tracks_total * self.frames_max * self.dim
        if size > MAX_GEN_VALUES:
            raise InfeasibleConfig(f"tracks_total * frames_max * dim = {size} feature values "
                                   f"exceed {MAX_GEN_VALUES}")


def _scaled_normal(rng: np.random.Generator, sigma: float, *shape: int) -> np.ndarray:
    # per-coordinate std sigma/sqrt(dim) so each vector's norm is ~sigma
    return rng.normal(0.0, sigma / math.sqrt(shape[-1]), size=shape)


def species_track_counts(config: GenConfig) -> np.ndarray:
    """Zipf-profiled per-species track counts; non-increasing in rank,
    every species gets at least 2, total exactly tracks_total."""
    S = config.taxonomy.S
    if config.tracks_total < 2 * S:
        raise InfeasibleConfig(
            f"tracks_total={config.tracks_total} < 2*S={2 * S}"
        )
    ranks = np.arange(1, S + 1, dtype=np.float64)
    weights = ranks ** (-config.zipf_exponent)
    raw = config.tracks_total * weights / weights.sum()
    counts = np.maximum(np.floor(raw).astype(int), 2)
    # fix the total while keeping the profile non-increasing
    while counts.sum() > config.tracks_total:
        mx = counts.max()
        idx = np.nonzero(counts == mx)[0][-1]
        counts[idx] -= 1
    while counts.sum() < config.tracks_total:
        counts[0] += 1
    return counts


def generate(config: GenConfig) -> Dataset:
    """Deterministic synthetic dataset for a fixed seed."""
    tax = config.taxonomy
    counts = species_track_counts(config)
    rng = np.random.default_rng([config.seed, 100])
    dim = config.dim
    group_means = [_scaled_normal(rng, config.sigma_group, dim) for _ in range(tax.G)]
    species_offsets = [_scaled_normal(rng, config.sigma_species, dim) for _ in range(tax.S)]
    tracks: list[Track] = []
    for s in range(tax.S):
        g, _ = tax.to_local(s)
        centroid = group_means[g] + species_offsets[s]
        gname = tax.groups[g]
        sname = tax.species_name(s)
        for _ in range(counts[s]):
            jitter = _scaled_normal(rng, config.sigma_track, dim)
            T = int(rng.integers(config.frames_min, config.frames_max + 1))
            noise = _scaled_normal(rng, config.sigma_frame, T, dim)
            tracks.append(Track(f"t{len(tracks):05d}", gname, sname, list(range(T)),
                                features=centroid + jitter + noise))
    return Dataset(tracks=tracks, mode=MODE_TRUNK)


def split_by_track(
    dataset: Dataset, ratio: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Stratified per-species split at whole-track granularity.

    Every species keeps at least one track on the eval side; no track
    ever contributes frames to both sides.
    """
    if not (0.0 < ratio < 1.0):
        raise InfeasibleConfig(f"split ratio {ratio} not in (0, 1)")
    by_species: dict[str, list[Track]] = {}
    for t in dataset.tracks:
        by_species.setdefault(t.species, []).append(t)
    train: list[Track] = []
    evaln: list[Track] = []
    for species in sorted(by_species):
        tracks = sorted(by_species[species], key=lambda t: t.track_id)
        if len(tracks) < 2:
            raise SpeciesTooSmall(
                f"species {species!r} has {len(tracks)} track(s); need >= 2"
            )
        rng = np.random.default_rng([seed, 200, hash_str(species)])
        order = rng.permutation(len(tracks))
        # cap so at least one track lands on the eval side
        n_train = min(math.ceil(ratio * len(tracks)), len(tracks) - 1)
        for pos, j in enumerate(order):
            (train if pos < n_train else evaln).append(tracks[j])
    train.sort(key=lambda t: t.track_id)
    evaln.sort(key=lambda t: t.track_id)
    return (
        Dataset(tracks=train, mode=dataset.mode),
        Dataset(tracks=evaln, mode=dataset.mode),
    )


def hash_str(s: str) -> int:
    """Stable 32-bit hash (hash() is salted per process)."""
    h = 2166136261
    for ch in s.encode("utf-8"):
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


# the vector fields of a frame record, and the blocks of a track, in each mode
VECTOR_FIELDS = {MODE_TRUNK: ("features",), MODE_PRECOMPUTED: ("shallow", "deep")}


def _json(value) -> str:
    return json.dumps(value, ensure_ascii=False)


# orjson spells a finite float as `repr` does, but for a nonzero |x| below
# REPR_BELOW (`0.00001` for 1e-05) and any |x| from REPR_FROM on (`1e16`
# for 1e+16)
REPR_BELOW, REPR_FROM = 1e-4, 1e16


def _spelled_rows(block: np.ndarray) -> list[bytes]:
    """Each row of `block`, a finite (T, d) float64 array, as the text
    between the brackets of the `repr` of its list: one `orjson.dumps` of
    the block, with json's `", "` separators, but by `repr` for a row
    holding a value that orjson spells otherwise."""
    rows = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
    rows = rows[2:-2].replace(b",", b", ").split(b"], [")
    a = np.abs(block)
    if a.size and not (a.min() >= REPR_BELOW and a.max() < REPR_FROM):
        odd = ((a < REPR_BELOW) & (a != 0)) | (a >= REPR_FROM)
        for j in np.flatnonzero(odd.any(axis=1)).tolist():
            rows[j] = repr(block[j].tolist())[1:-1].encode()
    return rows


def save_jsonl(dataset: Dataset, path: str) -> None:
    """One line per frame, `json.dumps(record, ensure_ascii=False)` of the
    record `load_jsonl` reads: tracks in dataset order, rows in block
    order. A track of finite (T, d) float64 blocks and int frame indices
    is written from one bytes template that encodes its labels once; each
    row is spelled as the `repr` of its list (`_spelled_rows`), which
    spells a finite float as json does. Any other track (one holding NaN,
    which json spells `NaN`, say) is encoded record by record."""
    with open(path, "wb") as f:
        for t in dataset.tracks:
            keys = VECTOR_FIELDS[MODE_TRUNK if t.features is not None else MODE_PRECOMPUTED]
            blocks = [getattr(t, key) for key in keys]
            if (all(block.dtype == np.float64 and block.ndim == 2 and np.isfinite(block).all()
                    for block in blocks) and set(map(type, t.frame_index)) <= {int}):
                # the labels, escaped for the % template: a name may hold a %
                labels = tuple(_json(v).replace("%", "%%")
                               for v in (t.track_id, t.group, t.species))
                template = ('{"track_id": %s, "frame_index": %%d, "group": %s, "species": %s'
                            % labels + "".join(f', "{key}": [%b]' for key in keys) + "}\n")
                rows = zip(t.frame_index, *map(_spelled_rows, blocks))
                f.write(b"".join(map(template.encode().__mod__, rows)))
                continue
            for k, *vectors in zip(t.frame_index, *(block.tolist() for block in blocks)):
                f.write(_json({"track_id": t.track_id, "frame_index": k, "group": t.group,
                               "species": t.species, **dict(zip(keys, vectors))}).encode()
                        + b"\n")


def _finite_numbers(values: list) -> bool:
    """Whether `values` are all JSON numbers (`NUMBER_TYPES`) of finite
    float sum, so each is finite: a sum is finite only if every term is."""
    try:
        return NUMBER_TYPES.issuperset(map(type, values)) and math.isfinite(sum(values, 0.0))
    except OverflowError:   # an int too large for a float
        return False


def _vector(rec: dict, key: str, lineno: int) -> list:
    """`rec[key]` by the one number rule (`number_array`), as a list: a
    non-empty flat list of JSON numbers, all finite. A list that passes
    `_finite_numbers` passes as it is; any other value takes the exact
    path, which raises the rule's own message."""
    vec = rec[key]
    if type(vec) is list and vec and _finite_numbers(vec):
        return vec
    vec = number_array(vec, key)
    if not vec.shape[0]:   # a model input needs at least one value
        raise MalformedRecord(f"line {lineno}: {key!r} is empty")
    if not np.isfinite(vec).all():
        raise MalformedRecord(
            f"track {rec['track_id']!r} frame {rec['frame_index']}: "
            f"non-finite values in {key} on line {lineno}"
        )
    return vec.tolist()


# the JSON type each label field of a frame record must have
_LABEL_TYPES = {"track_id": (str, "a string"), "frame_index": (int, "an integer"),
                "group": (str, "a string"), "species": (str, "a string")}


def _fields(rec, lineno: int) -> tuple[str, list]:
    """The mode and vectors of `rec`, a parsed line, if it is a frame
    record: labels of their JSON types (`_LABEL_TYPES`), then the vector
    fields of one mode, each by `_vector`. Raises MalformedRecord."""
    try:
        for key, (kind, name) in _LABEL_TYPES.items():
            if type(rec[key]) is not kind:   # a bool is no integer
                raise MalformedRecord(
                    f"line {lineno}: {key} must be {name}, not {rec[key]!r}"
                )
        if "features" in rec:
            rec_mode = MODE_TRUNK
        elif "shallow" in rec and "deep" in rec:
            rec_mode = MODE_PRECOMPUTED
        else:
            raise MalformedRecord(
                f"line {lineno}: needs 'features' or 'shallow'+'deep'"
            )
        return rec_mode, [_vector(rec, key, lineno) for key in VECTOR_FIELDS[rec_mode]]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise MalformedRecord(f"line {lineno}: {e}") from e


def _json_record(raw: bytes, lineno: int) -> tuple | None:
    """The exact path: the record on the line `raw` as `json.loads`
    reads its decoded, stripped text, with that text's byte offset in
    `raw` and byte length; None for a blank line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedRecord(f"line {lineno}: not UTF-8: {e}") from e
    line = text.strip()
    if not line:
        return None
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:   # invalid, too deep or too many digits
        raise MalformedRecord(f"line {lineno}: invalid JSON: {e}") from e
    lead = text[:len(text) - len(text.lstrip())]
    return rec, len(lead.encode()), len(line.encode())


# the most `[` and `{` a line orjson parses alone may hold: orjson 3.8.3
# has no nesting limit, and a line nested deep enough overflows the C stack
MAX_ORJSON_BRACKETS = 16
# the most bytes of lines `load_jsonl` parses as one document, a block.
# The document nests at most one deeper than its lines hold bytes, so it
# needs no bracket count: orjson 3.8.3 parsed documents nested 16,001
# deep (a test pins it) and crashed between 48,000 and 56,000 deep on an
# 8 MB stack. A block is read up to the line that passes BLOCK_HINT
# bytes, so lines of up to 4,000 bytes make blocks within the bound
MAX_BLOCK_BYTES = 16_000
BLOCK_HINT = 12_000


def _new_track(group: str, species: str, fields: int, lines: dict | None) -> tuple:
    """A track's entry in `load_jsonl`'s table, with no frames yet."""
    return (group, species, [], tuple(array("d") for _ in range(fields)),
            None if lines is None else array("q"))


def _stored_block(block: list, start: int, keys: tuple, dims: tuple, rows_by_track: dict,
                  shuffled: set, lines: dict | None) -> bool:
    """Store `block`, lines of a frames file from byte `start` on, in
    `load_jsonl`'s table as its per-line loop would, and return True; or
    store nothing and return False, unless every line holds one record
    (`{...}` and a newline), orjson parses them as one document, and the
    block passes every check as a whole. Each record holds exactly the
    `keys`, the label keys and one mode's vector keys, of their JSON
    types (`_LABEL_TYPES`) and vector widths `dims`; its vector entries
    pass `_finite_numbers`. Each track id makes one run of lines, of one
    label pair and ascending frames; a track the table holds has the
    same labels, and frames in order (not in `shuffled`) below them."""
    if not (all(map(bytes.startswith, block, repeat(b"{")))
            and all(map(bytes.endswith, block, repeat(b"}\n")))):
        return False
    try:
        recs = orjson.loads(b"[" + b",".join(block) + b"]")
    except orjson.JSONDecodeError:
        return False
    try:
        # each line starts with `{` and ends with `}`, and a record holds no
        # object, so each line ends a record: as many values as lines
        # means one record a line
        if len(recs) != len(block) or set(map(len, recs)) != {len(keys)}:
            return False
        values = list(zip(*map(itemgetter(*keys), recs)))
        if any(set(map(type, column)) != {kind}
               for column, (kind, _) in zip(values, _LABEL_TYPES.values())):
            return False
        tids, ks, groups, species, *vectors = values
        labels = set(zip(tids, groups, species))
        runs = [(tid, len(list(run))) for tid, run in groupby(tids)]
        if not len(runs) == len(labels) == len(set(tids)):
            return False
        columns = []
        for vecs, width in zip(vectors, dims):
            flat = list(chain.from_iterable(vecs))
            if (set(map(type, vecs)) != {list} or set(map(len, vecs)) != {width}
                    or not _finite_numbers(flat)):
                return False
            columns.append(memoryview(struct.pack(f"{len(flat)}d", *flat)))
    # a value that is no record, a key missing, a vector that is no list
    except (KeyError, TypeError):
        return False
    b = 0
    for tid, n in runs:
        a, b = b, b + n
        frames = ks[a:b]
        track = rows_by_track.get(tid)
        if not all(map(lt, frames, frames[1:])) or track is not None and (
                track[:2] != (groups[a], species[a]) or tid in shuffled
                or track[2][-1] >= frames[0]):
            return False
    if lines is not None:   # each line but its newline
        sizes = list(map(len, block))
        spans = array("q", chain.from_iterable(zip(accumulate(sizes, initial=start),
                                                   map((-1).__add__, sizes))))
    b = 0
    for tid, n in runs:
        a, b = b, b + n
        track = rows_by_track.get(tid)
        if track is None:
            track = rows_by_track[tid] = _new_track(groups[a], species[a], len(dims), lines)
        track[2].extend(ks[a:b])
        for column, values, width in zip(track[3], columns, dims):
            column.frombytes(values[8 * a * width:8 * b * width])
        if lines is not None:
            track[4].extend(spans[2 * a:2 * b])
    return True


def load_jsonl(path: str, lines: dict | None = None) -> Dataset:
    """The frames file at `path`, one streaming pass. Each non-blank line
    is checked, so the first bad line names the error. If `lines` is a
    dict, it receives each track id's lines as an `array('q')` of (byte
    offset, byte length) pairs of the stripped line, one pair per row of
    the track's block, for `copy_lines`.

    The file is read in blocks of lines, each stored as a whole by
    `_stored_block` if it passes every check. A per-line loop reads the
    rest: the first block, which sets the mode and vector widths, a
    block of over `MAX_BLOCK_BYTES`, the first block `_stored_block`
    refuses (it has left it unstored) and every block after that one.
    The loop alone names an error, so the first bad line is named as it
    always was. orjson parses each line there; `_json_record` (json)
    reads a line again, and gives the record or the message, where
    orjson might differ: a line orjson refuses (a blank one, NaN, 1e400,
    a lone surrogate, a BOM), one of over `MAX_ORJSON_BRACKETS`
    brackets, and a record whose checks fail on orjson's values (an int
    outside [-2**63, 2**64) is a float to orjson)."""
    # track id -> (group, species, frame indices, one array of doubles per
    # vector field, rows back to back: no object per frame, and the lines'
    # offset/length pairs), in first-seen order
    rows_by_track: dict[str, tuple] = {}
    shuffled = set()   # the tracks whose frames came out of order
    mode = None
    dims = None
    lineno = end = 0
    # a block refused after its parse (one listing frames out of order,
    # say) is parsed again line by line, so after a refused block the
    # rest of the file goes line by line
    by_block = True
    with open(path, "rb") as f:
        for block in iter(partial(f.readlines, BLOCK_HINT), []):
            nbytes = sum(map(len, block))
            if by_block and mode is not None and nbytes <= MAX_BLOCK_BYTES:
                if _stored_block(block, end, keys, dims, rows_by_track, shuffled, lines):
                    lineno, end = lineno + len(block), end + nbytes
                    continue
                by_block = False
            for raw in block:
                lineno += 1
                start, end = end, end + len(raw)
                fields = span = None
                if raw.count(b"[") + raw.count(b"{") <= MAX_ORJSON_BRACKETS:
                    try:
                        rec = orjson.loads(raw)
                        fields = _fields(rec, lineno)
                    except (orjson.JSONDecodeError, MalformedRecord):
                        pass
                if fields is None:
                    got = _json_record(raw, lineno)
                    if got is None:
                        continue
                    rec, *span = got
                    fields = _fields(rec, lineno)
                rec_mode, vectors = fields
                rec_dims = tuple(map(len, vectors))
                if mode is None:
                    mode, dims = rec_mode, rec_dims
                    packs = [struct.Struct(f"{width}d").pack for width in dims]
                    keys = (*_LABEL_TYPES, *VECTOR_FIELDS[mode])
                elif rec_mode != mode or rec_dims != dims:
                    raise DimensionMismatch(
                        f"line {lineno}: feature layout {rec_mode}{rec_dims} "
                        f"disagrees with {mode}{dims}"
                    )
                tid, k = rec["track_id"], rec["frame_index"]
                track = rows_by_track.get(tid)
                if track is None:
                    track = rows_by_track[tid] = _new_track(rec["group"], rec["species"],
                                                            len(vectors), lines)
                group, species, indices, columns, spans = track
                if group != rec["group"] or species != rec["species"]:
                    raise InconsistentLabels(
                        f"line {lineno}: track {tid!r} frames carry different labels"
                    )
                # files list frames in order, so only a frame that does not
                # follow its predecessor needs the scan
                if indices and indices[-1] >= k:
                    if k in indices:
                        raise MalformedRecord(f"line {lineno}: track {tid!r} repeats frame {k}")
                    shuffled.add(tid)
                indices.append(k)
                for column, pack, vec in zip(columns, packs, vectors):
                    column.frombytes(pack(*vec))
                if spans is not None:
                    # a line orjson read has only JSON blanks around its record
                    lead, size = span or (len(raw) - len(raw.lstrip()), len(raw.strip()))
                    spans.extend((start + lead, size))
    tracks = []
    for tid, (group, species, indices, columns, spans) in rows_by_track.items():
        # each block is a view of its column's buffer, unless the file
        # listed the frames out of order
        blocks = [np.frombuffer(column).reshape(len(indices), width)
                  for column, width in zip(columns, dims)]
        if tid in shuffled:
            order = np.argsort(indices)
            blocks, indices = [block[order] for block in blocks], sorted(indices)
            if spans is not None:
                spans = array("q", np.frombuffer(spans, np.int64).reshape(-1, 2)[order].tobytes())
        if spans is not None:
            lines[tid] = spans
        tracks.append(Track(tid, group, species, indices,
                            **dict(zip(VECTOR_FIELDS[mode], blocks))))
    return Dataset(tracks=tracks, mode=mode or MODE_TRUNK)


def copy_lines(source: str, lines: dict, outputs: dict) -> None:
    """Write each dataset of `outputs` (path -> Dataset of tracks that
    `load_jsonl(source, lines)` read) as its frames' lines of `source`,
    each stripped and ended by a newline: tracks in dataset order, frames
    by index, as `save_jsonl` orders them. So a file `save_jsonl` wrote
    gives the bytes `save_jsonl` writes, and any other keeps each line's
    own JSON text. A track's lines that lie back to back, a newline
    apart, are copied with one read; a track is read at a time. Every
    output goes to a new `.tmp` file beside its path and replaces the
    path once all are written, so `source` may be one of them."""
    made = []
    try:
        with open(source, "rb") as src:
            for path, dataset in outputs.items():
                with open(path + ".tmp", "xb") as out:
                    made.append(path)
                    for t in dataset.tracks:
                        spans = lines[t.track_id]
                        starts, sizes = spans[::2], spans[1::2]
                        if starts == array("q", accumulate(map((1).__add__, sizes[:-1]),
                                                           initial=starts[0])):
                            # back to back, a newline apart: one read
                            src.seek(starts[0])
                            out.write(src.read(starts[-1] + sizes[-1] - starts[0]) + b"\n")
                            continue
                        for j in range(0, len(spans), 2):
                            src.seek(spans[j])
                            out.write(src.read(spans[j + 1]) + b"\n")
        for path in made:
            os.replace(path + ".tmp", path)
    finally:   # a temporary file left by a failure
        for path in made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")


def check_labels(dataset: Dataset, taxonomy: Taxonomy) -> list[tuple[int, int]]:
    """Each track's (group index, global species index); raises if a
    track's species is not in the taxonomy or not in its group."""
    labels = []
    for t in dataset.tracks:
        try:
            s = taxonomy.species_index(t.species)
        except IndexOutOfRange as e:
            raise TaxonomyMismatch(str(e)) from e
        g = taxonomy.group_of(s)
        if taxonomy.groups[g] != t.group:
            raise InconsistentLabels(
                f"track {t.track_id!r}: species {t.species!r} is not in group {t.group!r}"
            )
        labels.append((g, s))
    return labels
