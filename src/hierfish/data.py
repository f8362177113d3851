"""Track/frame dataset model, JSONL persistence, track-level splitting,
and a synthetic long-tail generator.

Each track is a short clip of one individual fish; every frame of a
track carries the same (group, species) label pair, and a `Track`
stores its frames' vectors as one block, a row per frame. The
generator places a centroid per group, offsets per species, adds a
jitter vector shared by all frames of a track (deformation/occlusion
is correlated within one catch), and independent per-frame noise.
Species track counts follow a Zipf profile over species rank.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

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
from .model import MODE_PRECOMPUTED, MODE_TRUNK, number_array
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


def save_jsonl(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in dataset.tracks:
            keys = VECTOR_FIELDS[MODE_TRUNK if t.features is not None else MODE_PRECOMPUTED]
            columns = [getattr(t, key).tolist() for key in keys]
            for k, *vectors in zip(t.frame_index, *columns):
                rec = {"track_id": t.track_id, "frame_index": k, "group": t.group,
                       "species": t.species, **dict(zip(keys, vectors))}
                f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _vector(rec: dict, key: str, lineno: int) -> np.ndarray:
    vec = number_array(rec[key], key)
    if not vec.shape[0]:   # a model input needs at least one value
        raise MalformedRecord(f"line {lineno}: {key!r} is empty")
    if not np.isfinite(vec).all():
        raise MalformedRecord(
            f"track {rec['track_id']!r} frame {rec['frame_index']}: "
            f"non-finite values in {key} on line {lineno}"
        )
    return vec


# the JSON type each label field of a frame record must have
_LABEL_TYPES = {"track_id": (str, "a string"), "frame_index": (int, "an integer"),
                "group": (str, "a string"), "species": (str, "a string")}


def load_jsonl(path: str) -> Dataset:
    # track id -> (group, species, frame indices, one array of doubles per vector
    # field, rows back to back: no object per frame), in first-seen order
    rows_by_track: dict[str, tuple] = {}
    mode = None
    dims = None
    # read as bytes and decode line by line, so a line that is not UTF-8
    # is reported with its number
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise MalformedRecord(f"line {lineno}: not UTF-8: {e}") from e
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:   # invalid or nested too deep
                raise MalformedRecord(f"line {lineno}: invalid JSON: {e}") from e
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
                vectors = [_vector(rec, key, lineno) for key in VECTOR_FIELDS[rec_mode]]
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise MalformedRecord(f"line {lineno}: {e}") from e
            rec_dims = tuple(vec.shape[0] for vec in vectors)
            if mode is None:
                mode, dims = rec_mode, rec_dims
            elif rec_mode != mode or rec_dims != dims:
                raise DimensionMismatch(
                    f"line {lineno}: feature layout {rec_mode}{rec_dims} "
                    f"disagrees with {mode}{dims}"
                )
            tid, k = rec["track_id"], rec["frame_index"]
            track = rows_by_track.get(tid)
            if track is None:
                track = rows_by_track[tid] = (rec["group"], rec["species"], [],
                                              tuple(array("d") for _ in vectors))
            group, species, indices, columns = track
            if group != rec["group"] or species != rec["species"]:
                raise InconsistentLabels(
                    f"line {lineno}: track {tid!r} frames carry different labels"
                )
            # files list frames in order, so only a frame that does not
            # follow its predecessor needs the scan
            if indices and indices[-1] >= k and k in indices:
                raise MalformedRecord(f"line {lineno}: track {tid!r} repeats frame {k}")
            indices.append(k)
            for column, vec in zip(columns, vectors):
                column.frombytes(vec.tobytes())
    tracks = []
    for tid, (group, species, indices, columns) in rows_by_track.items():
        # each block is a view of its column's buffer, unless the file
        # listed the frames out of order
        blocks = [np.frombuffer(column).reshape(len(indices), width)
                  for column, width in zip(columns, dims)]
        if indices != sorted(indices):
            order = np.argsort(indices)
            blocks, indices = [block[order] for block in blocks], sorted(indices)
        tracks.append(Track(tid, group, species, indices,
                            **dict(zip(VECTOR_FIELDS[mode], blocks))))
    return Dataset(tracks=tracks, mode=mode or MODE_TRUNK)


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
