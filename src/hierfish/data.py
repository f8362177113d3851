"""Track/frame dataset model, JSONL persistence, track-level splitting,
and a synthetic long-tail generator.

Each track is a short clip of one individual fish; every frame of a
track carries the same (group, species) label pair. The generator
places a centroid per group, offsets per species, adds a jitter vector
shared by all frames of a track (deformation/occlusion is correlated
within one catch), and independent per-frame noise. Species track
counts follow a Zipf profile over species rank.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTrack,
    InconsistentLabels,
    InfeasibleConfig,
    MalformedRecord,
    SpeciesTooSmall,
)
from .model import MODE_PRECOMPUTED, MODE_TRUNK, number_array
from .taxonomy import Taxonomy


@dataclass
class Frame:
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
    track_id: str
    frames: list[Frame]

    @property
    def group(self) -> str:
        return self.frames[0].group

    @property
    def species(self) -> str:
        return self.frames[0].species

    def __len__(self) -> int:
        return len(self.frames)

    def model_input(self):
        """Every frame's `model_input`, stacked on a leading frame axis:
        (T, d) features, or a (T, d1) / (T, d2) pair."""
        if not self.frames:
            raise EmptyTrack(f"track {self.track_id!r} has no frames")
        if self.frames[0].features is not None:
            return np.stack([fr.features for fr in self.frames])
        return (np.stack([fr.shallow for fr in self.frames]),
                np.stack([fr.deep for fr in self.frames]))


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
            if not (math.isfinite(value) and value >= 0):
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


def _scaled_normal(rng: np.random.Generator, sigma: float, dim: int) -> np.ndarray:
    # per-coordinate std sigma/sqrt(dim) so the vector norm is ~sigma
    return rng.normal(0.0, sigma / math.sqrt(dim), size=dim)


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
    tid = 0
    for s in range(tax.S):
        g, _ = tax.to_local(s)
        centroid = group_means[g] + species_offsets[s]
        gname = tax.groups[g]
        sname = tax.species_name(s)
        for _ in range(counts[s]):
            track_id = f"t{tid:05d}"
            tid += 1
            jitter = _scaled_normal(rng, config.sigma_track, dim)
            T = int(rng.integers(config.frames_min, config.frames_max + 1))
            frames = []
            for k in range(T):
                noise = _scaled_normal(rng, config.sigma_frame, dim)
                frames.append(
                    Frame(
                        track_id=track_id,
                        frame_index=k,
                        group=gname,
                        species=sname,
                        features=centroid + jitter + noise,
                    )
                )
            tracks.append(Track(track_id=track_id, frames=frames))
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


def save_jsonl(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for frame in dataset.frames():
            rec = {
                "track_id": frame.track_id,
                "frame_index": frame.frame_index,
                "group": frame.group,
                "species": frame.species,
            }
            if frame.features is not None:
                rec["features"] = frame.features.tolist()
            else:
                rec["shallow"] = frame.shallow.tolist()
                rec["deep"] = frame.deep.tolist()
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _vector(rec: dict, key: str, frame: Frame, lineno: int) -> np.ndarray:
    vec = number_array(rec[key], key)
    if not np.isfinite(vec).all():
        raise MalformedRecord(
            f"track {frame.track_id!r} frame {frame.frame_index}: "
            f"non-finite values in {key} on line {lineno}"
        )
    return vec


# the JSON type each label field of a frame record must have
_LABEL_TYPES = {"track_id": (str, "a string"), "frame_index": (int, "an integer"),
                "group": (str, "a string"), "species": (str, "a string")}


def load_jsonl(path: str) -> Dataset:
    frames_by_track: dict[str, list[Frame]] = {}   # in first-seen order
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
                frame = Frame(
                    track_id=rec["track_id"],
                    frame_index=rec["frame_index"],
                    group=rec["group"],
                    species=rec["species"],
                )
                if "features" in rec:
                    frame.features = _vector(rec, "features", frame, lineno)
                    rec_mode = MODE_TRUNK
                    rec_dims = (frame.features.shape[0],)
                elif "shallow" in rec and "deep" in rec:
                    frame.shallow = _vector(rec, "shallow", frame, lineno)
                    frame.deep = _vector(rec, "deep", frame, lineno)
                    rec_mode = MODE_PRECOMPUTED
                    rec_dims = (frame.shallow.shape[0], frame.deep.shape[0])
                else:
                    raise MalformedRecord(
                        f"line {lineno}: needs 'features' or 'shallow'+'deep'"
                    )
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise MalformedRecord(f"line {lineno}: {e}") from e
            if mode is None:
                mode, dims = rec_mode, rec_dims
            elif rec_mode != mode or rec_dims != dims:
                raise DimensionMismatch(
                    f"line {lineno}: feature layout {rec_mode}{rec_dims} "
                    f"disagrees with {mode}{dims}"
                )
            tid = frame.track_id
            prev = frames_by_track.get(tid)
            if prev is None:
                prev = frames_by_track[tid] = []
            if prev and (prev[0].group != frame.group or prev[0].species != frame.species):
                raise InconsistentLabels(
                    f"line {lineno}: track {tid!r} frames carry different labels"
                )
            # files list frames in order, so only a frame that does not
            # follow its predecessor needs the scan
            if prev and prev[-1].frame_index >= frame.frame_index and any(
                    fr.frame_index == frame.frame_index for fr in prev):
                raise MalformedRecord(
                    f"line {lineno}: track {tid!r} repeats frame {frame.frame_index}"
                )
            prev.append(frame)
    tracks = [
        Track(track_id=tid, frames=sorted(frames, key=lambda fr: fr.frame_index))
        for tid, frames in frames_by_track.items()
    ]
    return Dataset(tracks=tracks, mode=mode or MODE_TRUNK)


def check_labels(dataset: Dataset, taxonomy: Taxonomy) -> None:
    """Raise if any frame's species does not map to its group."""
    for t in dataset.tracks:
        s = taxonomy.species_index(t.species)
        g = taxonomy.group_of(s)
        if taxonomy.groups[g] != t.group:
            raise InconsistentLabels(
                f"track {t.track_id!r}: species {t.species!r} is not in group {t.group!r}"
            )
