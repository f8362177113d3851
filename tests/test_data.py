import dataclasses
import functools
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierfish import data as D
from hierfish import model as M
from hierfish.errors import (
    DimensionMismatch,
    EmptyTrack,
    HierfishError,
    InconsistentLabels,
    InfeasibleConfig,
    MalformedRecord,
    NonFiniteInput,
    SpeciesTooSmall,
)
from hierfish.taxonomy import Taxonomy, default_taxonomy


class TestTrackCounts:
    def test_zipf_zero_near_uniform(self, toy_taxonomy):
        cfg = D.GenConfig(taxonomy=toy_taxonomy, zipf_exponent=0.0, tracks_total=60)
        counts = D.species_track_counts(cfg)
        assert counts.sum() == 60
        assert counts.max() - counts.min() <= 1

    def test_default_long_tail_shape(self, six31):
        cfg = D.GenConfig(taxonomy=six31)
        counts = D.species_track_counts(cfg)
        assert counts.sum() == cfg.tracks_total
        assert counts.min() >= 2
        assert np.all(np.diff(counts) <= 0)  # non-increasing in rank
        assert counts[0] == counts.max()

    def test_infeasible(self, six31):
        with pytest.raises(InfeasibleConfig):
            D.species_track_counts(D.GenConfig(taxonomy=six31, tracks_total=61))


class TestGenerate:
    def test_label_consistency(self, six31):
        cfg = D.GenConfig(taxonomy=six31, tracks_total=80, frames_min=1,
                          frames_max=3, dim=8)
        ds = D.generate(cfg)
        for track in ds.tracks:
            s = six31.species_index(track.species)
            assert six31.groups[six31.group_of(s)] == track.group
            for fr in track.frames:
                assert fr.species == track.species
                assert fr.group == track.group

    def test_deterministic_jsonl(self, tmp_path, toy_taxonomy):
        cfg = D.GenConfig(taxonomy=toy_taxonomy, tracks_total=20, frames_min=2,
                          frames_max=4, dim=5, seed=3)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        D.save_jsonl(D.generate(cfg), str(p1))
        D.save_jsonl(D.generate(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_coarse_easier_than_fine(self, six31):
        # nearest-group-centroid beats nearest-species-centroid when the
        # group spread exceeds the species spread
        cfg = D.GenConfig(taxonomy=six31, seed=1)
        ds = D.generate(cfg)
        X = np.stack([fr.features for fr in ds.frames()])
        y1 = np.array([six31.group_index(fr.group) for fr in ds.frames()])
        y2 = np.array([six31.species_index(fr.species) for fr in ds.frames()])
        gc = np.stack([X[y1 == g].mean(axis=0) for g in range(six31.G)])
        sc = np.stack([X[y2 == s].mean(axis=0) for s in range(six31.S)])
        gacc = np.mean(np.argmin(
            ((X[:, None, :] - gc[None]) ** 2).sum(-1), axis=1) == y1)
        sacc = np.mean(np.argmin(
            ((X[:, None, :] - sc[None]) ** 2).sum(-1), axis=1) == y2)
        assert gacc > sacc


def _generate_oracle(config):
    """`generate` as a loop that draws each frame's noise on its own;
    [(track id, group, species, [feature vector of each frame])]."""
    tax = config.taxonomy
    counts = D.species_track_counts(config)
    rng = np.random.default_rng([config.seed, 100])

    def draw(sigma):
        return rng.normal(0.0, sigma / math.sqrt(config.dim), size=config.dim)

    group_means = [draw(config.sigma_group) for _ in range(tax.G)]
    species_offsets = [draw(config.sigma_species) for _ in range(tax.S)]
    tracks = []
    for s in range(tax.S):
        g, _ = tax.to_local(s)
        centroid = group_means[g] + species_offsets[s]
        for _ in range(counts[s]):
            jitter = draw(config.sigma_track)
            T = int(rng.integers(config.frames_min, config.frames_max + 1))
            frames = [centroid + jitter + draw(config.sigma_frame) for _ in range(T)]
            tracks.append((f"t{len(tracks):05d}", tax.groups[g], tax.species_name(s), frames))
    return tracks


@pytest.mark.parametrize("seed", [0, 3, 41])
@pytest.mark.parametrize("taxonomy, dims", [
    ("toy_taxonomy", dict(tracks_total=20, frames_min=1, frames_max=5, dim=3)),
    ("six31", dict(tracks_total=90, frames_min=2, frames_max=9, dim=32)),
    (None, dict(tracks_total=4, frames_min=1, frames_max=1, dim=1)),
])
def test_generate_matches_per_frame_oracle(request, seed, taxonomy, dims):
    """One (T, dim) noise draw per track gives the bytes of T draws."""
    tax = (request.getfixturevalue(taxonomy) if taxonomy
           else Taxonomy(groups=("A",), species_by_group=(("a",),)))
    config = D.GenConfig(taxonomy=tax, seed=seed, **dims)
    ds = D.generate(config)
    want = _generate_oracle(config)
    assert len(ds.tracks) == len(want)
    for track, (track_id, group, species, frames) in zip(ds.tracks, want):
        assert (track.track_id, track.group, track.species) == (track_id, group, species)
        assert track.frame_index == list(range(len(frames)))
        assert track.features.dtype == np.float64
        assert track.features.tobytes() == np.stack(frames).tobytes()


class TestTrackBlock:
    def test_model_input_is_the_block(self, toy_taxonomy):
        ds = D.generate(D.GenConfig(taxonomy=toy_taxonomy, tracks_total=12, frames_min=2,
                                    frames_max=4, dim=5))
        for track in ds.tracks:
            assert track.model_input() is track.features
            assert np.shares_memory(track.model_input(), track.features)
        pair = D.Track("t0", "X", "x1", [0, 3], shallow=np.ones((2, 2)), deep=np.ones((2, 1)))
        shallow, deep = pair.model_input()
        assert shallow is pair.shallow and deep is pair.deep

    def test_frames_are_read_only_views(self):
        track = D.Track("t0", "X", "x1", [2, 5], features=np.arange(6.0).reshape(2, 3))
        frames = track.frames
        assert [(fr.track_id, fr.frame_index, fr.group, fr.species) for fr in frames] == \
               [("t0", 2, "X", "x1"), ("t0", 5, "X", "x1")]
        assert frames[1].shallow is None and frames[1].deep is None
        assert np.shares_memory(frames[1].model_input(), track.features)
        frames[1].features[0] = -1.0   # writes into the block
        assert track.features[1].tolist() == [-1.0, 4.0, 5.0]
        for field, value in [("features", np.zeros(3)), ("group", "Y"), ("frame_index", 0)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frames[0], field, value)

    def test_empty_track(self):
        track = D.Track("t0", "X", "x1", [], features=np.empty((0, 3)))
        assert len(track) == 0 and track.frames == []
        with pytest.raises(EmptyTrack):
            track.model_input()


# the cells a draw of `test_value_rule_matches_loop_oracle` sets: not
# finite, beyond the bound, or exactly on it
RULE_CELLS = [np.nan, np.inf, -np.inf, 2e150, -2e150, D.MAX_FEATURE, -D.MAX_FEATURE]


def _value_rule_oracle(track, mode):
    """The message `Track.blocks` must raise for `track`'s values, or None:
    cell by cell, the first row of the first field with a bad value."""
    for attr in D.VECTOR_FIELDS[mode]:
        for k, row in zip(track.frame_index, getattr(track, attr).tolist()):
            where = f"track {track.track_id!r} frame {k}: "
            if not all(math.isfinite(v) for v in row):
                return where + f"non-finite values in {attr}"
            peak = max(abs(v) for v in row)
            if peak > D.MAX_FEATURE:
                return where + f"input values up to |{peak:g}| exceed 1e+150; rescale the features"
    return None


@given(data=st.data(), mode=st.sampled_from([M.MODE_TRUNK, M.MODE_PRECOMPUTED]),
       T=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_value_rule_matches_loop_oracle(data, mode, T):
    """`Track.blocks` refuses a block iff a loop finds a non-finite value
    or one beyond ±MAX_FEATURE, naming the loop's field, first row and
    message, with numpy warnings as errors."""
    blocks = {}
    for attr in D.VECTOR_FIELDS[mode]:
        width = data.draw(st.integers(1, 3), label=f"{attr} width")
        values = data.draw(st.lists(st.floats(-10, 10), min_size=T * width,
                                    max_size=T * width), label=attr)
        block = np.array(values).reshape(T, width)
        cells = st.tuples(st.integers(0, T - 1), st.integers(0, width - 1),
                          st.sampled_from(RULE_CELLS))
        for j, c, value in data.draw(st.lists(cells, max_size=3), label=f"{attr} cells"):
            block[j, c] = value
        blocks[attr] = block
    frame_index = sorted(data.draw(st.sets(st.integers(0, 40), min_size=T, max_size=T)))
    track = D.Track("t7", "X", "x1", frame_index, **blocks)
    want = _value_rule_oracle(track, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            got = track.blocks(mode)
            assert all(b is blocks[attr] for b, attr in zip(got, D.VECTOR_FIELDS[mode]))
        else:
            with pytest.raises(NonFiniteInput) as err:
                track.blocks(mode)
            assert str(err.value) == want


class TestSplit:
    def test_ten_tracks_80_20(self):
        t = Taxonomy(groups=("A",), species_by_group=(("a",),))
        cfg = D.GenConfig(taxonomy=t, tracks_total=10, frames_min=1,
                          frames_max=2, dim=3)
        ds = D.generate(cfg)
        train, evaln = D.split_by_track(ds, 0.8, 0)
        assert len(train) == 8 and len(evaln) == 2

    def test_disjoint_track_ids(self, six31):
        ds = D.generate(D.GenConfig(taxonomy=six31, tracks_total=100,
                                    frames_min=1, frames_max=2, dim=4))
        train, evaln = D.split_by_track(ds, 0.8, 5)
        a = {t.track_id for t in train.tracks}
        b = {t.track_id for t in evaln.tracks}
        assert a & b == set()
        assert len(a) + len(b) == 100

    def test_stratified_counts_match_oracle(self, six31):
        ds = D.generate(D.GenConfig(taxonomy=six31))
        train, evaln = D.split_by_track(ds, 0.8, 7)
        per_species = {}
        for t in ds.tracks:
            per_species[t.species] = per_species.get(t.species, 0) + 1
        # recount oracle: per-species expected train size, capped to keep
        # at least one eval track
        for species, n in per_species.items():
            expect_train = min(math.ceil(0.8 * n), n - 1)
            got = sum(1 for t in train.tracks if t.species == species)
            assert got == expect_train
            assert sum(1 for t in evaln.tracks if t.species == species) >= 1

    def test_two_tracks_keeps_one_for_eval(self):
        t = Taxonomy(groups=("A",), species_by_group=(("a",),))
        ds = D.generate(D.GenConfig(taxonomy=t, tracks_total=2, frames_min=1,
                                    frames_max=1, dim=3))
        train, evaln = D.split_by_track(ds, 0.8, 0)
        assert len(train) == 1 and len(evaln) == 1

    def test_species_too_small(self, tiny_taxonomy):
        ds = D.Dataset(tracks=[D.Track("t0", "X", "x1", [0], features=np.zeros((1, 3)))])
        with pytest.raises(SpeciesTooSmall):
            D.split_by_track(ds, 0.8, 0)


# a bad second line of a frames file: its fields after the labels, and
# the message that names it
BAD_VECTOR_VALUES = [
    ('"features":["a",1.0]', "line 2: could not convert"),
    ('"features":5', "line 2: 'features' must be a flat list"),
    ('"features":[[0.0],[1.0]]', "line 2: 'features' must be a flat list"),
    ('"features":null', "line 2"),
    ('"shallow":[0.1],"deep":{"a":1}', "line 2"),
    ('"features":["1",2.0]', "line 2: could not convert '1' in 'features' to a number"),
    ('"features":[true]', "line 2: could not convert True in 'features' to a number"),
    ('"features":[0.5,false,1]', "line 2: could not convert False in 'features'"),
    ('"shallow":[0.1],"deep":[null]', "line 2: could not convert None in 'deep'"),
    ('"features":[NaN]', "track 't0' frame 1: non-finite values in features on line 2"),
    ('"shallow":[0.1],"deep":[Infinity]',
     "track 't0' frame 1: non-finite values in deep on line 2"),
    ('"features":[0.0],"frame_index":1.7', "line 2: frame_index must be an integer, not 1.7"),
    ('"features":[0.0],"frame_index":"2"', "line 2: frame_index must be an integer, not '2'"),
    ('"features":[0.0],"frame_index":true', "line 2: frame_index must be an integer, not True"),
    ('"features":[1%s,-1%s]' % ("0" * 400, "0" * 400),
     "line 2: int too large to convert to float"),
    # past the int digit limit of Pythons that have one (3.11, 3.10.7)
    ('"features":[1%s]' % ("0" * 5000),
     "line 2: (invalid JSON: Exceeds the limit|int too large to convert to float)"),
]


def _bad_second_line(tmp_path, fields, third="") -> str:
    """A file of one good frame, then one of `fields` (a case of
    `BAD_VECTOR_VALUES`), then `third` (a line template for a good
    vector, if any)."""
    path = tmp_path / "bad.jsonl"
    first = '"shallow":[0.0],"deep":[0.0]' if "shallow" in fields else '"features":[0.0]'
    path.write_text(
        '{"track_id":"t0","frame_index":0,"group":"X","species":"x1",%s}\n'
        '{"track_id":"t0","frame_index":1,"group":"X","species":"x1",%s}\n'
        % (first, fields) + (third % first + "\n" if third else "")
    )
    return str(path)


class TestJsonl:
    def test_round_trip(self, tmp_path, toy_taxonomy):
        cfg = D.GenConfig(taxonomy=toy_taxonomy, tracks_total=15, frames_min=1,
                          frames_max=3, dim=4, seed=2)
        ds = D.generate(cfg)
        path = str(tmp_path / "d.jsonl")
        D.save_jsonl(ds, path)
        loaded = D.load_jsonl(path)
        assert len(loaded) == len(ds)
        assert loaded.mode == ds.mode
        for a, b in zip(ds.tracks, loaded.tracks):
            assert a.track_id == b.track_id
            assert len(a) == len(b)
            for fa, fb in zip(a.frames, b.frames):
                assert (fa.frame_index, fa.group, fa.species) == \
                       (fb.frame_index, fb.group, fb.species)
                assert np.array_equal(fa.features, fb.features)
            assert b.features.dtype == np.float64 and b.features.flags.writeable

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        ds = D.load_jsonl(str(path))
        assert len(ds) == 0

    def test_inconsistent_labels_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"track_id":"t0","frame_index":0,"group":"X","species":"x1","features":[0.0]}\n'
            '{"track_id":"t0","frame_index":1,"group":"X","species":"x2","features":[0.0]}\n'
        )
        with pytest.raises(InconsistentLabels, match="line 2"):
            D.load_jsonl(str(path))

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"track_id":"t0"}\n')
        with pytest.raises(MalformedRecord, match="line 1"):
            D.load_jsonl(str(path))
        path.write_text("not json\n")
        with pytest.raises(MalformedRecord):
            D.load_jsonl(str(path))

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"track_id":"t0","frame_index":0,"group":"X","species":"x1","features":[0.0,1.0]}\n'
            '{"track_id":"t1","frame_index":0,"group":"X","species":"x2","features":[0.0]}\n'
        )
        with pytest.raises(DimensionMismatch):
            D.load_jsonl(str(path))

    def test_precomputed_round_trip(self, tmp_path):
        track = D.Track("t0", "X", "x1", [0], shallow=np.array([[0.1, 0.2]]),
                        deep=np.array([[0.3]]))
        ds = D.Dataset(tracks=[track], mode=M.MODE_PRECOMPUTED)
        path = str(tmp_path / "p.jsonl")
        D.save_jsonl(ds, path)
        loaded = D.load_jsonl(path)
        assert loaded.mode == M.MODE_PRECOMPUTED
        fr = loaded.tracks[0].frames[0]
        assert np.array_equal(fr.shallow, [0.1, 0.2])
        assert np.array_equal(fr.deep, [0.3])

    def test_frames_reordered_by_index(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"track_id":"t0","frame_index":1,"group":"X","species":"x1","features":[0.0]}\n'
            '{"track_id":"t0","frame_index":0,"group":"X","species":"x1","features":[1.0]}\n'
        )
        ds = D.load_jsonl(str(path))
        assert [fr.frame_index for fr in ds.tracks[0].frames] == [0, 1]
        assert ds.tracks[0].frame_index == [0, 1]
        assert ds.tracks[0].features.tolist() == [[1.0], [0.0]]

    @pytest.mark.parametrize("fields, match", BAD_VECTOR_VALUES)
    def test_bad_vector_values(self, tmp_path, fields, match):
        with pytest.raises(MalformedRecord, match=match):
            D.load_jsonl(_bad_second_line(tmp_path, fields))

    @pytest.mark.parametrize("third", [
        '{"track_id":"t0","frame_index":0,"group":"X","species":"x1",%s}',
        '{"track_id":"t0","frame_index":2,"group":"X","species":"x2",%s}',
    ], ids=["repeated-frame", "label-change"])
    @pytest.mark.parametrize("fields, match", BAD_VECTOR_VALUES)
    def test_first_bad_line_wins(self, tmp_path, fields, match, third):
        """A bad vector on line 2 is the error, though line 3 repeats a
        frame or changes the track's labels."""
        with pytest.raises(MalformedRecord, match=match):
            D.load_jsonl(_bad_second_line(tmp_path, fields, third))

    def test_repeated_frame(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"track_id":"t0","frame_index":0,"group":"X","species":"x1","features":[0.0]}\n'
            '{"track_id":"t1","frame_index":0,"group":"X","species":"x1","features":[0.0]}\n'
            '{"track_id":"t0","frame_index":0,"group":"X","species":"x1","features":[1.0]}\n'
        )
        with pytest.raises(MalformedRecord, match="line 3: track 't0' repeats frame 0"):
            D.load_jsonl(str(path))

    def test_unhashable_track_id(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"track_id":["t0"],"frame_index":0,"group":"X","species":"x1","features":[0.0]}\n'
        )
        with pytest.raises(MalformedRecord, match="line 1"):
            D.load_jsonl(str(path))


# JSON values a frame vector may hold, good and bad: floats at the edges
# of float64, ints beyond it, and the non-numbers the rule refuses
VECTOR_ITEMS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e308, 5e-324, 1e16, 1e-5]),
    st.integers(-2**1100, 2**1100),
    st.sampled_from([True, False, None, "1", [1.0], {}]),
)


def _filler(k: int, width: int = 1, pad: int = 0) -> bytes:
    """Frame `k` of track "f", `width` values, `pad` blanks before its `}`."""
    return ('{"track_id": "f", "frame_index": %d, "group": "X", "species": "x1", '
            '"features": %s%s}\n' % (k, json.dumps([0.5] * width), " " * pad)).encode()


def _blocks(path) -> list:
    """The blocks of lines `load_jsonl` reads from the file at `path`."""
    with open(path, "rb") as f:
        return list(iter(functools.partial(f.readlines, D.BLOCK_HINT), []))


def _first_block(width: int = 1, step: int = 1) -> list:
    """Lines of track "f" (frames 0, `step`, 2 `step`, ...) that make the
    first block `load_jsonl` reads."""
    head = []
    while sum(map(len, head)) <= D.BLOCK_HINT:
        head.append(_filler(step * len(head), width))
    return head


# where `_placed` puts a line: alone in its file, or in the second block
PLACES = ("alone", "first", "middle", "last")


def _placed(path, line: str, place: str, width: int = 1) -> tuple[int, int]:
    """Write a frames file to `path` that holds `line` (a text, no newline)
    alone, or after a first block of track "f" (`width` values a frame)
    as the first, a middle or the last line of the second block, with
    frames of "f" after it. Returns the line's number and byte offset."""
    text = (line + "\n").encode()
    head, before = [], []
    if place != "alone":
        head = _first_block(width)
        if place == "middle":
            before = [_filler(len(head), width)]
        elif place == "last":   # lines of exactly BLOCK_HINT bytes, so `line` ends the block
            while sum(map(len, before)) + len(_filler(len(head) + len(before), width)) \
                    <= D.BLOCK_HINT:
                before.append(_filler(len(head) + len(before), width))
            before[-1] = _filler(len(head) + len(before) - 1, width,
                                 D.BLOCK_HINT - sum(map(len, before)))
    after = [_filler(len(head) + len(before) + j, width) for j in range(40)]
    path.write_bytes(b"".join(head + before + [text] + after))
    if place != "alone":
        block = _blocks(path)[1]
        assert text in block and {"first": 0, "middle": 1, "last": len(block) - 1}[place] \
            == block.index(text) and len(block) >= 3
    return len(head) + len(before) + 1, sum(map(len, head + before))


@given(values=st.lists(VECTOR_ITEMS, max_size=6))
@example(values=[1e308, 1e308])          # finite, though their float sum is not
@example(values=[10**400, -10**400])     # beyond float64, though their sum is 0
@example(values=[2**53 + 1, 2**64 + 3])  # rounded to float64 as numpy rounds them
@example(values=[0.5, True])             # a bool, which the other entries sum with
@settings(max_examples=300, deadline=None)
def test_reader_follows_the_number_rule(tmp_path_factory, values):
    """`load_jsonl` keeps a vector exactly when `number_array` does, with
    its values, and refuses any other with the rule's own message: on a
    line alone, and on the first, a middle and the last line of a block."""
    path = tmp_path_factory.getbasetemp() / "vector.jsonl"
    line = json.dumps({"track_id": "t0", "frame_index": 0, "group": "X", "species": "x1",
                       "features": values})
    for place in PLACES:
        lineno, _ = _placed(path, line, place, max(len(values), 1))
        try:
            want = M.number_array(values, "features")
        except (ValueError, OverflowError) as e:
            want = f"line {lineno}: {e}"
        else:
            if not want.size:
                want = f"line {lineno}: 'features' is empty"
            elif not np.isfinite(want).all():
                want = f"track 't0' frame 0: non-finite values in features on line {lineno}"
        try:
            track = next(t for t in D.load_jsonl(str(path)).tracks if t.track_id == "t0")
            got = track.features[0].tobytes()
        except MalformedRecord as e:
            got = str(e)
        assert got == (want if isinstance(want, str) else want.tobytes()), place


def _frame_line(track_id='"t0"', frame_index=0) -> str:
    return ('{"track_id": %s, "frame_index": %s, "group": "X", "species": "x1", '
            '"features": [0.5]}' % (track_id, frame_index))


@pytest.mark.parametrize("text, want", [
    (_frame_line(frame_index=2**64), ("t0", 2**64)),
    (_frame_line(frame_index=-2**63 - 1), ("t0", -2**63 - 1)),
    ("\ufeff" + _frame_line(), "line 1: invalid JSON: Unexpected UTF-8 BOM "
                                "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    (_frame_line(track_id=r'"\ud800"'), ("\ud800", 0)),
    (_frame_line(track_id='"%s"' % ("[" * D.MAX_ORJSON_BRACKETS)),
     ("[" * D.MAX_ORJSON_BRACKETS, 0)),
], ids=["frame-2**64", "frame-below-int64", "bom", "lone-surrogate", "brackets"])
@pytest.mark.parametrize("place", PLACES)
def test_reader_keeps_json_where_orjson_differs(tmp_path, text, want, place):
    """On each line orjson reads otherwise than json (an int beyond its
    range is a float) or refuses, and on one past the bracket guard,
    `load_jsonl` gives json's record, with the line's span, or json's
    message: on a line alone, and on the first, a middle and the last
    line of a block."""
    path = tmp_path / "d.jsonl"
    lineno, offset = _placed(path, text, place)
    lines = {}
    try:
        track = next(t for t in D.load_jsonl(str(path), lines).tracks if t.track_id != "f")
    except MalformedRecord as e:
        got = str(e)
        want = want.replace("line 1: ", f"line {lineno}: ", 1)
    else:
        got = (track.track_id, track.frame_index[0])
        assert track.features.tolist() == [[0.5]]
        assert lines[track.track_id].tolist() == [offset, len(text.encode())]
    assert got == want


def _read(path) -> tuple:
    """What `load_jsonl` reads from `path`: each track's labels, frames,
    vectors and line spans, or its error's type and message."""
    lines = {}
    try:
        dataset = D.load_jsonl(str(path), lines)
    except HierfishError as e:
        return type(e), str(e)
    return dataset.mode, [(t.track_id, t.group, t.species, t.frame_index,
                           [getattr(t, key).tobytes() for key in D.VECTOR_FIELDS[dataset.mode]],
                           lines[t.track_id].tolist()) for t in dataset.tracks]


def _frame(track_id="g", k=0, species="x1", vectors='"features": [0.25]', extra="") -> str:
    return ('{"track_id": "%s", "frame_index": %s, "group": "X", "species": "%s", %s%s}'
            % (track_id, k, species, vectors, extra))


# the lines after a first block of track "f" (frames 0, 2, 4, ...): eight
# frames of track "g", with one edit each, and what the edit makes of them
G = [_frame(k=k) for k in range(8)]
BLOCK_CASES = {
    "clean": (G, None),
    "label-change": (G[:5] + [_frame(k=5, species="x2")] + G[6:],
                     "line L6: track 'g' frames carry different labels"),
    "label-change-across-blocks": (G[:5] + [_frame("f", 1, species="x2")] + G[5:],
                                   "line L6: track 'f' frames carry different labels"),
    "repeated-frame": (G[:5] + [_frame(k=4)] + G[5:], "line L6: track 'g' repeats frame 4"),
    "repeated-frame-across-blocks": (G[:5] + [_frame("f", 0)] + G[5:],
                                     "line L6: track 'f' repeats frame 0"),
    "frames-out-of-order": (G[:4] + [G[5], G[4]] + G[6:], None),
    "frame-before-a-stored-one": (G[:5] + [_frame("f", 1)] + G[5:], None),
    "track-in-two-runs": (G[:3] + [_frame("h")] + G[3:] + [_frame("h", 1)], None),
    "width-change": (G[:5] + [_frame(k=5, vectors='"features": [0.25, 0.5]')] + G[6:],
                     "line L6: feature layout trunk(2,) disagrees with trunk(1,)"),
    "mode-change": (G[:5] + [_frame(k=5, vectors='"shallow": [0.25], "deep": [0.5]')] + G[6:],
                    "line L6: feature layout precomputed(1, 1) disagrees with trunk(1,)"),
    "blank-line": (G[:5] + [""] + G[5:], None),
    "blank-padded-line": (G[:5] + [" " + G[5] + "\t"] + G[6:], None),
    "extra-key": (G[:5] + [_frame(k=5, extra=', "note": [1]')] + G[6:], None),
    "bool": (G[:5] + [_frame(k=5, vectors='"features": [true]')] + G[6:],
             "line L6: could not convert True in 'features' to a number"),
    "string-frame": (G[:5] + [_frame(k='"5"')] + G[6:],
                     "line L6: frame_index must be an integer, not '5'"),
}


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_reads_as_the_per_line_loop(tmp_path, monkeypatch, case, crlf):
    """A second block of lines reads as the per-line loop reads it: the
    same tracks, frames, vectors and line spans, or the same error for
    the first bad line; a clean block is stored as a whole."""
    lines, message = BLOCK_CASES[case]
    head = _first_block(step=2)
    end = b"\r\n" if crlf else b"\n"
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"".join(head).replace(b"\n", end)
                     + b"".join(line.encode() + end for line in lines))
    assert len(_blocks(path)) == 2
    stored = []
    block_path = D._stored_block
    monkeypatch.setattr(D, "_stored_block", lambda *a: stored.append(block_path(*a))
                        or stored[-1])
    got = _read(path)
    if message is not None:
        assert got[1] == message.replace("L6", str(len(head) + 6))
    monkeypatch.setattr(D, "MAX_BLOCK_BYTES", 0)   # every block through the per-line loop
    assert got == _read(path)
    assert stored == [case == "clean" and not crlf]


# labels of any text a file can hold (no lone surrogates, which no UTF-8
# file can), and floats whose spelling is easy to get wrong
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
# (1e-4 and 9999999999999998.0 are the edges of the values orjson spells
# as repr does; their neighbours 9.999999999999999e-05 and 1e16 are not)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 1e16, 1e-5, 5e-324, 1e-310, 1.5e300, 1e-4, -1e-4,
                                    np.nextafter(1e-4, 0), 1e15, 9999999999999998.0]))
NON_FINITE = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def saved_tracks(draw):
    """Tracks of one mode; a track's blocks hold NaN or ±inf only if
    it draws them."""
    keys = D.VECTOR_FIELDS[draw(st.sampled_from([M.MODE_TRUNK, M.MODE_PRECOMPUTED]))]
    tracks = []
    for _ in range(draw(st.integers(1, 3))):
        T = draw(st.integers(1, 3))
        values = NON_FINITE if draw(st.booleans()) else FINITE
        blocks = {key: np.array(draw(st.lists(st.lists(values, min_size=w, max_size=w),
                                              min_size=T, max_size=T)), dtype=np.float64)
                  for key, w in zip(keys, draw(st.lists(st.integers(1, 3), min_size=2,
                                                        max_size=2)))}
        tracks.append(D.Track(draw(NAMES), draw(NAMES), draw(NAMES),
                              draw(st.lists(st.integers(-5, 10**12), min_size=T, max_size=T,
                                            unique=True)), **blocks))
    return D.Dataset(tracks)


def _reference_jsonl(dataset):
    """The frames file as `json.dumps` spells it, record by record."""
    lines = []
    for t in dataset.tracks:
        keys = D.VECTOR_FIELDS[M.MODE_TRUNK if t.features is not None else M.MODE_PRECOMPUTED]
        for j, k in enumerate(t.frame_index):
            rec = {"track_id": t.track_id, "frame_index": k, "group": t.group,
                   "species": t.species, **{key: getattr(t, key)[j].tolist() for key in keys}}
            lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


@given(dataset=saved_tracks())
@example(dataset=D.Dataset([D.Track('Requins 100% "x"', "é%s", "鱼\\n", [3, 0],
                                    features=np.array([[-0.0, 1e16], [5e-324, math.nan]]))]))
@example(dataset=D.Dataset([D.Track("t0", "X", "x1", [0, 1, 2], features=np.array(
    [[1e-4, -1e-4], [np.nextafter(1e-4, 0), 1e15], [9999999999999998.0, -1e16]]))]))
@settings(max_examples=300, deadline=None)
def test_writer_spells_records_as_json(tmp_path_factory, dataset):
    path = tmp_path_factory.getbasetemp() / "saved.jsonl"
    D.save_jsonl(dataset, str(path))
    assert path.read_bytes() == _reference_jsonl(dataset)


def test_a_refused_block_sends_the_rest_of_the_file_down_the_per_line_loop(tmp_path,
                                                                         monkeypatch):
    """A block refused after its parse, here for frames out of order,
    ends the block path: every later block goes line by line, and the
    file reads as the per-line loop reads it."""
    frames = [_filler(k) for k in range(1500)]
    frames[300], frames[301] = frames[301], frames[300]
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"".join(frames))
    blocks = _blocks(path)
    bad = next(j for j, block in enumerate(blocks) if frames[300] in block)
    assert 1 <= bad < len(blocks) - 1 and frames[301] in blocks[bad]
    stored = []
    block_path = D._stored_block
    monkeypatch.setattr(D, "_stored_block", lambda *a: stored.append(block_path(*a))
                        or stored[-1])
    got = _read(path)
    assert got[1][0][3] == list(range(1500))
    # the first block sets the mode
    assert stored == [True] * (bad - 1) + [False]
    monkeypatch.setattr(D, "MAX_BLOCK_BYTES", 0)   # every block through the per-line loop
    assert got == _read(path)


def test_a_deep_record_after_the_first_block_is_an_error(tmp_path):
    """A line nested past any decoder's depth, though it looks like a
    record, is read alone and named, wherever it lies."""
    head = _first_block()
    deep = _frame(vectors='"features": %s%s' % ("[" * 200_000, "]" * 200_000))
    path = tmp_path / "deep.jsonl"
    path.write_bytes(b"".join(head) + deep.encode() + b"\n" + _filler(len(head)))
    with pytest.raises(MalformedRecord, match=f"line {len(head) + 1}: invalid JSON"):
        D.load_jsonl(str(path))


# one document per nesting a block can hold: `[` and `{"a":` as deep as
# MAX_BLOCK_BYTES bytes of lines and the block's own `[` allow, and an
# unclosed `[` run, which orjson refuses
NESTED = {"arrays": 'b"[" * n + b"]" * n', "objects": 'b\'{"a":\' * n + b"1" + b"}" * n',
          "unclosed": 'b"[" * n'}


@pytest.mark.parametrize("doc", NESTED)
def test_orjson_parses_a_block_nested_as_deep_as_its_bound(doc):
    """orjson has no nesting limit: a document nested deep enough
    overflows the C stack. The block bound keeps a block within the depth
    this orjson is checked at, in a subprocess, so that a crash fails
    the test instead of the test process."""
    code = ("import orjson\nn = %d\ntry:\n    orjson.loads(%s)\n"
            "except orjson.JSONDecodeError:\n    pass\n" % (D.MAX_BLOCK_BYTES + 1, NESTED[doc]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
