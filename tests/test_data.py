import math

import numpy as np
import pytest

from hierfish import data as D
from hierfish import model as M
from hierfish.errors import (
    DimensionMismatch,
    InconsistentLabels,
    InfeasibleConfig,
    MalformedRecord,
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
        frame = D.Frame(track_id="t0", frame_index=0, group="X", species="x1",
                        features=np.zeros(3))
        ds = D.Dataset(tracks=[D.Track(track_id="t0", frames=[frame])])
        with pytest.raises(SpeciesTooSmall):
            D.split_by_track(ds, 0.8, 0)


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
        frames = [
            D.Frame(track_id="t0", frame_index=0, group="X", species="x1",
                    shallow=np.array([0.1, 0.2]), deep=np.array([0.3])),
        ]
        ds = D.Dataset(tracks=[D.Track(track_id="t0", frames=frames)],
                       mode=M.MODE_PRECOMPUTED)
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

    @pytest.mark.parametrize("fields, match", [
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
    ])
    def test_bad_vector_values(self, tmp_path, fields, match):
        path = tmp_path / "bad.jsonl"
        first = ('"shallow":[0.0],"deep":[0.0]' if "shallow" in fields
                 else '"features":[0.0]')
        path.write_text(
            '{"track_id":"t0","frame_index":0,"group":"X","species":"x1",%s}\n'
            '{"track_id":"t0","frame_index":1,"group":"X","species":"x1",%s}\n'
            % (first, fields)
        )
        with pytest.raises(MalformedRecord, match=match):
            D.load_jsonl(str(path))

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
