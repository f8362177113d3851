import csv
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from hierfish import data as D
from hierfish import evaluation as E
from hierfish import inference as I
from hierfish import model as M
from hierfish import training as TR
from hierfish.errors import (DimensionMismatch, EmptyEvalSet, InconsistentLabels,
                             MalformedDocument, NonFiniteActivation, NonFiniteInput,
                             TaxonomyMismatch)
from hierfish.taxonomy import Taxonomy

from conftest import make_outputs
from test_inference import (SPLIT_TAXONOMIES, _best_threshold_oracle, _level2a_oracle,
                            _split, _vote_oracle)


def _dataset(taxonomy, tracks_total, seed=0, dim=6, **kw):
    cfg = D.GenConfig(taxonomy=taxonomy, tracks_total=tracks_total, frames_min=2,
                      frames_max=4, dim=dim, seed=seed, **kw)
    return D.generate(cfg)


def _random_model(taxonomy, seed, dim=6):
    params = M.init_params(taxonomy, d_in=dim, d1=5, hidden=4, d2=4, seed=seed)
    rng = np.random.default_rng(seed)
    for _, arr in params.fields():
        arr += rng.normal(0, 0.5, arr.shape)
    return params


def _oracle_scores(taxonomy, track, y1, y2):
    """Ground-truth one-hot head outputs for every frame of a track."""
    g, i = taxonomy.to_local(y2)
    coarse = np.zeros(taxonomy.G)
    coarse[y1] = 1.0
    fine = [np.zeros(n) for n in taxonomy.group_sizes]
    fine[g][i] = 1.0
    out = make_outputs(coarse, fine)
    return I.TrackScores(frames=[out for _ in track.frames])


def _batch_scorer(score_track):
    """A stand-in for `inference.stacked_forward` built from a per-track
    scorer: each track a batch of its own, in split order."""
    def stacked_forward(fn, params, tracks):
        for k, track in enumerate(tracks):
            yield np.array([k]), score_track(params, track).frames[None]
    return stacked_forward


class TestEvaluate:
    def test_perfect_model_all_100(self, toy_taxonomy, monkeypatch):
        ds = _dataset(toy_taxonomy, 12)

        def fake_score(params, track):
            y1 = toy_taxonomy.group_index(track.group)
            y2 = toy_taxonomy.species_index(track.species)
            return _oracle_scores(toy_taxonomy, track, y1, y2)

        monkeypatch.setattr(I, "stacked_forward", _batch_scorer(fake_score))
        report = E.evaluate(None, ds, toy_taxonomy, tau=0.5)
        for unit in report.units.values():
            assert unit.level1_acc == 100.0
            assert unit.level2a_acc == 100.0
            assert unit.level2b_acc == 100.0
            assert unit.level2c_acc == 100.0
            assert unit.stopped == 0

    def test_uniform_model_tie_breaks_to_zero(self, monkeypatch):
        tax = Taxonomy(groups=("A", "B"), species_by_group=(("a1", "a2"), ("b1", "b2")))
        ds = _dataset(tax, 8)

        def fake_score(params, track):
            out = make_outputs([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
            return I.TrackScores(frames=[out for _ in track.frames])

        monkeypatch.setattr(I, "stacked_forward", _batch_scorer(fake_score))
        report = E.evaluate(None, ds, tax, tau=0.0)
        for unit in report.units.values():
            # every prediction is index 0 by the tie-break rule
            assert unit.level1_acc == pytest.approx(
                100.0 * _frac(ds, tax, unit.unit, lambda y1, y2: y1 == 0))
            assert unit.level2b_acc == pytest.approx(
                100.0 * _frac(ds, tax, unit.unit, lambda y1, y2: y2 == 0))

    def test_matches_enumeration_oracle(self, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=21)
        ds = _dataset(toy_taxonomy, 16, seed=21)
        tau = 0.4
        report = E.evaluate(params, ds, toy_taxonomy, tau)
        # independent brute-force enumeration of every unit's decision
        img = {"l1": [], "2a": [], "2b": [], "2c": []}
        va = {"l1": [], "2a": [], "2b": [], "2c": []}
        for track in ds.tracks:
            y1 = toy_taxonomy.group_index(track.group)
            y2 = toy_taxonomy.species_index(track.species)
            joints, coarses = [], []
            for fr in track.frames:
                out = M.forward(params, fr.model_input())
                joints.append(out.joint)
                coarses.append(out.coarse)
                g = int(np.argmax(out.coarse))
                s2a = toy_taxonomy.to_global(g, int(np.argmax(out.fine_local[g])))
                s2b = int(np.argmax(out.joint))
                img["l1"].append(g == y1)
                img["2a"].append(s2a == y2)
                img["2b"].append(s2b == y2)
                img["2c"].append(
                    (g == y1) if out.joint[s2b] < tau else (s2b == y2))
            p1 = np.mean(coarses, axis=0)
            p2 = np.mean(joints, axis=0)
            g = int(np.argmax(p1))
            start = toy_taxonomy.to_global(g, 0)
            s2a = start + int(np.argmax(p2[start:start + toy_taxonomy.group_sizes[g]]))
            s2b = int(np.argmax(p2))
            va["l1"].append(g == y1)
            va["2a"].append(s2a == y2)
            va["2b"].append(s2b == y2)
            va["2c"].append((g == y1) if p2[s2b] < tau else (s2b == y2))
        for rec, unit in ((img, report.units["image"]), (va, report.units["video_avg"])):
            assert unit.level1_acc == pytest.approx(100 * np.mean(rec["l1"]), abs=1e-9)
            assert unit.level2a_acc == pytest.approx(100 * np.mean(rec["2a"]), abs=1e-9)
            assert unit.level2b_acc == pytest.approx(100 * np.mean(rec["2b"]), abs=1e-9)
            assert unit.level2c_acc == pytest.approx(100 * np.mean(rec["2c"]), abs=1e-9)

    def test_level2a_never_above_level1(self, toy_taxonomy):
        for seed in range(8):
            params = _random_model(toy_taxonomy, seed)
            ds = _dataset(toy_taxonomy, 16, seed=seed)
            report = E.evaluate(params, ds, toy_taxonomy, tau=0.3)
            for unit in report.units.values():
                assert unit.level2a_acc <= unit.level1_acc + 1e-9

    def test_tau_extremes(self, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=2)
        ds = _dataset(toy_taxonomy, 16, seed=2)
        at_zero = E.evaluate(params, ds, toy_taxonomy, tau=0.0)
        above_one = E.evaluate(params, ds, toy_taxonomy, tau=1.0 + 1e-9)
        for unit in at_zero.units.values():
            assert unit.level2c_acc == unit.level2b_acc
            assert unit.stopped == 0
        for unit in above_one.units.values():
            assert unit.level2c_acc == unit.level1_acc
            assert unit.proceeded == 0

    def test_stop_plus_proceed_counts(self, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=3)
        ds = _dataset(toy_taxonomy, 16, seed=3)
        report = E.evaluate(params, ds, toy_taxonomy, tau=0.5)
        assert report.units["image"].stopped + report.units["image"].proceeded == \
            ds.n_frames
        for unit in ("video_avg", "video_vote"):
            u = report.units[unit]
            assert u.stopped + u.proceeded == len(ds.tracks)

    def test_precision_recomposes_micro_accuracy(self, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=4)
        ds = _dataset(toy_taxonomy, 16, seed=4)
        report = E.evaluate(params, ds, toy_taxonomy, tau=0.0)
        unit = report.units["image"]
        # weighted per-species 2B precision must rebuild the overall accuracy
        counts = {}
        for track in ds.tracks:
            for fr in track.frames:
                out = M.forward(params, fr.model_input())
                name = toy_taxonomy.species_name(int(np.argmax(out.joint)))
                counts[name] = counts.get(name, 0) + 1
        total = sum(counts.values())
        acc = sum(unit.per_species_precision_2b[n] * c
                  for n, c in counts.items()) / total
        assert acc == pytest.approx(unit.level2b_acc, abs=1e-9)

    def test_empty_eval_set(self, toy_taxonomy):
        with pytest.raises(EmptyEvalSet):
            E.evaluate(None, D.Dataset(tracks=[]), toy_taxonomy, 0.0)

    @pytest.mark.parametrize("scheme", ["Baseline", "scheme4", ""])
    def test_unknown_scheme_is_refused_before_scoring(self, toy_taxonomy, monkeypatch,
                                                      scheme):
        """The scheme picks the heads, so a typo is `TrainConfig`'s error,
        not a report of heads the checkpoint's loss never trained."""
        scored = []
        monkeypatch.setattr(I, "stacked_forward", lambda *args: scored.append(args))
        with pytest.raises(MalformedDocument) as trained:
            TR.TrainConfig(scheme=scheme)
        with pytest.raises(MalformedDocument) as evaluated:
            E.evaluate(_random_model(toy_taxonomy, seed=5), _dataset(toy_taxonomy, 16, seed=5),
                       toy_taxonomy, 0.0, scheme=scheme)
        assert str(evaluated.value) == str(trained.value) == f"unknown scheme {scheme!r}"
        assert scored == []

    def test_species_outside_taxonomy(self, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=5)
        ds = _dataset(toy_taxonomy, 16, seed=5)
        ds.tracks[3].species = "not-a-species"
        with pytest.raises(TaxonomyMismatch, match="not-a-species"):
            E.evaluate(params, ds, toy_taxonomy, 0.0)
        with pytest.raises(TaxonomyMismatch, match="not-a-species"):
            E.evaluate_flat(params, ds, toy_taxonomy)
        with pytest.raises(TaxonomyMismatch, match="not-a-species"):
            I.search_threshold(params, ds.tracks, toy_taxonomy)


SCORERS = {
    "evaluate": lambda p, ds, tax: E.evaluate(p, ds, tax, 0.0),
    "evaluate_searched": lambda p, ds, tax: E.evaluate(p, ds, tax, None),
    "evaluate_flat": lambda p, ds, tax: E.evaluate_flat(p, ds, tax),
    "search_threshold": lambda p, ds, tax: I.search_threshold(p, ds.tracks, tax),
    "score_split": lambda p, ds, tax: I.score_split(p, ds.tracks, tax),
}
# every scorer, `score_track` over each track of the split too
READERS = {**SCORERS, "score_track": lambda p, ds, tax: [I.score_track(p, t) for t in ds.tracks]}


@pytest.mark.parametrize("scorer", SCORERS)
def test_track_outside_its_species_group_is_refused(toy_taxonomy, monkeypatch, scorer):
    """Scoring keeps training's label rule: a track whose group is a real
    group but not its species' own is refused before any track is scored."""
    params = _random_model(toy_taxonomy, seed=5)
    ds = _dataset(toy_taxonomy, 16, seed=5)
    track = ds.tracks[-1]
    track.group = next(g for g in toy_taxonomy.groups if g != track.group)
    scored = []
    monkeypatch.setattr(I, "stacked_forward", lambda *args: scored.append(args))
    with pytest.raises(InconsistentLabels,
                       match=rf"^track {track.track_id!r}: species {track.species!r} "
                             rf"is not in group {track.group!r}$"):
        SCORERS[scorer](params, ds, toy_taxonomy)
    assert scored == []


@pytest.mark.parametrize("scorer", ["evaluate", "evaluate_searched", "evaluate_flat",
                                    "search_threshold", "score_track"])
def test_overflowing_weights_raise_without_a_warning(toy_taxonomy, scorer):
    """The forward pass's own check reports an overflow; numpy warns of
    none, so a run that turns warnings into errors gets the same error."""
    params = _random_model(toy_taxonomy, seed=5)
    params.W1[0, 0] = params.W2[0, 0] = 1e300
    ds = _dataset(toy_taxonomy, 16, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteActivation, match="^non-finite values in trunk$"):
            READERS[scorer](params, ds, toy_taxonomy)


# a malformed track: its split's mode, the field edited, the edit, and the
# message every reader raises after "track 'tNNNNN' frame K: "
MALFORMED = {
    "row-too-many": (M.MODE_TRUNK, "features", lambda block: np.vstack([block, block[:1]]),
                     "features has shape ({T1}, 6), expected ({T}, d > 0)"),
    "row-short": (M.MODE_TRUNK, "features", lambda block: block[1:],
                  "features has shape ({T0}, 6), expected ({T}, d > 0)"),
    "zero-width": (M.MODE_TRUNK, "features", lambda block: block[:, :0],
                   "features has shape ({T}, 0), expected ({T}, d > 0)"),
    "deep-missing": (M.MODE_PRECOMPUTED, "deep", lambda block: None,
                     "no deep vector, which a 'precomputed' dataset needs"),
    "shallow-missing": (M.MODE_PRECOMPUTED, "shallow", lambda block: None,
                        "no shallow vector, which a 'precomputed' dataset needs"),
}
BLOCK_READERS = {name: READERS[name] for name in ("score_split", "search_threshold", "evaluate",
                                                  "evaluate_flat", "score_track")}


@pytest.mark.parametrize("reader", BLOCK_READERS)
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_block_is_refused_as_train_refuses_it(toy_taxonomy, reader, case):
    """Every scorer reads a track's block through the rule `train` reads
    it through, so it raises `train`'s error type and message."""
    mode, attr, edit, message = MALFORMED[case]
    params, tracks = _split(toy_taxonomy, mode, seed=5, frames_max=4)
    track = next(t for t in tracks[7:] if len(t) > 1)
    T = len(track)
    setattr(track, attr, edit(getattr(track, attr)))
    ds = D.Dataset(tracks, mode)
    with pytest.raises(DimensionMismatch) as trained:
        TR.train(TR.TrainConfig(epochs=1, d1=5, hidden=4, d2=4), ds, toy_taxonomy)
    assert str(trained.value) == (f"track {track.track_id!r} frame {track.frame_index[0]}: "
                                  + message.format(T=T, T0=T - 1, T1=T + 1))
    with pytest.raises(DimensionMismatch) as scored:
        BLOCK_READERS[reader](params, ds, toy_taxonomy)
    assert type(scored.value) is type(trained.value)
    assert str(scored.value) == str(trained.value)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("attr", ["features", "shallow", "deep"])
@pytest.mark.parametrize("value, message", [
    (np.nan, "non-finite values in {attr}"), (np.inf, "non-finite values in {attr}"),
    (1e300, "input values up to |1e+300| exceed 1e+150; rescale the features"),
    (-1e300, "input values up to |1e+300| exceed 1e+150; rescale the features")],
    ids=["nan", "inf", "1e300", "-1e300"])
def test_non_finite_input_is_named_as_train_names_it(toy_taxonomy, reader, attr, value,
                                                      message):
    """A NaN, an inf or a value beyond MAX_FEATURE in a frame is the
    input's fault, not the checkpoint's: every scorer raises `train`'s
    type and message, with numpy warnings as errors, also where the
    network would not carry it to an output (`evaluate_flat` never reads
    `shallow`; a ReLU can zero an inf)."""
    mode = M.MODE_TRUNK if attr == "features" else M.MODE_PRECOMPUTED
    params, tracks = _split(toy_taxonomy, mode, seed=5, frames_max=4)
    track = next(t for t in tracks[7:] if len(t) > 1)
    getattr(track, attr)[1, 2] = value
    ds = D.Dataset(tracks, mode)
    with pytest.raises(NonFiniteInput) as trained:
        TR.train(TR.TrainConfig(epochs=1, d1=5, hidden=4, d2=4), ds, toy_taxonomy)
    assert str(trained.value) == (f"track {track.track_id!r} frame {track.frame_index[1]}: "
                                  + message.format(attr=attr))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput) as scored:
            READERS[reader](params, ds, toy_taxonomy)
    assert type(scored.value) is type(trained.value)
    assert str(scored.value) == str(trained.value)


def _frac(ds, tax, unit, pred):
    hits = total = 0
    for track in ds.tracks:
        y1 = tax.group_index(track.group)
        y2 = tax.species_index(track.species)
        n = len(track.frames) if unit == "image" else 1
        hits += n * bool(pred(y1, y2))
        total += n
    return hits / total


def _flat_oracle(params, tracks, taxonomy):
    """{unit: UnitRows} of the flat baseline, one frame at a time through
    `M.forward_flat`: a frame's coarse scores are its softmax summed per
    group, so Level-1 is their argmax and Level-2A the argmax within the
    winner; video_avg reads the mean softmax, video_vote `_vote_oracle`."""
    spans = [(taxonomy.to_global(g, 0), taxonomy.to_global(g, 0) + n)
             for g, n in enumerate(taxonomy.group_sizes)]
    rows = {unit: [] for unit in I.UNITS}
    for track in tracks:
        y = (taxonomy.group_index(track.group), taxonomy.species_index(track.species))
        frames = []
        for fr in track.frames:
            p = M.forward_flat(params, fr.model_input())
            sums = np.array([p[a:b].sum() for a, b in spans])
            out = M.HeadOutputs(sums, [p[a:b] / c for (a, b), c in zip(spans, sums)], p)
            rows["image"].append((*y, sums.argmax(), _level2a_oracle(out, taxonomy),
                                  p.argmax(), p.max()))
            frames.append(out)
        p1, p2 = (np.mean([getattr(f, key) for f in frames], axis=0) for key in ("coarse", "joint"))
        a, b = spans[p1.argmax()]
        rows["video_avg"].append((*y, p1.argmax(), a + p2[a:b].argmax(), p2.argmax(), p2.max()))
        v = _vote_oracle(I.TrackScores(frames=frames), taxonomy)
        rows["video_vote"].append((*y, v.coarse_selection, v.level2a, v.selection, v.confidence))
    fields = ("y1", "y2", "coarse", "level2a", "fine", "conf")
    return {unit: I.UnitRows(coarse_conf=None, **dict(zip(fields, map(np.array, zip(*r)))))
            for unit, r in rows.items()}


class TestFlatBaseline:
    @pytest.mark.parametrize("taxonomy", SPLIT_TAXONOMIES.values(), ids=SPLIT_TAXONOMIES)
    def test_every_unit_matches_loop_oracle(self, taxonomy):
        """The baseline is scored on every unit, by its flat softmax summed
        per group, at the threshold searched on its own video_avg rows."""
        params, tracks = _split(taxonomy, M.MODE_TRUNK, seed=6, frames_max=6)
        report = E.evaluate_flat(params, D.Dataset(tracks), taxonomy)
        assert report.scheme == "baseline"
        oracle = _flat_oracle(params, tracks, taxonomy)
        # one frame alone may round unlike the frames of its track at once
        tau = _best_threshold_oracle(oracle["video_avg"])
        assert report.tau == pytest.approx(tau, rel=1e-12)
        assert set(report.units) == set(I.UNITS)
        for unit, rows in oracle.items():
            u, stop = report.units[unit], rows.stopped(tau)
            assert u.n_units == len(rows.y1) and u.tau == report.tau
            assert u.level1_acc == pytest.approx(100 * np.mean(rows.coarse == rows.y1), abs=1e-9)
            assert u.level2a_acc == pytest.approx(100 * np.mean(rows.level2a == rows.y2), abs=1e-9)
            assert u.level2b_acc == pytest.approx(100 * np.mean(rows.fine == rows.y2), abs=1e-9)
            assert u.level2c_acc == pytest.approx(100 * np.mean(rows.correct(tau)), abs=1e-9)
            assert (u.stopped, u.proceeded) == (int(stop.sum()), int((~stop).sum()))

    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    @pytest.mark.parametrize("taxonomy", SPLIT_TAXONOMIES.values(), ids=SPLIT_TAXONOMIES)
    def test_chunks_score_as_each_track_alone(self, taxonomy, mode, monkeypatch):
        """The batched flat heads are, byte for byte, `flat_heads` of each
        track alone, their joint scores `forward_flat`'s softmax itself, and
        the image Level-2B is that of the softmax's argmax, in split order."""
        params, tracks = _split(taxonomy, mode, seed=4)
        scored, stacked_forward = [], I.stacked_forward

        def recorded(fn, params, tracks):
            for idx, out in stacked_forward(fn, params, tracks):
                scored.extend((k, out[j]) for j, k in enumerate(idx.tolist()))
                yield idx, out

        monkeypatch.setattr(I, "stacked_forward", recorded)
        report = E.evaluate_flat(params, D.Dataset(tracks, mode), taxonomy)
        alone = [M.forward_flat(params, t.model_input()) for t in tracks]
        assert sorted(k for k, _ in scored) == list(range(len(tracks)))
        assert len({len(out.joint) for _, out in scored}) > 1
        for k, out in scored:
            assert out.joint.tobytes() == alone[k].tobytes()
            heads = E.flat_heads(params, tracks[k].model_input())
            for got, want in ((out.coarse, heads.coarse),
                              (out.fine_local.fine, heads.fine_local.fine)):
                assert got.tobytes() == want.tobytes()
        preds = np.concatenate(alone).argmax(axis=-1)
        truth = np.repeat([taxonomy.species_index(t.species) for t in tracks],
                          [len(t) for t in tracks])
        unit = report.units["image"]
        assert unit.n_units == len(preds)
        assert unit.level2b_acc == float(100.0 * np.mean(preds == truth))
        assert unit.per_species_precision_2b == E._precision(preds, truth,
                                                             taxonomy.species_names)

    def test_flat_heads_marginalise_the_softmax(self, toy_taxonomy):
        """`joint` is the softmax itself, `coarse` its group sums, and each
        group's `fine_local` its columns over their sum."""
        params = _random_model(toy_taxonomy, seed=9)
        x = np.random.default_rng(9).normal(size=(3, 5, params.d_in))
        probs, heads = M.forward_flat(params, x), E.flat_heads(params, x)
        assert heads.joint.tobytes() == probs.tobytes()
        for g, (a, b) in enumerate(toy_taxonomy.spans):
            np.testing.assert_allclose(heads.coarse[..., g], probs[..., a:b].sum(axis=-1),
                                       rtol=1e-14)
            np.testing.assert_allclose(heads.fine_local[g],
                                       probs[..., a:b] / heads.coarse[..., g, None], rtol=0)
            np.testing.assert_allclose(heads.fine_local[g].sum(axis=-1), 1.0, rtol=1e-14)

    def test_group_that_underflows_is_never_selected(self, toy_taxonomy):
        """A group whose softmax columns all round to 0 has NaN local
        scores; it never wins the coarse argmax, so no selection reads them
        and numpy warns of nothing."""
        params = _random_model(toy_taxonomy, seed=6)
        a, b = toy_taxonomy.spans[1]
        params.bl2[a:b] = -1e4
        ds = _dataset(toy_taxonomy, 16, seed=6)
        with np.errstate(invalid="ignore"):
            heads = E.flat_heads(params, ds.tracks[0].model_input())
        assert np.isnan(heads.fine_local[1]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = E.evaluate_flat(params, ds, toy_taxonomy)
        group_a = [toy_taxonomy.species_index(name) for name in toy_taxonomy.species_by_group[0]]
        in_a = np.array([toy_taxonomy.species_index(t.species) in group_a for t in ds.tracks])
        frames_in_a = np.repeat(in_a, [len(t) for t in ds.tracks])
        for unit in report.units.values():
            share = np.mean(frames_in_a if unit.unit == "image" else in_a)
            assert unit.level1_acc == pytest.approx(100 * share, abs=1e-9)
            assert unit.level2a_acc == unit.level2b_acc
            assert not any(unit.per_species_precision_2a[name] is not None
                           for name in toy_taxonomy.species_by_group[1])


class TestWriteReport:
    def test_flat_report_has_three_full_rows(self, tmp_path, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=6)
        ds = _dataset(toy_taxonomy, 16, seed=6)
        report = E.evaluate_flat(params, ds, toy_taxonomy)
        E.write_table_csv([report], str(tmp_path / "t.csv"))
        with open(tmp_path / "t.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 4  # header + three units
        assert [r[:2] for r in rows[1:]] == [["baseline", u]
                                             for u in ("image", "video_vote", "video_avg")]
        assert all(all(cell != "" for cell in row) for row in rows)

    def test_three_schemes_three_units_nine_rows(self, tmp_path, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=7)
        ds = _dataset(toy_taxonomy, 16, seed=7)
        reports = [E.evaluate(params, ds, toy_taxonomy, 0.2, scheme=s)
                   for s in ("scheme1", "scheme2", "scheme3")]
        E.write_table_csv(reports, str(tmp_path / "t.csv"))
        with open(tmp_path / "t.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 10  # header + 3 schemes x 3 units

    def test_json_round_trip(self, tmp_path, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=8)
        ds = _dataset(toy_taxonomy, 16, seed=8)
        report = E.evaluate(params, ds, toy_taxonomy, 0.2)
        E.write_report(report, str(tmp_path))
        with open(tmp_path / "report.json") as f:
            assert json.load(f) == json.loads(json.dumps(E.report_to_dict(report)))

    def test_report_dict_is_asdict(self, toy_taxonomy):
        """`report_to_dict` builds what `dataclasses.asdict` gives, in the
        same key order, and shares no dict with the report."""
        params = _random_model(toy_taxonomy, seed=8)
        report = E.evaluate(params, _dataset(toy_taxonomy, 16, seed=8), toy_taxonomy, 0.2)
        doc = E.report_to_dict(report)
        assert json.dumps(doc) == json.dumps(dataclasses.asdict(report))
        for name, unit in report.units.items():
            for key, value in vars(unit).items():
                if type(value) is dict:
                    assert doc["units"][name][key] is not value, key

    def test_per_class_csvs_written(self, tmp_path, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=8)
        ds = _dataset(toy_taxonomy, 16, seed=8)
        report = E.evaluate(params, ds, toy_taxonomy, 0.2)
        E.write_report(report, str(tmp_path))
        for name in ("per_group_level1.csv", "per_species_level2a.csv",
                     "per_species_level2b.csv", "per_species_stop_rate.csv",
                     "table.csv", "report.json"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "per_species_level2b.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + toy_taxonomy.S

    def test_flat_report_writes_every_per_class_csv(self, tmp_path, toy_taxonomy):
        report = E.evaluate_flat(_random_model(toy_taxonomy, seed=6),
                                 _dataset(toy_taxonomy, 16, seed=6), toy_taxonomy)
        E.write_report(report, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == sorted([*E.PER_CLASS_CSVS, "report.json",
                                                       "table.csv"])

    def test_per_class_cells(self, tmp_path):
        """Precision cells are the report's percentages and stop-rate cells
        its fractions times 100, to one decimal; a class that was never
        predicted, or never seen, is an empty cell."""
        def unit(name, fraction):
            return E.UnitReport(
                unit=name, n_units=6, level1_acc=50.0, level2a_acc=50.0, level2b_acc=50.0,
                level2c_acc=50.0, stopped=2, proceeded=4, tau=0.5,
                per_group_precision_level1={"A": 200 / 3, "B": None},
                per_species_precision_2a={"a1": 12.5, "a2": None, "b1": 100.0},
                per_species_precision_2b={"a1": None, "a2": 87.25, "b1": 100.0},
                per_species_stop_fraction={"a1": fraction, "a2": 0.0, "b1": None})
        fractions = {"image": 1 / 3, "video_avg": 0.5, "video_vote": 0.999}
        report = E.EvalReport(scheme="scheme3", tau=0.5,
                              units={name: unit(name, f) for name, f in fractions.items()})
        E.write_report(report, str(tmp_path))

        def cells(name):
            with open(tmp_path / name, newline="") as f:
                return list(csv.reader(f))
        units = ["image", "video_avg", "video_vote"]
        assert cells("per_group_level1.csv") == [
            ["group"] + units, ["A"] + ["66.7"] * 3, ["B"] + [""] * 3]
        assert cells("per_species_level2a.csv") == [
            ["species"] + units, ["a1"] + ["12.5"] * 3, ["a2"] + [""] * 3,
            ["b1"] + ["100.0"] * 3]
        assert cells("per_species_level2b.csv") == [
            ["species"] + units, ["a1"] + [""] * 3, ["a2"] + ["87.2"] * 3,
            ["b1"] + ["100.0"] * 3]
        assert cells("per_species_stop_rate.csv") == [
            ["species"] + units, ["a1"] + [f"{100 * fractions[u]:.1f}" for u in units],
            ["a2"] + ["0.0"] * 3, ["b1"] + [""] * 3]
        assert cells("per_species_stop_rate.csv")[1][1:] == ["33.3", "50.0", "99.9"]
