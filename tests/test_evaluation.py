import csv
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
                             NonFiniteActivation, NonFiniteInput, TaxonomyMismatch)
from hierfish.taxonomy import Taxonomy

from conftest import make_outputs
from test_inference import SPLIT_TAXONOMIES, _split


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
    monkeypatch.setattr(E, "forward_flat", lambda *args: scored.append(args))
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


class TestFlatBaseline:
    def test_only_image_2b(self, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=6)
        ds = _dataset(toy_taxonomy, 16, seed=6)
        report = E.evaluate_flat(params, ds, toy_taxonomy)
        assert set(report.units) == {"image"}
        unit = report.units["image"]
        assert unit.level1_acc is None and unit.level2c_acc is None
        # oracle: recompute by hand
        hits = total = 0
        for track in ds.tracks:
            y2 = toy_taxonomy.species_index(track.species)
            for fr in track.frames:
                hits += int(np.argmax(M.forward_flat(params, fr.model_input()))) == y2
                total += 1
        assert unit.level2b_acc == pytest.approx(100 * hits / total, abs=1e-9)

    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    @pytest.mark.parametrize("taxonomy", SPLIT_TAXONOMIES.values(), ids=SPLIT_TAXONOMIES)
    def test_chunks_score_as_each_track_alone(self, taxonomy, mode, monkeypatch):
        """The batched flat forwards are, byte for byte, `forward_flat` of
        each track alone, and the report is that of those predictions, in
        split order."""
        params, tracks = _split(taxonomy, mode, seed=4)
        scored, stacked_forward = [], I.stacked_forward

        def recorded(fn, params, tracks):
            for idx, probs in stacked_forward(fn, params, tracks):
                scored.extend(zip(idx.tolist(), probs))
                yield idx, probs

        monkeypatch.setattr(E, "stacked_forward", recorded)
        report = E.evaluate_flat(params, D.Dataset(tracks, mode), taxonomy)
        alone = [M.forward_flat(params, t.model_input()) for t in tracks]
        assert sorted(k for k, _ in scored) == list(range(len(tracks)))
        assert len({len(probs) for _, probs in scored}) > 1
        for k, probs in scored:
            assert probs.tobytes() == alone[k].tobytes()
        preds = np.concatenate(alone).argmax(axis=-1)
        truth = np.repeat([taxonomy.species_index(t.species) for t in tracks],
                          [len(t) for t in tracks])
        unit = report.units["image"]
        assert unit.n_units == len(preds)
        assert unit.level2b_acc == float(100.0 * np.mean(preds == truth))
        assert unit.per_species_precision_2b == E._precision(preds, truth,
                                                             taxonomy.species_names)


class TestWriteReport:
    def test_single_unit_one_row(self, tmp_path, toy_taxonomy):
        params = _random_model(toy_taxonomy, seed=6)
        ds = _dataset(toy_taxonomy, 16, seed=6)
        report = E.evaluate_flat(params, ds, toy_taxonomy)
        E.write_table_csv([report], str(tmp_path / "t.csv"))
        with open(tmp_path / "t.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2  # header + one data row

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
            loaded = E.report_from_dict(json.load(f))
        assert loaded == report or E.report_to_dict(loaded) == E.report_to_dict(report)

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

    def test_flat_report_writes_its_one_per_class_csv(self, tmp_path, toy_taxonomy):
        report = E.evaluate_flat(_random_model(toy_taxonomy, seed=6),
                                 _dataset(toy_taxonomy, 16, seed=6), toy_taxonomy)
        E.write_report(report, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["per_species_level2b.csv", "report.json",
                                                "table.csv"]

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
