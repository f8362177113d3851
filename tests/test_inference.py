import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierfish import data as D
from hierfish import inference as I
from hierfish import model as M
from hierfish.errors import EmptyEvalSet, EmptyTrack, InvalidThreshold, MalformedDocument
from hierfish.model import HeadOutputs
from hierfish.taxonomy import Taxonomy, default_taxonomy

from conftest import make_outputs, random_simplex
from test_model import _sized


class TestSelectImage:
    def test_divergent_2a_2b(self):
        # joint [0.4, 0.3, 0.3]: 2A follows the coarse winner, 2B the product
        tax = Taxonomy(groups=("P", "Q"), species_by_group=(("p1",), ("q1", "q2")))
        out = make_outputs([0.4, 0.6], [[1.0], [0.5, 0.5]])
        sel = I.select_image(out, tax)
        assert sel.coarse_group == 1
        assert sel.level2a == 1  # fine tie in group 1 breaks to local 0 -> global 1
        assert sel.level2b == 0
        assert sel.level2b_confidence == pytest.approx(0.4)

    def test_certain_prediction(self, tiny_taxonomy):
        out = make_outputs([1.0, 0.0], [[1.0, 0.0], [1.0]])
        sel = I.select_image(out, tiny_taxonomy)
        assert sel.level2a == sel.level2b == 0
        assert sel.level2b_confidence == pytest.approx(1.0)

    def test_uniform_tie_breaks_to_lowest_index(self, tiny_taxonomy):
        out = make_outputs([0.5, 0.5], [[0.5, 0.5], [1.0]])
        sel = I.select_image(out, tiny_taxonomy)
        assert sel.coarse_group == 0
        assert sel.level2a == 0
        # joint = [0.25, 0.25, 0.5]; 2B argmax is species 2
        assert sel.level2b == 2


class TestAggregateAvg:
    def test_single_frame_equals_image(self, tiny_taxonomy):
        out = make_outputs([0.3, 0.7], [[0.9, 0.1], [1.0]])
        ts = I.TrackScores(frames=[out])
        agg = I.aggregate_avg(ts, tiny_taxonomy)
        sel = I.select_image(out, tiny_taxonomy)
        assert agg.selection == sel.level2b
        assert agg.confidence == pytest.approx(sel.level2b_confidence)
        assert agg.level2a == sel.level2a
        assert agg.coarse_selection == sel.coarse_group

    def test_two_frame_mean(self, tiny_taxonomy):
        a = make_outputs([0.6, 0.4], [[1.0, 0.0], [1.0]])
        b = make_outputs([0.2, 0.8], [[1.0, 0.0], [1.0]])
        agg = I.aggregate_avg(I.TrackScores(frames=[a, b]), tiny_taxonomy)
        np.testing.assert_allclose(agg.p1, [0.4, 0.6], atol=1e-15)
        np.testing.assert_allclose(agg.p2, [0.4, 0.0, 0.6], atol=1e-15)
        assert agg.selection == 2

    def test_matches_summation_oracle(self, toy_taxonomy):
        rng = np.random.default_rng(5)
        frames = []
        for _ in range(10):
            coarse = random_simplex(rng, toy_taxonomy.G)
            fine = [random_simplex(rng, n) for n in toy_taxonomy.group_sizes]
            frames.append(make_outputs(coarse, fine))
        agg = I.aggregate_avg(I.TrackScores(frames=frames), toy_taxonomy)
        # independent summation oracle
        p1 = [sum(f.coarse[g] for f in frames) / 10 for g in range(toy_taxonomy.G)]
        p2 = [sum(f.joint[s] for f in frames) / 10 for s in range(toy_taxonomy.S)]
        np.testing.assert_allclose(agg.p1, p1, atol=1e-12)
        np.testing.assert_allclose(agg.p2, p2, atol=1e-12)
        assert abs(agg.p1.sum() - 1.0) <= 1e-9
        assert abs(agg.p2.sum() - 1.0) <= 1e-9

    def test_level2a_follows_the_averaged_joint_not_the_averaged_fine(self, tiny_taxonomy):
        # group X wins the averaged coarse [0.6, 0.4]; the averaged joint
        # [0.35, 0.25, 0.4] picks x1 within it, the averaged fine [0.35, 0.65] x2
        a = make_outputs([1.0, 0.0], [[0.7, 0.3], [1.0]])
        b = make_outputs([0.2, 0.8], [[0.0, 1.0], [1.0]])
        agg = I.aggregate_avg(I.TrackScores(frames=[a, b]), tiny_taxonomy)
        assert agg.coarse_selection == 0 and agg.selection == 2
        assert agg.level2a == 0

    @pytest.mark.parametrize("T", [1, 3])
    def test_batch_is_each_track_alone(self, toy_taxonomy, T):
        """A batch of n tracks (n, T, ·) gives each track's fields, bit for
        bit, on a leading (n,) axis."""
        rng = np.random.default_rng(T)
        tracks = [I.TrackScores(frames=[
            make_outputs(random_simplex(rng, toy_taxonomy.G),
                         [random_simplex(rng, n) for n in toy_taxonomy.group_sizes])
            for _ in range(T)]).frames for _ in range(5)]
        batch = HeadOutputs(np.stack([t.coarse for t in tracks]),
                            M.FineLocal(np.stack([t.fine_local.fine for t in tracks]),
                                        tracks[0].fine_local.spans),
                            np.stack([t.joint for t in tracks]))
        got = I.aggregate_avg(I.TrackScores(frames=batch), toy_taxonomy)
        for j, track in enumerate(tracks):
            one = I.aggregate_avg(I.TrackScores(frames=track), toy_taxonomy)
            for f in fields(I.AvgAggregate):
                a, b = getattr(got, f.name)[j], getattr(one, f.name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name

    def test_one_track_builds_no_column_map(self, toy_taxonomy, monkeypatch):
        """A one-track average and an image selection read the taxonomy's
        column -> group map; neither builds one with `np.repeat`."""
        params, track = _track_and_model(toy_taxonomy, M.MODE_TRUNK, 5)
        ts, calls, repeat = I.score_track(params, track), [], np.repeat
        monkeypatch.setattr(np, "repeat",
                            lambda *args, **kw: calls.append(args) or repeat(*args, **kw))
        I.aggregate_avg(ts, toy_taxonomy)
        I.select_image(ts.frames, toy_taxonomy)
        assert calls == []

    def test_empty_track(self, toy_taxonomy):
        with pytest.raises(EmptyTrack):
            I.TrackScores(frames=[])
        params, _ = _track_and_model(toy_taxonomy, M.MODE_TRUNK, 1)
        with pytest.raises(EmptyTrack):
            I.score_track(params, D.Track("t0", "A", "a1", [], features=np.empty((0, 6))))


def _track_and_model(taxonomy, mode, T, seed=17):
    """A perturbed random model and one T-frame track for `mode`."""
    params = M.init_params(taxonomy, d_in=6, d1=5, hidden=4, d2=4, seed=seed, mode=mode)
    rng = np.random.default_rng(seed)
    for _, arr in params.fields():
        arr += rng.normal(0, 0.5, arr.shape)
    rows = [{"features": rng.normal(0, 2, 6)} if mode == M.MODE_TRUNK else
            {"shallow": rng.random(5) * 2, "deep": rng.random(4) * 2} for _ in range(T)]
    blocks = {key: np.stack([row[key] for row in rows]) for key in rows[0]}
    return params, D.Track("t0", "A", "a1", list(range(T)), **blocks)


@pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
@pytest.mark.parametrize("T", [1, 5])
class TestStackedTrack:
    def test_score_track_matches_per_frame_forward(self, toy_taxonomy, mode, T):
        params, track = _track_and_model(toy_taxonomy, mode, T)
        got = I.score_track(params, track).frames
        want = I.TrackScores(
            frames=[M.forward(params, fr.model_input()) for fr in track.frames]).frames
        pairs = [(got.coarse, want.coarse), (got.joint, want.joint),
                 *zip(got.fine_local, want.fine_local)]
        for a, b in pairs:
            assert a.shape == b.shape and a.shape[0] == T
            # one GEMM over the frames may round differently from per-frame
            # products, so values get a tolerance and decisions none
            assert np.array_equal(a.argmax(axis=-1), b.argmax(axis=-1))
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_select_image_on_stack_matches_per_frame(self, toy_taxonomy, mode, T):
        params, track = _track_and_model(toy_taxonomy, mode, T)
        per_frame = [M.forward(params, fr.model_input()) for fr in track.frames]
        stacked = I.select_image(I.TrackScores(frames=per_frame).frames, toy_taxonomy)
        for k, out in enumerate(per_frame):
            one = I.select_image(out, toy_taxonomy)
            for f in fields(I.ImageSelection):
                assert getattr(stacked, f.name)[k] == getattr(one, f.name), f.name


def _frame_with_argmax(tiny_taxonomy, species, conf):
    """HeadOutputs whose joint argmax is `species` with value `conf`."""
    rest = (1.0 - conf) / 2
    joint = [rest, rest, rest]
    joint[species] = conf
    coarse = [joint[0] + joint[1], joint[2]]
    fine = [
        [joint[0] / coarse[0], joint[1] / coarse[0]],
        [1.0],
    ]
    return make_outputs(coarse, fine)


class TestAggregateVote:
    def test_hand_enumeration(self, tiny_taxonomy):
        # votes A, A, B with joint[A] = 0.9, 0.7 on the A-frames
        frames = [
            _frame_with_argmax(tiny_taxonomy, 0, 0.9),
            _frame_with_argmax(tiny_taxonomy, 0, 0.7),
            _frame_with_argmax(tiny_taxonomy, 2, 0.8),
        ]
        agg = I.aggregate_vote(I.TrackScores(frames=frames), tiny_taxonomy)
        assert agg.selection == 0
        assert agg.confidence == pytest.approx(0.8, abs=1e-12)

    def test_single_frame_equals_image(self, tiny_taxonomy):
        out = make_outputs([0.3, 0.7], [[0.9, 0.1], [1.0]])
        agg = I.aggregate_vote(I.TrackScores(frames=[out]), tiny_taxonomy)
        sel = I.select_image(out, tiny_taxonomy)
        assert agg.selection == sel.level2b
        assert agg.confidence == pytest.approx(sel.level2b_confidence)
        assert agg.level2a == sel.level2a
        assert agg.coarse_selection == sel.coarse_group

    def test_unanimous_confidence_matches_avg(self, tiny_taxonomy):
        frames = [
            _frame_with_argmax(tiny_taxonomy, 2, 0.8),
            _frame_with_argmax(tiny_taxonomy, 2, 0.6),
        ]
        ts = I.TrackScores(frames=frames)
        vote = I.aggregate_vote(ts, tiny_taxonomy)
        avg = I.aggregate_avg(ts, tiny_taxonomy)
        assert vote.selection == 2
        assert vote.confidence == pytest.approx(avg.p2[2], abs=1e-12)

    def test_tie_prefers_higher_confidence(self, tiny_taxonomy):
        frames = [
            _frame_with_argmax(tiny_taxonomy, 0, 0.6),
            _frame_with_argmax(tiny_taxonomy, 2, 0.9),
        ]
        agg = I.aggregate_vote(I.TrackScores(frames=frames), tiny_taxonomy)
        assert agg.selection == 2

    def test_order_invariance(self, toy_taxonomy):
        rng = np.random.default_rng(9)
        frames = []
        for _ in range(7):
            coarse = random_simplex(rng, toy_taxonomy.G)
            fine = [random_simplex(rng, n) for n in toy_taxonomy.group_sizes]
            frames.append(make_outputs(coarse, fine))
        base = I.aggregate_vote(I.TrackScores(frames=frames), toy_taxonomy)
        for _ in range(5):
            perm = rng.permutation(len(frames))
            shuffled = I.aggregate_vote(
                I.TrackScores(frames=[frames[k] for k in perm]), toy_taxonomy)
            assert shuffled.selection == base.selection
            assert shuffled.confidence == pytest.approx(base.confidence, abs=1e-12)
            assert shuffled.coarse_selection == base.coarse_selection


class TestDecide:
    def test_tau_zero_always_fine(self):
        pred = I.decide(0.0, np.array([0.9, 0.1]), 3, 0.0)
        assert pred.level == "fine" and pred.label == 3

    def test_tau_above_one_always_coarse(self):
        pred = I.decide(1.0, np.array([0.1, 0.9]), 3, 1.0 + 1e-9)
        assert pred.level == "coarse" and pred.label == 1
        assert pred.confidence == pytest.approx(0.9)

    def test_rule_application(self):
        coarse = np.zeros(4)
        coarse[2] = 0.9
        pred = I.decide(0.3, coarse, 7, 0.5)
        assert pred.level == "coarse"
        assert pred.label == 2
        assert pred.confidence == pytest.approx(0.9)

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            I.decide(0.5, np.array([1.0]), 0, -0.1)
        with pytest.raises(InvalidThreshold):
            I.decide(0.5, np.array([1.0]), 0, float("nan"))


def _toy_eval_setup(taxonomy, n_tracks=20, seed=13):
    cfg = D.GenConfig(taxonomy=taxonomy, tracks_total=max(n_tracks, 2 * taxonomy.S),
                      frames_min=2, frames_max=5, dim=6, seed=seed,
                      sigma_frame=2.0)
    ds = D.generate(cfg)
    params = M.init_params(taxonomy, d_in=6, d1=5, hidden=4, d2=4, seed=seed)
    rng = np.random.default_rng(seed)
    for _, arr in params.fields():
        arr += rng.normal(0, 0.5, arr.shape)
    return params, ds.tracks[:n_tracks]


def _rows(n, fine_right):
    """`n` hand-built rows of rising confidence, every group right and
    every fine pick right, or every fine pick wrong."""
    rows = I.UnitRows.labelled(np.zeros((n, 2), np.intp))
    rows.conf[:] = np.linspace(0.1, 0.9, n)
    rows.coarse[:], rows.coarse_conf[:] = 0, 0.9
    rows.fine[:] = rows.level2a[:] = 0 if fine_right else 1
    return rows


class TestSearchThreshold:
    def test_all_correct_gives_zero(self):
        assert I.best_threshold(_rows(4, fine_right=True)) == 0.0

    def test_all_fine_wrong_coarse_right_stops_everything(self):
        assert I.best_threshold(_rows(4, fine_right=False)) == 1.0 + I.STOP_ALL_EPS

    def test_matches_exhaustive_scan_oracle(self, toy_taxonomy):
        params, tracks = _toy_eval_setup(toy_taxonomy, n_tracks=20)
        tau = I.search_threshold(params, tracks, toy_taxonomy)
        # independent exhaustive oracle over the same candidate set
        rows = []
        for track in tracks:
            ts = I.score_track(params, track)
            agg = I.aggregate_avg(ts, toy_taxonomy)
            rows.append((
                agg.confidence,
                agg.selection == toy_taxonomy.species_index(track.species),
                agg.coarse_selection == toy_taxonomy.group_index(track.group),
            ))
        candidates = sorted({0.0, 1.0 + 1e-9} | {c for c, _, _ in rows})
        best = None
        for cand in candidates:
            acc = sum((c_ok if conf >= cand else g_ok)
                      for conf, c_ok, g_ok in rows) / len(rows)
            if best is None or acc > best[0]:
                best = (acc, cand)
        assert tau == pytest.approx(best[1], abs=0)
        # guarantee: never below the no-fallback accuracy
        acc_tau = sum((c_ok if conf >= tau else g_ok)
                      for conf, c_ok, g_ok in rows) / len(rows)
        acc_zero = sum(c_ok for _, c_ok, _ in rows) / len(rows)
        assert acc_tau >= acc_zero

    def test_empty_eval_set(self, tiny_taxonomy):
        params, _ = _toy_eval_setup(tiny_taxonomy, n_tracks=2)
        with pytest.raises(EmptyEvalSet):
            I.search_threshold(params, [], tiny_taxonomy)


class TestScoreSplit:
    def test_rows_match_selections_field_by_field(self, toy_taxonomy):
        """Each unit's rows hold, by name, the labels and the selections
        of `select_image` / `aggregate_*` on that track."""
        params, tracks = _toy_eval_setup(toy_taxonomy, n_tracks=6)
        rows = I.score_split(params, tracks, toy_taxonomy)
        assert set(rows) == set(I.UNITS)
        assert len(rows["image"].y1) == sum(map(len, tracks))
        end = 0
        for k, track in enumerate(tracks):
            y1 = toy_taxonomy.group_index(track.group)
            y2 = toy_taxonomy.species_index(track.species)
            ts = I.score_track(params, track)
            img = I.select_image(ts.frames, toy_taxonomy)
            frames = slice(end, end + len(track))
            end = frames.stop
            expected = [
                ("image", frames, dict(y1=y1, y2=y2, coarse=img.coarse_group,
                                       coarse_conf=img.coarse_confidence,
                                       level2a=img.level2a, fine=img.level2b,
                                       conf=img.level2b_confidence))]
            for unit, aggregate in (("video_avg", I.aggregate_avg),
                                    ("video_vote", I.aggregate_vote)):
                a = aggregate(ts, toy_taxonomy)
                expected.append((unit, k, dict(y1=y1, y2=y2, coarse=a.coarse_selection,
                                               coarse_conf=a.coarse_confidence,
                                               level2a=a.level2a, fine=a.selection,
                                               conf=a.confidence)))
            for unit, at, want in expected:
                assert set(want) == {f.name for f in fields(I.UnitRows)}
                for name, value in want.items():
                    np.testing.assert_array_equal(getattr(rows[unit], name)[at], value,
                                                  err_msg=f"{unit}.{name}")


# Oracles: the loop forms these functions had before they were made
# cheaper per track. The new forms must agree with them bit for bit.

def _majority_oracle(votes, confidences):
    """Every distinct label's count and mean confidence, then the best key."""
    labels, counts = np.unique(votes, return_counts=True)
    best = None
    for label, count in zip(labels, counts):
        conf = float(confidences[votes == label].mean())
        key = (count, conf, -label)
        if best is None or key > best[0]:
            best = (key, int(label), conf)
    return best[1], best[2]


def _level2a_oracle(outputs, taxonomy):
    """Every group's pick for every frame, then the coarse winner's."""
    g = outputs.coarse.argmax(axis=-1)
    picks = np.stack([taxonomy.to_global(h, 0) + f.argmax(axis=-1)
                      for h, f in enumerate(outputs.fine_local)], axis=-1)
    return np.take_along_axis(picks, g[..., None], axis=-1)[..., 0][()]


def _vote_oracle(track, taxonomy):
    """`aggregate_vote` through `_majority_oracle`, with its `np.ix_` block."""
    coarse, joint = track.frames.coarse, track.frames.joint
    sel, conf = _majority_oracle(joint.argmax(axis=1), joint.max(axis=1))
    coarse_votes = coarse.argmax(axis=1)
    gsel, gconf = _majority_oracle(coarse_votes, coarse.max(axis=1))
    start = taxonomy.to_global(gsel, 0)
    size = taxonomy.group_sizes[gsel]
    block = joint[np.ix_(coarse_votes == gsel, range(start, start + size))]
    sel_2a, _ = _majority_oracle(start + block.argmax(axis=1), block.max(axis=1))
    return I.VoteAggregate(selection=sel, confidence=conf, coarse_selection=gsel,
                           coarse_confidence=gconf, level2a=sel_2a)


def _best_threshold_oracle(rows):
    """Fallback accuracy of every candidate over every row."""
    candidates = np.unique(np.concatenate([[0.0], rows.conf, [1.0 + I.STOP_ALL_EPS]]))
    accuracy = [np.mean(rows.correct(tau)) for tau in candidates]
    return float(candidates[np.argmax(accuracy)])


# scores from a few levels, so argmax, vote and mean ties are common;
# arbitrary floats make the means round
SCORES = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


def _simplex(values):
    v = np.asarray(values, dtype=np.float64)
    return v / v.sum() if v.sum() > 0 else np.full(v.shape, 1.0 / v.size)


@st.composite
def track_scores(draw):
    """(taxonomy, TrackScores) with forced ties: one-species groups,
    repeated frames, equal scores, and one-frame tracks."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    taxonomy = Taxonomy(groups=tuple(f"g{g}" for g in range(len(sizes))),
                        species_by_group=tuple(tuple(f"g{g}s{i}" for i in range(n))
                                               for g, n in enumerate(sizes)))
    distinct = [make_outputs(_simplex(draw(st.lists(SCORES, min_size=len(sizes),
                                                    max_size=len(sizes)))),
                             [_simplex(draw(st.lists(SCORES, min_size=n, max_size=n)))
                              for n in sizes])
                for _ in range(draw(st.integers(1, 4)))]
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return taxonomy, I.TrackScores(frames=[distinct[k] for k in order])


# one frame per group: the coarse vote ties and goes to g0 on its higher
# mean, and the Level-2A vote over g0's columns is the g0 frame's alone;
# the g1 frame's stronger g0 column would win a vote over every frame
VOTE_SUPPORT_CASE = (
    Taxonomy(groups=("g0", "g1"), species_by_group=(("g0s0", "g0s1", "g0s2"), ("g1s0",))),
    I.TrackScores(frames=[make_outputs([0.9, 0.1], [[0.4, 0.3, 0.3], [1.0]]),
                          make_outputs([0.45, 0.55], [[0.0, 1.0, 0.0], [1.0]])]))


@given(track_scores())
@example(VOTE_SUPPORT_CASE)
@settings(max_examples=300, deadline=None)
def test_track_selections_match_loop_oracles(case):
    taxonomy, track = case
    stack = track.frames
    s = I.select_image(stack, taxonomy)
    want = _level2a_oracle(stack, taxonomy)
    assert s.level2a.dtype == want.dtype and np.array_equal(s.level2a, want)
    one = HeadOutputs(coarse=stack.coarse[0], fine_local=[f[0] for f in stack.fine_local],
                      joint=stack.joint[0])
    got, want = I.select_image(one, taxonomy).level2a, _level2a_oracle(one, taxonomy)
    assert type(got) is type(want) and got == want
    assert I.aggregate_vote(track, taxonomy) == _vote_oracle(track, taxonomy)
    avg = I.aggregate_avg(track, taxonomy)
    assert np.array_equal(avg.p1, stack.coarse.mean(axis=0))
    assert np.array_equal(avg.p2, stack.joint.mean(axis=0))


@given(votes=st.lists(st.integers(0, 4), min_size=1, max_size=12), data=st.data())
@settings(max_examples=300, deadline=None)
def test_majority_matches_unique_loop(votes, data):
    votes = np.array(votes)
    if data.draw(st.booleans(), label="all confidences equal"):
        conf = np.full(votes.shape, data.draw(SCORES))
    else:
        conf = np.array(data.draw(st.lists(SCORES, min_size=len(votes), max_size=len(votes))))
    # each row scores its vote at its confidence and every other label at -1
    scores = np.full((len(votes), votes.max() + 1), -1.0)
    scores[np.arange(len(votes)), votes] = conf
    label, support, top = I._vote(scores)
    assert label == _majority_oracle(votes, conf)[0]
    assert np.array_equal(support, votes == label)
    assert np.array_equal(top, conf)


@given(st.lists(st.tuples(SCORES, st.booleans(), st.booleans()), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_best_threshold_matches_candidate_loop(cases):
    """Rows of (confidence, coarse right, fine right)."""
    rows = I.UnitRows.labelled(np.zeros((len(cases), 2), np.intp))
    for k, (conf, coarse_ok, fine_ok) in enumerate(cases):
        rows.conf[k], rows.coarse[k], rows.fine[k] = conf, not coarse_ok, not fine_ok
    assert I.best_threshold(rows) == _best_threshold_oracle(rows)


# 6 x 31, 24 x 5, runs of equal-size fine heads among others, one-species groups
SPLIT_TAXONOMIES = {"6x31": default_taxonomy(), "24x5": _sized(*[5] * 24),
                    "mixed": _sized(3, 3, 1, 4, 4, 4, 2), "one-species": _sized(1, 1, 2, 1)}


def _random_params(taxonomy, mode, seed):
    params = M.init_params(taxonomy, d_in=6, d1=5, hidden=4, d2=4, seed=seed, mode=mode)
    rng = np.random.default_rng(seed)
    for _, arr in params.fields():
        arr += rng.normal(0, 0.5, arr.shape)
    return params


def _split(taxonomy, mode, seed, frames_max=20, lengths=None):
    """A perturbed random model and a split of generated tracks of 1 to
    `frames_max` frames, in `mode`; `lengths` cuts the first tracks to
    those frame counts and drops the rest."""
    frames_min = 1 if lengths is None else frames_max
    tracks = D.generate(D.GenConfig(taxonomy=taxonomy, tracks_total=max(2 * taxonomy.S, 40),
                                    frames_min=frames_min, frames_max=frames_max, dim=6,
                                    seed=seed)).tracks
    if lengths is not None:
        tracks = [D.Track(t.track_id, t.group, t.species, t.frame_index[:n],
                          features=t.features[:n]) for t, n in zip(tracks, lengths)]
    if mode == M.MODE_PRECOMPUTED:   # blocks of another model's trunk
        trunk = _random_params(taxonomy, M.MODE_TRUNK, seed + 1)
        for t in tracks:
            _, t.shallow, _, t.deep = M.trunk_features(trunk, t.features)
            t.features = None
    return _random_params(taxonomy, mode, seed), tracks


def _per_track_rows(params, tracks, taxonomy):
    """The reference `score_split`: each track scored alone by `score_track`
    and reduced at once; the frame average from the track's frame means
    and a slice argmax inside the coarse winner's group."""
    tables = {u: I.UnitRows.labelled(np.zeros((sum(map(len, tracks)) if u == "image"
                                               else len(tracks), 2), np.intp))
              for u in I.UNITS}
    end = 0
    for k, track in enumerate(tracks):
        y1, y2 = taxonomy.group_index(track.group), taxonomy.species_index(track.species)
        ts = I.score_track(params, track)
        s, frames = I.select_image(ts.frames, taxonomy), slice(end, end + len(track))
        end = frames.stop
        p1, p2 = ts.frames.coarse.mean(axis=0), ts.frames.joint.mean(axis=0)
        g, b = int(np.argmax(p1)), int(np.argmax(p2))
        start = taxonomy.to_global(g, 0)
        s2a = start + int(np.argmax(p2[start:start + taxonomy.group_sizes[g]]))
        v = I.aggregate_vote(ts, taxonomy)
        rows = [("image", frames, (s.coarse_group, s.coarse_confidence, s.level2a, s.level2b,
                                   s.level2b_confidence)),
                ("video_avg", k, (g, p1[g], s2a, b, p2[b])),
                ("video_vote", k, (v.coarse_selection, v.coarse_confidence, v.level2a,
                                   v.selection, v.confidence))]
        for unit, at, values in rows:
            t = tables[unit]
            t.y1[at], t.y2[at] = y1, y2
            t.coarse[at], t.coarse_conf[at], t.level2a[at], t.fine[at], t.conf[at] = values
    return tables


def _assert_same_bytes(got, want):
    assert set(got) == set(want)
    for unit, rows in want.items():
        for f in fields(I.UnitRows):
            a, b = getattr(got[unit], f.name), getattr(rows, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"{unit}.{f.name}"


class TestChunkedScoring:
    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    @pytest.mark.parametrize("taxonomy", SPLIT_TAXONOMIES.values(), ids=SPLIT_TAXONOMIES)
    def test_score_split_is_per_track_scoring(self, taxonomy, mode):
        """Chunks of tracks scored in one segmented forward give every
        unit's rows byte for byte as scoring each track alone."""
        params, tracks = _split(taxonomy, mode, seed=3)
        assert sum(map(len, tracks)) > 2 * I.CHUNK_FRAMES
        want = _per_track_rows(params, tracks, taxonomy)
        _assert_same_bytes(I.score_split(params, tracks, taxonomy), want)
        for unit in I.UNITS:   # and each unit alone, as `hierfish infer` asks
            _assert_same_bytes(I.score_split(params, tracks, taxonomy, (unit,)),
                               {unit: want[unit]})

    @pytest.mark.parametrize("lengths, batches", [
        ([1] * 12, [list(range(10)), [10, 11]]),            # one-frame tracks, cut at the cap
        ([3, 25, 2, 25], [[2], [0], [1], [3]]),             # a track beyond the cap is alone
        ([4, 6, 10, 5, 5, 5], [[0], [3, 4], [5], [1], [2]]),   # a batch ends on the cap
        ([11], [[0]]),
        ([3, 1, 3, 2, 1, 3, 3, 2], [[1, 4], [3, 7], [0, 2, 5], [6]]),   # ascending length
    ], ids=["one-frame", "long-track", "ends-on-budget", "one-long-track", "mixed-lengths"])
    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    def test_batch_edges(self, toy_taxonomy, monkeypatch, mode, lengths, batches):
        """Batches hold tracks of one length, in ascending length and
        split order among equals, up to CHUNK_FRAMES frames; each unit's
        rows still land in split order, as per-track scoring gives them."""
        monkeypatch.setattr(I, "CHUNK_FRAMES", 10)
        params, tracks = _split(toy_taxonomy, mode, seed=5, frames_max=30, lengths=lengths)
        assert [idx.tolist() for idx in I.track_batches(tracks)] == batches
        _assert_same_bytes(I.score_split(params, tracks, toy_taxonomy),
                           _per_track_rows(params, tracks, toy_taxonomy))

    def test_frame_average_reduces_a_batch_and_the_vote_a_track(self, toy_taxonomy,
                                                                 monkeypatch):
        """`score_split` calls `aggregate_avg` once per batch, on the
        batch's (n, T, ·) stack, and `aggregate_vote` once per track."""
        params, tracks = _split(toy_taxonomy, M.MODE_TRUNK, seed=3)
        calls = {"avg": [], "vote": []}
        for name, key in (("aggregate_avg", "avg"), ("aggregate_vote", "vote")):
            def spy(ts, taxonomy, aggregate=getattr(I, name), key=key):
                calls[key].append(ts.frames.joint.shape)
                return aggregate(ts, taxonomy)
            monkeypatch.setattr(I, name, spy)
        I.score_split(params, tracks, toy_taxonomy)
        batches = list(I.track_batches(tracks))
        assert len(batches) < len(tracks)
        assert calls["avg"] == [(len(idx), len(tracks[idx[0]]), toy_taxonomy.S)
                                for idx in batches]
        assert calls["vote"] == [(len(tracks[k]), toy_taxonomy.S)
                                 for idx in batches for k in idx]

    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    def test_score_chunk_rows_are_each_tracks_scores(self, six31, mode):
        """Item j of each batch `stacked_forward` yields is the
        `score_track` frames of track `indices[j]`, bit for bit, and the
        batches cover every track once."""
        params, tracks = _split(six31, mode, seed=7)
        seen = []
        for idx, out in I.stacked_forward(M.forward, params, tracks):
            assert len({len(tracks[k]) for k in idx}) == 1
            for j, k in enumerate(idx.tolist()):
                want, got = I.score_track(params, tracks[k]).frames, out[j]
                for a, b in [(got.coarse, want.coarse), (got.joint, want.joint),
                             *zip(got.fine_local, want.fine_local, strict=True)]:
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(len(tracks))) and seen != sorted(seen)


def _faulty_split(taxonomy, order, lengths=None):
    """Tracks of `lengths` frames (2 each by default), some failing alone
    at different stages, in `order`: 'ok', 'fine' (finite trunk, fine head
    0 overflows), 'trunk' (the trunk overflows), 'empty' (no frames) and
    'dim' (a feature too many)."""
    params, tracks = _split(taxonomy, M.MODE_TRUNK, seed=9,
                            lengths=lengths or [2] * len(order))
    params.Wf[0][...] *= 1e200
    params.W1[0] *= 1e300   # only the trunk fault has a first feature
    for track, fault in zip(tracks, order):
        track.features[:, 0] = 1e10 if fault == "trunk" else 0.0
        if fault == "fine":
            track.features = track.features * 1e110
        elif fault == "empty":
            track.frame_index, track.features = [], track.features[:0]
        elif fault == "dim":
            track.features = np.hstack([track.features, track.features[:, :1]])
    return params, tracks


def _first_error(params, tracks):
    """The error scoring `tracks` one by one raises first."""
    with np.errstate(over="ignore", invalid="ignore"):
        for track in tracks:
            try:
                I.score_track(params, track)
            except Exception as e:
                return e
    raise AssertionError("no track fails alone")


@pytest.mark.parametrize("order, lengths", [
    *[pytest.param(order, None, id="-".join(order)) for order in [
        ("ok", "fine", "trunk", "ok"), ("ok", "trunk", "fine"), ("fine", "empty"),
        ("ok", "empty", "trunk"), ("fine", "dim", "ok"), ("dim", "fine"), ("empty", "dim")]],
    # tracks of several lengths: a later failing track's batch is scored first
    pytest.param(("ok", "fine", "trunk"), [3, 4, 2], id="ok-fine-trunk-lengths"),
    pytest.param(("fine", "ok", "dim"), [5, 2, 3], id="fine-ok-dim-lengths"),
    pytest.param(("trunk", "ok", "fine"), [4, 4, 1], id="trunk-ok-fine-lengths"),
])
def test_a_fault_in_a_chunk_is_the_first_tracks_own(toy_taxonomy, order, lengths):
    """Tracks that fail alone at different stages raise the error the
    first of them raises alone, type and message, even when another
    failing track's batch is scored before that track's."""
    params, tracks = _faulty_split(toy_taxonomy, order, lengths)
    if lengths is not None:
        failing = [k for k, fault in enumerate(order) if fault != "ok"]
        first_failing_batch = next(idx.tolist() for idx in I.track_batches(tracks)
                                   if set(idx.tolist()) & set(failing))
        assert failing[0] not in first_failing_batch
    want = _first_error(params, tracks)
    for fault, message in (("fine", "non-finite values in fine head 0"),
                           ("trunk", "non-finite values in trunk")):
        if fault in order:
            assert str(_first_error(params, [tracks[order.index(fault)]])) == message
    with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
        I.score_split(params, tracks, toy_taxonomy)


def test_score_split_refuses_an_unknown_unit(toy_taxonomy, monkeypatch):
    """An unknown unit name is refused before any track is scored."""
    params, tracks = _split(toy_taxonomy, M.MODE_TRUNK, seed=3)
    scored = []
    monkeypatch.setattr(I, "stacked_forward", lambda *args: scored.append(args))
    for units in [("video_average",), ("image", "video_average")]:
        with pytest.raises(MalformedDocument, match=r"^unknown unit 'video_average'$"):
            I.score_split(params, tracks, toy_taxonomy, units)
    assert scored == []
