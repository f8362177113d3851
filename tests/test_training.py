import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from hierfish import data as D
from hierfish import inference as I
from hierfish import model as M
from hierfish import training as T
from hierfish.errors import (
    DimensionMismatch,
    DivergedTraining,
    EmptyDataset,
    EmptyTrack,
    HierfishError,
    InconsistentLabels,
    InfeasibleConfig,
    LabelOutOfRange,
    MalformedDocument,
    NonFiniteInput,
    TaxonomyMismatch,
)
from hierfish.taxonomy import Taxonomy

from conftest import blas_environment, make_outputs, random_simplex


def test_config_validation():
    with pytest.raises(MalformedDocument):
        T.TrainConfig(scheme="nope")
    with pytest.raises(MalformedDocument):
        T.TrainConfig(learning_rate=0.0)
    with pytest.raises(MalformedDocument):
        T.TrainConfig(momentum=1.0)
    with pytest.raises(MalformedDocument):
        T.TrainConfig(batch_size=0)


@pytest.mark.parametrize("call", ["TrainConfig", "compute_loss", "compute_gradients",
                                  "batch_loss", "train"])
def test_an_unknown_scheme_is_refused_by_every_entry_point(toy_taxonomy, call):
    """Each library call that takes a scheme looks it up through the one
    `loss_of`, so an unknown scheme is the same MalformedDocument, not a
    bare KeyError."""
    params = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=5)
    batch = _random_batch(np.random.default_rng(0), toy_taxonomy, params)
    calls = {
        "TrainConfig": lambda: T.TrainConfig(scheme="bogus"),
        "compute_loss": lambda: T.compute_loss("bogus", M.forward(params, batch[0].features),
                                               batch[0], toy_taxonomy),
        "compute_gradients": lambda: T.compute_gradients(params, batch, "bogus", toy_taxonomy),
        "batch_loss": lambda: T.batch_loss(params, batch, "bogus", toy_taxonomy),
        "train": lambda: T.train(T.TrainConfig(epochs=1), _tiny_dataset(toy_taxonomy),
                                 toy_taxonomy, ["bogus"]),
    }
    with pytest.raises(MalformedDocument, match="^unknown scheme 'bogus'$"):
        calls[call]()


class TestComputeLoss:
    def test_degenerate_taxonomy_zero_loss(self):
        t = Taxonomy(groups=("A",), species_by_group=(("a",),))
        out = make_outputs([1.0], [[1.0]])
        ex = T.LabeledExample(features=None, coarse_label=0, fine_label=0)
        for scheme in ("scheme1", "scheme2", "scheme3"):
            assert T.compute_loss(scheme, out, ex, t) == pytest.approx(0.0, abs=1e-15)

    def test_scheme2_hand_oracle(self, tiny_taxonomy):
        # -ln 0.7 - ln(0.7*0.8) = -ln 0.7 - ln 0.56
        out = make_outputs([0.7, 0.3], [[0.8, 0.2], [1.0]])
        ex = T.LabeledExample(features=None, coarse_label=0, fine_label=0)
        loss = T.compute_loss("scheme2", out, ex, tiny_taxonomy)
        assert loss == pytest.approx(-math.log(0.7) - math.log(0.56), abs=1e-12)
        assert loss == pytest.approx(0.93649, abs=1e-5)

    def test_scheme2_equals_scheme3(self, tiny_taxonomy):
        out = make_outputs([0.7, 0.3], [[0.8, 0.2], [1.0]])
        ex = T.LabeledExample(features=None, coarse_label=0, fine_label=0)
        l2 = T.compute_loss("scheme2", out, ex, tiny_taxonomy)
        l3 = T.compute_loss("scheme3", out, ex, tiny_taxonomy)
        assert l2 == l3

    def test_loss_identities_on_random_outputs(self, toy_taxonomy):
        rng = np.random.default_rng(11)
        for _ in range(50):
            coarse = random_simplex(rng, toy_taxonomy.G)
            fine = [random_simplex(rng, n) for n in toy_taxonomy.group_sizes]
            out = make_outputs(coarse, fine)
            y2 = int(rng.integers(0, toy_taxonomy.S))
            y1, _ = toy_taxonomy.to_local(y2)
            ex = T.LabeledExample(features=None, coarse_label=y1, fine_label=y2)
            l1 = T.compute_loss("scheme1", out, ex, toy_taxonomy)
            l2 = T.compute_loss("scheme2", out, ex, toy_taxonomy)
            l3 = T.compute_loss("scheme3", out, ex, toy_taxonomy)
            assert abs(l2 - l3) <= 1e-12
            # scheme3 adds one extra -log coarse[y1] through the product
            assert l3 == pytest.approx(l1 - math.log(coarse[y1]), abs=1e-12)

    def test_baseline_loss(self):
        ex = T.LabeledExample(features=None, coarse_label=0, fine_label=2)
        probs = np.array([0.2, 0.3, 0.5])
        assert T.compute_loss("baseline", probs, ex, None) == pytest.approx(
            -math.log(0.5), abs=1e-15)

    def test_label_errors(self, tiny_taxonomy):
        out = make_outputs([0.5, 0.5], [[0.5, 0.5], [1.0]])
        with pytest.raises(LabelOutOfRange):
            T.compute_loss("scheme3", out,
                           T.LabeledExample(None, 0, 5), tiny_taxonomy)
        with pytest.raises(InconsistentLabels):
            T.compute_loss("scheme3", out,
                           T.LabeledExample(None, 1, 0), tiny_taxonomy)


def _random_batch(rng, taxonomy, params):
    batch = []
    for _ in range(5):
        y2 = int(rng.integers(0, taxonomy.S))
        y1, _ = taxonomy.to_local(y2)
        if params.mode == M.MODE_TRUNK:
            feats = rng.normal(0, 1, params.d_in)
        else:
            feats = (rng.normal(0, 1, params.d1), rng.normal(0, 1, params.d2))
        batch.append(T.LabeledExample(features=feats, coarse_label=y1, fine_label=y2))
    return batch


def finite_difference_grads(params, batch, scheme, taxonomy, step=1e-5):
    fd = params.zeros_like()
    for key, arr in params.fields():
        out = fd.get(key)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            lp = T.batch_loss(params, batch, scheme, taxonomy)
            arr[idx] = orig - step
            lm = T.batch_loss(params, batch, scheme, taxonomy)
            arr[idx] = orig
            out[idx] = (lp - lm) / (2 * step)
    return fd


def max_rel_error(grads, fd):
    worst = 0.0
    for key, a in grads.fields():
        f = fd.get(key)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


class TestGradients:
    @pytest.mark.parametrize("scheme", T.SCHEMES)
    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    def test_matches_finite_differences(self, toy_taxonomy, scheme, mode):
        rng = np.random.default_rng([T.SCHEMES.index(scheme),
                                     0 if mode == M.MODE_TRUNK else 1])
        params = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3,
                               seed=2, mode=mode)
        for _, arr in params.fields():
            arr += rng.normal(0, 0.2, arr.shape)
        batch = _random_batch(rng, toy_taxonomy, params)
        grads = T.compute_gradients(params, batch, scheme, toy_taxonomy)
        fd = finite_difference_grads(params, batch, scheme, toy_taxonomy)
        assert max_rel_error(grads, fd) <= 1e-4

    def test_zero_params_balanced_bias_gradient(self, tiny_taxonomy):
        # softmax gradient rows sum to zero, so the coarse bias gradient
        # components cancel for any batch
        params = M.init_params(tiny_taxonomy, d_in=2, d1=2, hidden=2, d2=2, seed=0)
        for _, arr in params.fields():
            arr[...] = 0.0
        batch = [
            T.LabeledExample(np.array([1.0, 0.0]), 0, 0),
            T.LabeledExample(np.array([0.0, 1.0]), 0, 1),
            T.LabeledExample(np.array([1.0, 1.0]), 1, 2),
        ]
        grads = T.compute_gradients(params, batch, "scheme1", tiny_taxonomy)
        assert grads.bc2.sum() == pytest.approx(0.0, abs=1e-12)

    def test_scheme2_scheme3_gradients_identical(self, toy_taxonomy):
        rng = np.random.default_rng(3)
        params = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=5)
        batch = _random_batch(rng, toy_taxonomy, params)
        g2 = T.compute_gradients(params, batch, "scheme2", toy_taxonomy)
        g3 = T.compute_gradients(params, batch, "scheme3", toy_taxonomy)
        for key, a in g2.fields():
            np.testing.assert_allclose(a, g3.get(key), atol=1e-12)

    def test_a_loss_call_builds_the_stack_and_its_gradient_only(self, toy_taxonomy,
                                                                monkeypatch):
        """Every row of a stack is the stack itself, so `batch_loss` builds
        two models, and `compute_gradients` a third: the gradient's row."""
        params = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=5)
        stacked = params.tile(2)
        assert stacked.rows(0, 2) is stacked and stacked.rows(0, 1) is not stacked
        batch = _random_batch(np.random.default_rng(4), toy_taxonomy, params)
        built = []
        init = M.ModelParams.__init__
        monkeypatch.setattr(M.ModelParams, "__init__",
                            lambda self, *args: built.append(self) or init(self, *args))
        T.batch_loss(params, batch, "scheme3", toy_taxonomy)
        assert len(built) == 2
        T.compute_gradients(params, batch, "scheme3", toy_taxonomy)
        assert len(built) == 5

    def test_empty_batch(self, toy_taxonomy):
        params = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=5)
        with pytest.raises(EmptyDataset):
            T.compute_gradients(params, [], "scheme3", toy_taxonomy)


def _tiny_dataset(taxonomy, seed=0, tracks=30):
    cfg = D.GenConfig(taxonomy=taxonomy, tracks_total=tracks, frames_min=2,
                      frames_max=4, dim=6, seed=seed)
    return D.generate(cfg)


class TestTrain:
    def test_zero_epochs_returns_seeded_init(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        cfg = T.TrainConfig(epochs=0, seed=4, d1=4, hidden=4, d2=3)
        params, history = T.train(cfg, ds, toy_taxonomy)
        assert history == []
        ref = M.init_params(toy_taxonomy, d_in=6, d1=4, hidden=4, d2=3, seed=4)
        for key, arr in params.fields():
            assert np.array_equal(arr, ref.get(key))

    def test_deterministic_for_fixed_seed(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        cfg = T.TrainConfig(epochs=2, seed=7, d1=4, hidden=4, d2=3)
        p1, h1 = T.train(cfg, ds, toy_taxonomy)
        p2, h2 = T.train(cfg, ds, toy_taxonomy)
        assert h1 == h2
        for key, arr in p1.fields():
            assert np.array_equal(arr, p2.get(key))

    def test_loss_decreases(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        cfg = T.TrainConfig(epochs=5, seed=0, d1=4, hidden=4, d2=3)
        _, history = T.train(cfg, ds, toy_taxonomy)
        assert history[-1] < history[0]

    def test_empty_dataset(self, toy_taxonomy):
        with pytest.raises(EmptyDataset):
            T.train(T.TrainConfig(epochs=1), D.Dataset(tracks=[]), toy_taxonomy)

    @pytest.mark.parametrize("schemes, match", [([], "no scheme to train"),
                                                 (["scheme9"], "unknown scheme 'scheme9'")])
    def test_schemes_to_train_are_checked(self, toy_taxonomy, schemes, match):
        with pytest.raises(HierfishError, match=match):
            T.train(T.TrainConfig(epochs=1), _tiny_dataset(toy_taxonomy), toy_taxonomy, schemes)

    def test_diverged_training(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        cfg = T.TrainConfig(epochs=20, seed=0, learning_rate=1e6,
                            d1=4, hidden=4, d2=3)
        with pytest.raises(DivergedTraining):
            T.train(cfg, ds, toy_taxonomy)

    def test_diverged_training_names_the_scheme(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        cfg = T.TrainConfig(scheme="scheme2", epochs=20, seed=0, learning_rate=1e6,
                            d1=4, hidden=4, d2=3)
        with pytest.raises(DivergedTraining,
                           match=r"^scheme2 diverged at epoch \d+; lower the learning rate$"):
            T.train(cfg, ds, toy_taxonomy)
        with pytest.raises(DivergedTraining, match=r"^(scheme1|scheme2) diverged at epoch"):
            T.train(cfg, ds, toy_taxonomy, ["scheme2", "scheme1"])

    @pytest.mark.parametrize("schemes", [None, ["scheme1", "baseline", "scheme3"]])
    def test_input_overflow_below_bound_is_found_mid_training(self, toy_taxonomy, schemes):
        """A frame of 1e10 is within MAX_FEATURE, but the network's loss on
        it is not finite; the step whose batch holds it fails at the
        initial weights too, so the error blames that frame, not the
        learning rate."""
        ds = _tiny_dataset(toy_taxonomy)
        track = ds.tracks[3]
        track.features[1] = 1e10
        cfg = T.TrainConfig(epochs=1, seed=0, learning_rate=1e-9, d1=4, hidden=4, d2=3)
        with pytest.raises(NonFiniteInput,
                           match=rf"^track {track.track_id!r} frame 1: input values up to "
                                 r"\|1e\+10\| give a non-finite loss at the network's initial "
                                 r"weights; rescale the features$"):
            T.train(cfg, ds, toy_taxonomy, schemes)

    def test_input_fault_draws_the_initial_weights_once(self, toy_taxonomy, monkeypatch):
        """The failed step is checked against the weights the run started
        from, not a second draw of them."""
        ds = _tiny_dataset(toy_taxonomy)
        ds.tracks[3].features[1] = 1e10
        draws = []
        init_params = M.init_params
        monkeypatch.setattr(M, "init_params",
                            lambda *a, **k: draws.append(k) or init_params(*a, **k))
        cfg = T.TrainConfig(epochs=1, seed=0, learning_rate=1e-9, d1=4, hidden=4, d2=3)
        with pytest.raises(NonFiniteInput, match="at the network's initial weights"):
            T.train(cfg, ds, toy_taxonomy, ["scheme1", "baseline", "scheme3"])
        assert len(draws) == 1

    @pytest.mark.parametrize("data, attr, column, value", [
        ("features", "features", 0, 1e300), ("features", "features", 2, -1e300),
        ("precomputed", "shallow", 3, -1e300), ("precomputed", "deep", 0, 1e300),
        pytest.param("features", "features", slice(None), 1e300,
                     id="row-1e+300")])
    @pytest.mark.parametrize("schemes", [None, ["scheme1", "baseline", "scheme3"]])
    def test_value_beyond_bound_is_an_input_fault(self, toy_taxonomy, data, attr, column,
                                                  value, schemes):
        """A finite value beyond MAX_FEATURE is refused before the first
        step, by the bound: the untrained network overflows on a whole
        row of 1e300, and it saturates on one cell, which would train to
        a finite loss."""
        ds = _dataset(toy_taxonomy, data)
        track = ds.tracks[2]
        getattr(track, attr)[0, column] = value
        cfg = T.TrainConfig(epochs=2, seed=0, d1=4, hidden=4, d2=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput,
                               match=rf"^track {track.track_id!r} frame {track.frame_index[0]}: "
                                     r"input values up to \|1e\+300\| exceed 1e\+150; "
                                     r"rescale the features$"):
                T.train(cfg, ds, toy_taxonomy, schemes)

    @pytest.mark.parametrize("case", ["learning_rate", "feature"])
    def test_overflow_raises_no_warning(self, toy_taxonomy, case):
        """The step's loss check reports an overflow; numpy warns of none,
        so a run that turns warnings into errors gets the same error."""
        ds = _tiny_dataset(toy_taxonomy)
        cfg = T.TrainConfig(epochs=2, seed=0, d1=4, hidden=4, d2=3,
                            learning_rate=1e300 if case == "learning_rate" else 0.05)
        if case == "feature":
            ds.tracks[3].features[1] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedTraining if case == "learning_rate" else NonFiniteInput):
                T.train(cfg, ds, toy_taxonomy, ["baseline", "scheme1", "scheme3"])

    def test_model_size_is_bounded_before_allocating(self, toy_taxonomy, monkeypatch):
        """Three models of 17 * 3e6 weights each pass one at a time but
        not together; nothing is allocated for them."""
        ds = _tiny_dataset(toy_taxonomy)
        cfg = T.TrainConfig(epochs=1, d1=4, hidden=3 * 10**6, d2=3)
        monkeypatch.setattr(M, "init_params", None)   # must not be reached
        with pytest.raises(InfeasibleConfig, match=r"^3 model\(s\) of d1=4, hidden=3000000, d2=3 "
                                                   r"hold 1530\d{5} weights, more than 100000000"):
            T.train(cfg, ds, toy_taxonomy, ["baseline", "scheme1", "scheme3"])

    def test_precomputed_mode(self, toy_taxonomy):
        ds = _precomputed_dataset(toy_taxonomy)
        cfg = T.TrainConfig(epochs=2, seed=0, hidden=4)
        params, history = T.train(cfg, ds, toy_taxonomy)
        assert params.mode == M.MODE_PRECOMPUTED
        assert len(history) == 2
        assert all(np.isfinite(h) for h in history)

    def test_nan_feature_is_an_input_error(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        track = ds.tracks[3]
        track.features[1, 2] = np.nan
        cfg = T.TrainConfig(epochs=1, seed=0, d1=4, hidden=4, d2=3)
        with pytest.raises(NonFiniteInput,
                           match=rf"track '{track.track_id}' frame {track.frame_index[1]}"):
            T.train(cfg, ds, toy_taxonomy)

    def test_nan_deep_feature_is_an_input_error(self, toy_taxonomy):
        ds = _precomputed_dataset(toy_taxonomy)
        track = ds.tracks[0]
        track.deep[0, 0] = np.inf
        cfg = T.TrainConfig(epochs=1, seed=0, hidden=4)
        with pytest.raises(NonFiniteInput, match=rf"^track '{track.track_id}' frame 0: "
                                                 "non-finite values in deep$"):
            T.train(cfg, ds, toy_taxonomy)

    @pytest.mark.parametrize("schemes", [None, ["scheme1", "baseline", "scheme3"]])
    def test_first_track_with_a_fault_is_named(self, toy_taxonomy, schemes):
        """Faults in two tracks: the first track's is named, as every scorer
        names it, though its field comes later in the record."""
        ds = _precomputed_dataset(toy_taxonomy)
        ds.tracks[0].deep[1, 0] = ds.tracks[3].shallow[0, 0] = np.nan
        cfg = T.TrainConfig(epochs=1, seed=0, hidden=4)
        with pytest.raises(NonFiniteInput, match=r"^track 't00000' frame 1: "
                                                 "non-finite values in deep$"):
            T.train(cfg, ds, toy_taxonomy, schemes)

    @pytest.mark.parametrize("schemes", [None, ["scheme1", "baseline", "scheme3"]])
    def test_first_track_beyond_the_bound_is_named(self, toy_taxonomy, schemes):
        """Values beyond MAX_FEATURE in two tracks: the first track's is
        named, not the larger value of the later track."""
        ds = _tiny_dataset(toy_taxonomy)
        ds.tracks[2].features[1, 0] = 1e200
        ds.tracks[5].features[0, 3] = -1e300
        cfg = T.TrainConfig(epochs=1, seed=0, d1=4, hidden=4, d2=3)
        with pytest.raises(NonFiniteInput, match=r"^track 't00002' frame 1: input values up to "
                                                 r"\|1e\+200\| exceed 1e\+150; "
                                                 r"rescale the features$"):
            T.train(cfg, ds, toy_taxonomy, schemes)

    @pytest.mark.parametrize("schemes", [None, ["scheme1", "baseline", "scheme3"]])
    def test_empty_track_is_refused_as_scoring_refuses_it(self, toy_taxonomy, schemes):
        """A track of no frames is an error for `train`, not a track it
        skips, with the error every scorer raises for it."""
        ds = _tiny_dataset(toy_taxonomy)
        track = ds.tracks[4]
        track.frame_index, track.features = [], track.features[:0]
        cfg = T.TrainConfig(epochs=1, seed=0, d1=4, hidden=4, d2=3)
        with pytest.raises(EmptyTrack) as trained:
            T.train(cfg, ds, toy_taxonomy, schemes)
        assert str(trained.value) == f"track {track.track_id!r} has no frames"
        params = M.init_params(toy_taxonomy, d_in=6, d1=4, hidden=4, d2=3, seed=0)
        with pytest.raises(EmptyTrack) as scored:
            I.score_split(params, ds.tracks, toy_taxonomy)
        assert str(scored.value) == str(trained.value)

    @pytest.mark.parametrize("data, mode", [
        ("precomputed", M.MODE_TRUNK),
        ("features", M.MODE_PRECOMPUTED),
    ])
    def test_data_in_the_other_mode(self, toy_taxonomy, data, mode):
        """A Dataset.mode that disagrees with its frames names the frame."""
        ds = _dataset(toy_taxonomy, data)
        ds.mode = mode
        frame = ds.tracks[0].frames[0]
        cfg = T.TrainConfig(epochs=1, seed=0, d1=4, hidden=4, d2=3)
        with pytest.raises(DimensionMismatch) as err:
            T.train(cfg, ds, toy_taxonomy)
        assert f"track '{frame.track_id}' frame {frame.frame_index}" in str(err.value)
        assert repr(mode) in str(err.value)

    def test_ragged_feature_dims(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        track = ds.tracks[-1]
        track.features = np.zeros((len(track), 5))
        cfg = T.TrainConfig(epochs=1, seed=0, d1=4, hidden=4, d2=3)
        with pytest.raises(DimensionMismatch, match=rf"^track '{track.track_id}' frame 0: "
                                                    rf"features has shape \({len(track)}, 5\), "
                                                    rf"expected \({len(track)}, 6\)$"):
            T.train(cfg, ds, toy_taxonomy)

    @pytest.mark.parametrize("data, attr", [("features", "features"),
                                            ("precomputed", "shallow"),
                                            ("precomputed", "deep")])
    def test_zero_width_block(self, toy_taxonomy, data, attr):
        """A dataset whose vectors have no values is refused, naming the
        first frame, before a model of no inputs is built."""
        ds = _dataset(toy_taxonomy, data)
        for track in ds.tracks:
            setattr(track, attr, np.zeros((len(track), 0)))
        track = ds.tracks[0]
        cfg = T.TrainConfig(epochs=1, seed=0, d1=4, hidden=4, d2=3)
        with pytest.raises(DimensionMismatch, match=rf"^track '{track.track_id}' frame "
                                                    rf"{track.frame_index[0]}: {attr} has shape "
                                                    rf"\({len(track)}, 0\)"):
            T.train(cfg, ds, toy_taxonomy)

    def test_species_outside_the_taxonomy(self, toy_taxonomy):
        """`train` refuses it as `split` and every scorer do: the one
        `TaxonomyMismatch` of `data.check_labels`."""
        ds = _tiny_dataset(toy_taxonomy)
        ds.tracks[3].species = "not-a-species"
        with pytest.raises(TaxonomyMismatch, match=r"^unknown species 'not-a-species'$"):
            T.train(T.TrainConfig(epochs=1, d1=4, hidden=4, d2=3), ds, toy_taxonomy)

    def test_inconsistent_labels_rejected(self, toy_taxonomy):
        ds = _tiny_dataset(toy_taxonomy)
        track = ds.tracks[0]
        track.group = "B" if track.group == "A" else "A"
        with pytest.raises(InconsistentLabels, match=rf"^track '{track.track_id}': species "):
            T.train(T.TrainConfig(epochs=1, d1=4, hidden=4, d2=3), ds, toy_taxonomy)


def _precomputed_dataset(taxonomy):
    """A precomputed (shallow, deep) dataset made from trunk features."""
    raw = _tiny_dataset(taxonomy)
    probe = M.init_params(taxonomy, d_in=6, d1=4, hidden=4, d2=3, seed=1)
    tracks = []
    for t in raw.tracks:
        _, sh, _, dp = M.trunk_features(probe, t.features)
        tracks.append(D.Track(t.track_id, t.group, t.species, t.frame_index, shallow=sh, deep=dp))
    return D.Dataset(tracks=tracks, mode=M.MODE_PRECOMPUTED)


def _dataset(taxonomy, data):
    """The tiny dataset as raw "features" or as "precomputed" pairs."""
    return (_precomputed_dataset(taxonomy) if data == "precomputed"
            else _tiny_dataset(taxonomy))


def _reference_train(cfg, ds, taxonomy):
    """Plain SGD with momentum, one parameter array at a time, driven by
    compute_gradients and batch_loss on LabeledExample batches."""
    examples = [
        T.LabeledExample(features=fr.model_input(),
                         coarse_label=taxonomy.group_index(fr.group),
                         fine_label=taxonomy.species_index(fr.species))
        for t in ds.tracks for fr in t.frames
    ]
    first = examples[0].features
    if ds.mode == M.MODE_PRECOMPUTED:
        params = M.init_params(taxonomy, d1=first[0].shape[0],
                               hidden=cfg.hidden, d2=first[1].shape[0],
                               seed=cfg.seed, mode=M.MODE_PRECOMPUTED)
    else:
        params = M.init_params(taxonomy, d_in=first.shape[0], d1=cfg.d1,
                               hidden=cfg.hidden, d2=cfg.d2, seed=cfg.seed)
    velocity = {key: np.zeros_like(arr) for key, arr in params.fields()}
    history = []
    n = len(examples)
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [examples[j] for j in order[start:start + cfg.batch_size]]
            grads = T.compute_gradients(params, batch, cfg.scheme, taxonomy)
            loss_sum += T.batch_loss(params, batch, cfg.scheme, taxonomy) * len(batch)
            for key, arr in params.fields():
                v = velocity[key]
                v *= cfg.momentum
                v -= cfg.learning_rate * grads.get(key)
                arr += v
        history.append(loss_sum / n)
    return params, history


@pytest.mark.parametrize("scheme", T.SCHEMES)
@pytest.mark.parametrize("data", ["features", "precomputed"])
def test_train_is_bit_identical_to_reference_loop(toy_taxonomy, scheme, data):
    ds = _dataset(toy_taxonomy, data)
    cfg = T.TrainConfig(scheme=scheme, epochs=3, batch_size=7, seed=5,
                        d1=4, hidden=4, d2=3)
    assert ds.n_frames % cfg.batch_size != 0  # the last batch is ragged
    params, history = T.train(cfg, ds, toy_taxonomy)
    ref, ref_history = _reference_train(cfg, ds, toy_taxonomy)
    assert history == ref_history
    for key, arr in ref.fields():
        assert np.array_equal(params.get(key), arr), key


# eight groups, so every batch of 7 misses one; runs of three and of two
# equal-size fine heads, and one-species heads; 15 species, as 30 tracks allow
EIGHT_GROUPS = Taxonomy(groups=tuple(f"G{g}" for g in range(8)),
                        species_by_group=tuple(tuple(f"G{g}s{i}" for i in range(n))
                                               for g, n in enumerate((2, 2, 2, 1, 3, 3, 1, 1))))


@pytest.mark.parametrize("schemes", [
    ("baseline",), ("scheme1",), ("baseline", "scheme3"), ("scheme1", "scheme3"),
    ("scheme3", "scheme2", "scheme1", "baseline"),
], ids="-".join)
@pytest.mark.parametrize("data, taxonomy", [
    pytest.param("features", None, id="features"),
    pytest.param("precomputed", None, id="precomputed"),
    pytest.param("features", EIGHT_GROUPS, id="eight-groups-features"),
    pytest.param("precomputed", EIGHT_GROUPS, id="eight-groups-precomputed"),
])
def test_lockstep_is_bit_identical_to_solo_training(toy_taxonomy, schemes, data, taxonomy):
    """Every model of a lockstep run is the model its scheme trains alone,
    and the one the reference loop trains. `taxonomy` None is the toy one."""
    taxonomy = toy_taxonomy if taxonomy is None else taxonomy
    ds = _dataset(taxonomy, data)
    cfg = T.TrainConfig(epochs=3, batch_size=7, seed=5, d1=4, hidden=4, d2=3)
    assert ds.n_frames % cfg.batch_size != 0  # the last batch is ragged
    trained = T.train(cfg, ds, taxonomy, list(schemes))
    assert list(trained) == list(schemes)
    for scheme in schemes:
        params, history = trained[scheme]
        alone = dataclasses.replace(cfg, scheme=scheme)
        solo, solo_history = T.train(alone, ds, taxonomy)
        ref, ref_history = _reference_train(alone, ds, taxonomy)
        assert history == solo_history == ref_history, scheme
        assert params.vector.tobytes() == solo.vector.tobytes() == ref.vector.tobytes(), scheme


@pytest.mark.parametrize("data", ["features", "precomputed"])
def test_lockstep_is_solo_training_and_repeats_on_a_one_row_last_batch(toy_taxonomy, data):
    """Each epoch ends on a batch of one row, as `hierfish ablation --seed 1`
    does: every model of a lockstep run is still the model its scheme
    trains alone, and a second run repeats every byte."""
    ds = _dataset(toy_taxonomy, data)
    cfg = T.TrainConfig(epochs=3, batch_size=10, seed=5, d1=4, hidden=4, d2=3)
    assert ds.n_frames % cfg.batch_size == 1
    runs = [T.train(cfg, ds, toy_taxonomy, list(T.SCHEMES)) for _ in range(2)]
    for scheme in T.SCHEMES:
        solo, solo_history = T.train(dataclasses.replace(cfg, scheme=scheme), ds, toy_taxonomy)
        for trained in runs:
            params, history = trained[scheme]
            assert history == solo_history, scheme
            assert params.vector.tobytes() == solo.vector.tobytes(), scheme


@pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
@pytest.mark.parametrize("loss", T.LOSS_ORDER)
def test_gradient_of_a_batch_that_misses_a_group(loss, mode):
    """Finite differences check the kernel that solo and lockstep training
    share: a batch with no example of group 3 still gives the fine heads
    of the groups after it their gradients."""
    rng = np.random.default_rng([T.LOSS_ORDER.index(loss), mode == M.MODE_TRUNK])
    params = M.init_params(EIGHT_GROUPS, d_in=4, d1=3, hidden=3, d2=3, seed=4, mode=mode)
    for _, arr in params.fields():
        arr += rng.normal(0, 0.3, arr.shape)
    batch = []
    for y2 in (1, 2, 4, 7, 9, 11, 13, 14, 0, 12):
        y1, _ = EIGHT_GROUPS.to_local(y2)
        feats = (rng.normal(0, 1, params.d_in) if mode == M.MODE_TRUNK
                 else (rng.normal(0, 1, params.d1), rng.normal(0, 1, params.d2)))
        batch.append(T.LabeledExample(features=feats, coarse_label=y1, fine_label=y2))
    groups = {ex.coarse_label for ex in batch}
    assert 3 not in groups and groups > {4, 5, 6, 7}
    grads = T.compute_gradients(params, batch, loss, EIGHT_GROUPS)
    fd = finite_difference_grads(params, batch, loss, EIGHT_GROUPS)
    assert max_rel_error(grads, fd) <= 1e-4


@pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
def test_a_step_zeroes_the_fine_gradients_of_every_absent_group(mode):
    """The gradient buffer is never refilled: a step on a batch that holds
    every group, then one on a batch that misses groups 1, 2 and 4, on the
    same buffer, leaves exact zeros in the missing groups' `Wf{g}` and
    `bf{g}` gradients on every row, not the first step's values."""
    rng = np.random.default_rng(7)
    params = M.init_params(EIGHT_GROUPS, d_in=4, d1=3, hidden=3, d2=3, seed=4,
                           mode=mode).tile(len(T.LOSS_ORDER))
    grads = params.zeros_like()

    def step(y2):
        y2 = np.array(y2)
        y1 = np.array([EIGHT_GROUPS.to_local(s)[0] for s in y2])
        inputs = ((rng.normal(0, 1, (len(y2), params.d_in)),) if mode == M.MODE_TRUNK
                  else (rng.normal(0, 1, (len(y2), params.d1)),
                        rng.normal(0, 1, (len(y2), params.d2))))
        ws = T._Workspace(params, grads, inputs, T.LOSS_ORDER)
        T._loss_and_grads(ws, next(T._label_tables(ws, y1[None], y2[None])))
        return set(y1.tolist())

    # groups of one species always get a zero fine gradient, so the
    # groups checked have two or three
    absent, present = (1, 2, 4), (0, 5)
    assert step(range(EIGHT_GROUPS.S)) == set(range(EIGHT_GROUPS.G))
    assert all(grads.Wf[g][k].any() and grads.bf[g][k].all() for g in absent for k in (1, 2))
    assert step([0, 1, 6, 10, 11, 12, 13, 14]) == {*present, 3, 6, 7}
    for g in absent:
        assert not grads.Wf[g].any() and not grads.bf[g].any(), g
    assert all(grads.Wf[g][k].any() for g in present for k in (1, 2))


@pytest.mark.parametrize("B", [8, 7, 1])
@pytest.mark.parametrize("losses", [T.LOSS_ORDER, ("baseline",), ("scheme3",),
                                    ("scheme1", "scheme3")], ids="-".join)
@pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
def test_a_reused_workspace_steps_as_a_one_off_one(mode, losses, B):
    """Step after step on one workspace, its label tables built for all
    the batches at once as `train` builds an epoch's, every loss and
    gradient byte equals a one-off workspace's on the same batch, and so
    does each model rerun alone, as `_input_fault` and `_diverged` rerun
    a failed step. Eight groups: a batch of 7 or 1 misses some, and the
    first batch of each size holds group 0 only. The loss is the sum over the
    batch divided by B, for B = 7 too, where a multiply by 1 / B is not
    exact."""
    rng = np.random.default_rng([B, len(losses), mode == M.MODE_TRUNK])
    K = len(losses)
    params = M.init_params(EIGHT_GROUPS, d_in=4, d1=3, hidden=3, d2=3, seed=4,
                           mode=mode).tile(K)
    grads = params.zeros_like()
    widths = [params.d_in] if mode == M.MODE_TRUNK else [params.d1, params.d2]
    inputs = [np.empty((B, width)) for width in widths]
    ws = T._Workspace(params, grads, inputs, losses)
    Y2 = rng.integers(0, EIGHT_GROUPS.S, (12, B))
    Y2[0] = rng.integers(0, EIGHT_GROUPS.group_sizes[0], B)
    Y1 = EIGHT_GROUPS.column_group[Y2]
    assert set(Y1[0].tolist()) == {0}
    tables = T._label_tables(ws, Y1, Y2)
    with np.errstate(divide="ignore"):
        for table, y1, y2 in zip(tables, Y1, Y2):
            for buf in inputs:
                buf[...] = rng.normal(0, 1, buf.shape)
            loss = T._loss_and_grads(ws, table)
            assert loss.tobytes() == (np.add.reduce(ws.out, axis=-1) / B).tobytes()
            alone = T._one_off(params, [buf.copy() for buf in inputs], y1, y2, losses)
            assert T._loss_and_grads(*alone).tobytes() == loss.tobytes()
            assert alone[0].grads.vector.tobytes() == grads.vector.tobytes()
            for k, row_loss in enumerate(losses):
                rerun = T._one_off(params.rows(k, k + 1), inputs, y1, y2, (row_loss,))
                assert T._loss_and_grads(*rerun).tobytes() == loss[k:k + 1].tobytes()
                assert rerun[0].grads.vector.tobytes() == grads.vector[k].tobytes()
            params.vector[...] -= 0.5 * grads.vector


def test_heads_forward_on_a_workspace_reads_the_arrays_it_is_handed():
    """A workspace holds where `heads_forward` writes, not what it reads:
    handed arrays other than the workspace's inputs, it gives their
    probabilities, the bytes it gives them with no workspace."""
    rng = np.random.default_rng(3)
    params = M.init_params(EIGHT_GROUPS, d_in=4, d1=3, hidden=3, d2=3, seed=4,
                           mode=M.MODE_PRECOMPUTED).tile(2)
    ws = T._Workspace(params, params.zeros_like(), [np.zeros((5, 3)), np.zeros((5, 3))],
                      ("scheme1", "scheme3"))
    shallow, deep = rng.normal(0, 1, (2, 2, 5, 3))
    coarse, fine = M.heads_forward(params, shallow, deep, ws)
    fresh_coarse, fresh_fine = M.heads_forward(params, shallow, deep)
    assert coarse.tobytes() == fresh_coarse.tobytes()
    assert fine.tobytes() == fresh_fine.tobytes()


# The first 16 hex digits of the sha256 of a 3-epoch `train` (seed 5,
# d1 = 4, hidden = 4, d2 = 3) of every scheme, in `SCHEMES` order: each
# model's vector bytes, then its history's. Taken from the code before
# the step workspace, which allocated every array of a step. The bytes
# hang on the GEMM kernel, which sums in its own order, and on the
# OpenBLAS and numpy versions, so a table is kept per (kernel, OpenBLAS,
# numpy) that computed it, and any other skips
_PINNED_CASES = [(name, data, batch_size) for name in ("toy", "eight-groups")
                 for data in ("features", "precomputed") for batch_size in (7, 8)]
_OPENBLAS_0_3_31, _NUMPY_2_4_6 = "scipy-openblas 0.3.31.188.0", "2.4.6"
PINNED = {   # (kernel, OpenBLAS, numpy) -> a digest per case of _PINNED_CASES
    ("SkylakeX", _OPENBLAS_0_3_31, _NUMPY_2_4_6): (
        "dfddeeec46044294", "b4f6affb056af150", "b8033ebdaa206665", "8f1b221fee965b92",
        "df96f3a3c2129ef3", "57cdb608ab5df596", "b3abffe4356ab9c3", "b96c90d4f694dbf5"),
    ("Haswell", _OPENBLAS_0_3_31, _NUMPY_2_4_6): (
        "dfddeeec46044294", "b4f6affb056af150", "b8033ebdaa206665", "8f1b221fee965b92",
        "54d27bf0b14c4a29", "b8fbff8a1d08e3f9", "f3387c42715d7cf6", "b96c90d4f694dbf5"),
    ("Sandybridge", _OPENBLAS_0_3_31, _NUMPY_2_4_6): (
        "644b79b44c4b4947", "88d0074cabae7068", "b8e13eb9b2ff1e37", "38930857038fd914",
        "c5f97b2ebf9d58a0", "7b0142c2a7f90096", "a7f05b6d768185b3", "bce69937527e957b"),
    ("Nehalem", _OPENBLAS_0_3_31, _NUMPY_2_4_6): (
        "1c8e240784036985", "c2e37c8ce22c0175", "a49dda582db2a6ff", "abf09968d56f268a",
        "8e9436daebf4cc68", "3bb9462aa0404247", "f4179f65efd06872", "17fe1fa270b91e08"),
    ("Katmai", _OPENBLAS_0_3_31, _NUMPY_2_4_6): (
        "644b79b44c4b4947", "88d0074cabae7068", "b8e13eb9b2ff1e37", "38930857038fd914",
        "409560b622632a4a", "5f32564a0d2ac65f", "2aa1a69abb7643e2", "617955e92fd6b789"),
}


def _trained_digest(runs) -> str:
    digest = hashlib.sha256()
    for params, history in runs:
        digest.update(params.vector.tobytes())
        digest.update(np.array(history).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("batch_size", [7, 8])
@pytest.mark.parametrize("data", ["features", "precomputed"])
@pytest.mark.parametrize("name", ["toy", "eight-groups"])
def test_train_is_pinned(toy_taxonomy, name, data, batch_size):
    """Every byte `train` writes, in lockstep and for each scheme alone, is
    pinned: a change to the step that moves bits everywhere keeps the
    models trained in lockstep equal to the solo ones, and fails here.
    Batches of 7 leave a ragged last batch (of one row with eight
    groups) and take the mean by division; batches of 8, a power of two,
    by a multiply."""
    env = blas_environment()
    key = (env["kernel"], env["openblas"], env["numpy"])
    if key not in PINNED:
        pytest.skip(f"no trained bytes pinned for the kernel, OpenBLAS and numpy {key}")
    taxonomy = toy_taxonomy if name == "toy" else EIGHT_GROUPS
    ds = _dataset(taxonomy, data)
    cfg = T.TrainConfig(epochs=3, batch_size=batch_size, seed=5, d1=4, hidden=4, d2=3)
    lockstep = T.train(cfg, ds, taxonomy, list(T.SCHEMES))
    solo = [T.train(dataclasses.replace(cfg, scheme=scheme), ds, taxonomy) for scheme in T.SCHEMES]
    pinned = PINNED[key][_PINNED_CASES.index((name, data, batch_size))]
    assert _trained_digest(lockstep[scheme] for scheme in T.SCHEMES) == pinned
    assert _trained_digest(solo) == pinned
