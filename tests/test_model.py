import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierfish import model as M
from hierfish.taxonomy import Taxonomy, default_taxonomy
from hierfish.errors import (
    DimensionMismatch,
    EmptyInput,
    MalformedDocument,
    NonFiniteActivation,
    NonFiniteInput,
    TaxonomyMismatch,
)

from conftest import random_simplex


class TestStableSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(M.stable_softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        a = M.stable_softmax([0.3, -1.2, 2.0])
        b = M.stable_softmax([0.3 + 100.0, -1.2 + 100.0, 2.0 + 100.0])
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_no_overflow_extreme_logits(self):
        # oracle: 1/(1+e^-1000) is 1.0 to double precision
        with np.errstate(over="raise"):
            p = M.stable_softmax([1000.0, 0.0])
        assert p[0] == pytest.approx(1.0, abs=1e-300)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10),
           st.floats(-1e6, 1e6))
    def test_properties(self, logits, shift):
        p = M.stable_softmax(logits)
        assert abs(p.sum() - 1.0) <= 1e-12
        # logit differences below float resolution can tie after exp,
        # so assert the logit argmax attains the output maximum
        assert p[int(np.argmax(logits))] == p.max()
        shifted = M.stable_softmax(np.asarray(logits) + shift)
        np.testing.assert_allclose(p, shifted, atol=1e-12)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            M.stable_softmax(np.array([]))
        with pytest.raises(NonFiniteInput):
            M.stable_softmax([np.nan, 0.0])
        with pytest.raises(NonFiniteInput):
            M.stable_softmax([np.inf, 0.0])


class TestJointScores:
    def test_direct_product(self):
        joint = M.joint_scores([0.5, 0.5], [np.array([1.0]), np.array([0.6, 0.4])])
        np.testing.assert_allclose(joint, [0.5, 0.3, 0.2], atol=1e-15)

    def test_uniform(self, six31):
        coarse = np.full(6, 1 / 6)
        fine = [np.full(n, 1 / n) for n in six31.group_sizes]
        joint = M.joint_scores(coarse, fine)
        for s in range(six31.S):
            g, _ = six31.to_local(s)
            assert joint[s] == pytest.approx(1 / (6 * six31.group_sizes[g]), abs=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        sizes = [2, 3, 4]
        coarse = random_simplex(rng, 3)
        fine = [random_simplex(rng, n) for n in sizes]
        joint = M.joint_scores(coarse, fine)
        # independent oracle: explicit nested loop product and sum
        expected = []
        for g, n in enumerate(sizes):
            for i in range(n):
                expected.append(coarse[g] * fine[g][i])
        np.testing.assert_allclose(joint, expected, atol=1e-12)
        assert abs(sum(expected) - 1.0) <= 1e-12
        assert abs(joint.sum() - 1.0) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            M.joint_scores([0.5, 0.5], [np.array([1.0])])


def _toy_params(tiny_taxonomy):
    """2-group/3-species model with hand-set weights, d_in=2, d1=2, h=2, d2=2."""
    p = M.init_params(tiny_taxonomy, d_in=2, d1=2, hidden=2, d2=2, seed=0)
    weights = {"W1": [[0.5, -0.2], [0.1, 0.4]], "b1": [0.05, -0.1],
               "W2": [[0.3, 0.7], [-0.6, 0.2]], "b2": [0.1, 0.0],
               "Wc1": [[1.0, -0.5], [0.2, 0.8]], "bc1": [0.0, 0.1],
               "Wc2": [[0.4, -0.3], [-0.2, 0.6]], "bc2": [0.05, -0.05],
               "Wf0": [[0.9, -0.4], [0.3, 0.2]], "Wf1": [[0.5], [-0.7]],
               "bf0": [0.1, -0.1], "bf1": [0.0],
               "Wl1": [[0.6, -0.1], [0.2, 0.5]], "bl1": [-0.05, 0.05],
               "Wl2": [[0.3, -0.2, 0.4], [0.1, 0.6, -0.5]], "bl2": [0.0, 0.1, -0.1]}
    for name, value in weights.items():
        assert p.get(name).shape == np.shape(value)
        p.get(name)[...] = value
    return p


def _oracle_softmax(z):
    e = [np.exp(v) for v in z]
    s = sum(e)
    return [v / s for v in e]


def _oracle_forward(p, x):
    """From-scratch scalar-arithmetic forward pass, independent of model.py."""
    def dense(v, W, b):
        return [sum(v[k] * W[k][j] for k in range(len(v))) + b[j]
                for j in range(len(b))]

    def relu(v):
        return [max(u, 0.0) for u in v]

    shallow = relu(dense(x, p.W1, p.b1))
    deep = relu(dense(shallow, p.W2, p.b2))
    coarse = _oracle_softmax(dense(relu(dense(shallow, p.Wc1, p.bc1)), p.Wc2, p.bc2))
    fine = [_oracle_softmax(dense(deep, p.Wf[g], p.bf[g])) for g in range(2)]
    joint = [coarse[g] * fine[g][i] for g in range(2) for i in range(len(fine[g]))]
    flat = _oracle_softmax(dense(relu(dense(deep, p.Wl1, p.bl1)), p.Wl2, p.bl2))
    return coarse, fine, joint, flat


class TestForward:
    def test_zero_weights_uniform(self, tiny_taxonomy):
        p = M.init_params(tiny_taxonomy, d_in=3, d1=2, hidden=2, d2=2, seed=0)
        for _, arr in p.fields():
            arr[...] = 0.0
        out = M.forward(p, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(out.coarse, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(out.fine_local[0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(out.fine_local[1], [1.0], atol=1e-15)
        np.testing.assert_allclose(out.joint, [0.25, 0.25, 0.5], atol=1e-15)
        np.testing.assert_allclose(M.forward_flat(p, np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    def test_matches_independent_oracle(self, tiny_taxonomy):
        p = _toy_params(tiny_taxonomy)
        x = np.array([0.8, -1.3])
        out = M.forward(p, x)
        flat = M.forward_flat(p, x)
        coarse, fine, joint, flat_o = _oracle_forward(p, list(x))
        np.testing.assert_allclose(out.coarse, coarse, atol=1e-12)
        for g in range(2):
            np.testing.assert_allclose(out.fine_local[g], fine[g], atol=1e-12)
        np.testing.assert_allclose(out.joint, joint, atol=1e-12)
        np.testing.assert_allclose(flat, flat_o, atol=1e-12)

    def test_random_params_joint_sums_to_one(self, toy_taxonomy):
        for seed in range(20):
            p = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=seed)
            rng = np.random.default_rng(seed)
            out = M.forward(p, rng.normal(0, 2, 5))
            assert abs(out.coarse.sum() - 1.0) <= 1e-9
            for f in out.fine_local:
                assert abs(f.sum() - 1.0) <= 1e-9
            assert abs(out.joint.sum() - 1.0) <= 1e-9

    def test_precomputed_reproduces_trunk_bitwise(self, tiny_taxonomy):
        p = _toy_params(tiny_taxonomy)
        x = np.array([0.8, -1.3])
        _, shallow, _, deep = M.trunk_features(p, x)
        out_trunk = M.forward(p, x)
        flat_trunk = M.forward_flat(p, x)
        q = p.copy()
        q.mode = M.MODE_PRECOMPUTED
        out_pre = M.forward(q, (shallow, deep))
        flat_pre = M.forward_flat(q, (shallow, deep))
        assert np.array_equal(out_trunk.coarse, out_pre.coarse)
        assert np.array_equal(out_trunk.joint, out_pre.joint)
        for a, b in zip(out_trunk.fine_local, out_pre.fine_local):
            assert np.array_equal(a, b)
        assert np.array_equal(flat_trunk, flat_pre)

    def test_dimension_mismatch(self, tiny_taxonomy):
        p = _toy_params(tiny_taxonomy)
        with pytest.raises(DimensionMismatch):
            M.forward(p, np.zeros(5))
        with pytest.raises(DimensionMismatch):
            M.forward(p, (np.zeros(2), np.zeros(2)))  # pair in trunk mode


def _per_group_heads(p, shallow, deep):
    """The hierarchical heads as one GEMM, check and softmax per group:
    the reference the segmented softmax must reproduce bit for bit."""
    zc2 = np.maximum(shallow @ p.Wc1 + p.bc1, 0.0) @ p.Wc2 + p.bc2
    coarse = M.stable_softmax(zc2)
    fine_local = []
    for g in range(p.G):
        zf = deep @ p.Wf[g] + p.bf[g]
        if not np.isfinite(zf).all():
            raise NonFiniteActivation(f"non-finite values in fine head {g}")
        fine_local.append(M.stable_softmax(zf))
    return coarse, fine_local, M.joint_scores(coarse, fine_local)


def _sized(*sizes):
    return Taxonomy(groups=tuple(f"G{g}" for g in range(len(sizes))),
                    species_by_group=tuple(tuple(f"G{g}s{i}" for i in range(n))
                                           for g, n in enumerate(sizes)))


def _wide(G, n):
    return _sized(*[n] * G)


# fine heads in runs of equal size: mixed runs, one group, only
# one-species groups, and runs of heads wide enough (n >= 8) that numpy
# sums them pairwise
RUN_TAXONOMIES = {"mixed": _sized(3, 3, 1, 4, 4, 4, 2), "one-group": _sized(5),
                  "one-species": _sized(1, 1, 1, 1), "wide-runs": _sized(9, 9, 12, 12, 12, 2)}


def _random_heads(taxonomy, seed, batch):
    p = M.init_params(taxonomy, seed=seed)
    rng = np.random.default_rng(seed)
    p.vector[...] = rng.normal(0.0, 1.5, p.vector.shape)
    lead = () if batch is None else (batch,)
    return (p, np.abs(rng.normal(0.0, 2.0, lead + (p.d1,))),
            np.abs(rng.normal(0.0, 2.0, lead + (p.d2,))))


class _Counted:
    """A ufunc stand-in that counts its calls and reductions."""

    def __init__(self, ufunc):
        self.ufunc, self.calls = ufunc, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.ufunc(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.calls += 1
        return self.ufunc.reduce(*args, **kwargs)


class _MatmulCounted(np.ndarray):
    """Weights that count the matmul calls they take part in, `@` and
    `np.matmul` alike; every other ufunc runs on them as plain arrays."""
    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulCounted.calls += 1
        plain = [x.view(np.ndarray) if isinstance(x, _MatmulCounted) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestSegmentedSoftmax:
    @pytest.mark.parametrize("taxonomy", [default_taxonomy(), _wide(24, 5),
                                          *RUN_TAXONOMIES.values()],
                             ids=["6x31", "24x5", *RUN_TAXONOMIES])
    @pytest.mark.parametrize("batch", [None, 1, 7, 32])
    def test_bit_identical_to_per_group_heads(self, taxonomy, batch):
        for seed in range(6):
            p, shallow, deep = _random_heads(taxonomy, seed, batch)
            coarse, fine = M.heads_forward(p, shallow, deep)
            p.mode = M.MODE_PRECOMPUTED
            joint = M.forward(p, (shallow, deep)).joint
            ref_coarse, ref_fine, ref_joint = _per_group_heads(p, shallow, deep)
            assert fine.shape == ref_joint.shape
            assert np.array_equal(coarse, ref_coarse)
            for (a, b), ref in zip(taxonomy.spans, ref_fine, strict=True):
                assert np.array_equal(fine[..., a:b], ref)
            assert np.array_equal(joint, ref_joint)

    def test_forward_splits_the_fine_array_by_group(self, six31):
        p, shallow, deep = _random_heads(six31, 0, 7)
        p.mode = M.MODE_PRECOMPUTED
        out = M.forward(p, (shallow, deep))
        assert [f.shape for f in out.fine_local] == [(7, n) for n in six31.group_sizes]
        for f, ref in zip(out.fine_local, _per_group_heads(p, shallow, deep)[1]):
            assert np.array_equal(f, ref)

    @pytest.mark.parametrize("taxonomy, runs", [(_wide(24, 5), 1), (default_taxonomy(), 5),
                                                (RUN_TAXONOMIES["mixed"], 4)],
                             ids=["24x5", "6x31", "mixed"])
    def test_one_gemm_and_one_sum_per_run(self, taxonomy, runs, monkeypatch):
        """The fine heads cost one matmul and one sum reduction per run of
        equal-size heads, not one per group; the coarse head adds its two
        matmuls and its softmax's sum."""
        p, shallow, deep = _random_heads(taxonomy, 0, 8)
        assert len(p.fine_runs) == runs

        matmul, add = _Counted(np.matmul), _Counted(np.add)
        monkeypatch.setattr(np, "matmul", matmul)
        monkeypatch.setattr(np, "add", add)
        M.heads_forward(p, shallow, deep)
        assert matmul.calls == runs + 2
        assert add.calls == runs + 1

    @pytest.mark.parametrize("taxonomy, runs", [(_wide(24, 5), 1), (default_taxonomy(), 5)],
                             ids=["24x5", "6x31"])
    def test_segments_split_only_the_gemms(self, taxonomy, runs, monkeypatch):
        """A stack of n tracks, (n, T, ·), costs one matmul call per layer,
        `@` included, as one track does: every GEMM of the heads is one
        call over all n tracks, and the softmaxes' sums one per run and one
        for the coarse head."""
        p, shallow, deep = _random_heads(taxonomy, 0, 8)
        p = M.ModelParams(p.mode, p.vector.view(_MatmulCounted), p.taxonomy, p.dims)
        add = _Counted(np.add)
        monkeypatch.setattr(np, "add", add)
        monkeypatch.setattr(_MatmulCounted, "calls", 0)
        M.heads_forward(p, shallow.reshape(4, 2, -1), deep.reshape(4, 2, -1))
        assert _MatmulCounted.calls == runs + 2   # the coarse head's two too
        assert add.calls == runs + 1
        _MatmulCounted.calls = 0
        M.forward(p, np.ones((4, 2, p.d_in)))
        M.forward_flat(p, np.ones((4, 2, p.d_in)))
        assert _MatmulCounted.calls == (2 + runs + 2) + (2 + 2)

    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    @pytest.mark.parametrize("taxonomy", [default_taxonomy(), _wide(24, 5),
                                          *RUN_TAXONOMIES.values()],
                             ids=["6x31", "24x5", *RUN_TAXONOMIES])
    def test_each_segment_is_its_rows_alone(self, taxonomy, mode):
        """Item j of a forward over n tracks of T frames stacked as
        (n, T, ·) is, byte for byte, the forward of track j alone, for
        `forward` and `forward_flat`, one-frame tracks too."""
        rng = np.random.default_rng(4)
        p = M.init_params(taxonomy, d_in=6, seed=2, mode=mode)
        p.vector[...] += rng.normal(0.0, 0.5, p.vector.shape)
        for n, T in [(1, 1), (9, 1), (1, 12), (5, 3), (3, 40)]:
            if mode == M.MODE_TRUNK:
                x = rng.normal(0.0, 2.0, (n, T, 6))
            else:
                x = tuple(np.abs(rng.normal(0.0, 2.0, (n, T, d))) for d in (p.d1, p.d2))
            out, flat = M.forward(p, x), M.forward_flat(p, x)
            assert out.joint.shape == (n, T, taxonomy.S) and flat.shape == (n, T, taxonomy.S)
            for j in range(n):
                track = x[j].copy() if mode == M.MODE_TRUNK else tuple(v[j].copy() for v in x)
                alone, got = M.forward(p, track), out[j]
                for name in ("coarse", "joint"):
                    assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), name
                for f, ref in zip(got.fine_local, alone.fine_local, strict=True):
                    assert f.tobytes() == ref.tobytes()
                assert flat[j].tobytes() == M.forward_flat(p, track).tobytes()

    def test_fine_local_is_read_only_views(self, six31):
        p, shallow, deep = _random_heads(six31, 0, 7)
        p.mode = M.MODE_PRECOMPUTED
        out = M.forward(p, (shallow, deep))
        assert len(out.fine_local) == six31.G
        for (a, b), f in zip(six31.spans, out.fine_local, strict=True):
            assert np.shares_memory(f, out.fine_local.fine) and f.shape == (7, b - a)
        with pytest.raises(TypeError):
            out.fine_local[0] = np.zeros((7, 5))

    @pytest.mark.parametrize("batch", [None, 7])
    def test_first_non_finite_fine_head_is_named(self, six31, batch):
        p, shallow, deep = _random_heads(six31, 1, batch)
        p.bf[3][1] = np.inf
        p.bf[4][0] = np.nan
        with pytest.raises(NonFiniteActivation, match="non-finite values in fine head 3$"):
            _per_group_heads(p, shallow, deep)
        with pytest.raises(NonFiniteActivation, match="non-finite values in fine head 3$"):
            M.heads_forward(p, shallow, deep)
        p.bc2[0] = np.nan   # the coarse head is checked first
        with pytest.raises(NonFiniteActivation, match="non-finite values in coarse head$"):
            M.heads_forward(p, shallow, deep)
        p.bl2[0] = np.inf   # the flat head, the same MLP head, checks its own
        with pytest.raises(NonFiniteActivation, match="non-finite values in flat head$"):
            M.flat_forward(p, deep)

    def test_empty_batch(self, six31):
        p = M.init_params(six31, seed=0)
        with pytest.raises(EmptyInput):
            M.heads_forward(p, np.empty((0, p.d1)), np.empty((0, p.d2)))
        with pytest.raises(EmptyInput):
            M.forward(p, np.empty((0, p.d_in)))


class TestParamsLayout:
    def test_assigning_a_field_writes_through(self, tiny_taxonomy):
        p = M.init_params(tiny_taxonomy, d_in=2, d1=2, hidden=2, d2=2, seed=0)
        vector, x = p.vector, np.array([0.8, -1.3])
        before = M.forward(p, x)
        p.bf[0][...] = [3.0, -3.0]
        p.get("bf1")[...] = 0.5
        p.W1[...] = np.eye(2)
        assert p.vector is vector
        assert vector[:4].tolist() == [1.0, 0.0, 0.0, 1.0]   # W1 comes first
        assert vector[-3:].tolist() == [3.0, -3.0, 0.5]      # bf comes last
        assert p.fine_bias.tolist() == [3.0, -3.0, 0.5]
        shapes = M.weight_shapes(tiny_taxonomy, d_in=2, d1=2, hidden=2, d2=2)
        ref = M.ModelParams(p.mode, np.concatenate([p.get(name).ravel() for name in shapes]),
                            tiny_taxonomy, dict(d_in=2, d1=2, hidden=2, d2=2))
        after, expected = M.forward(p, x), M.forward(ref, x)
        assert not np.array_equal(after.joint, before.joint)
        assert np.array_equal(after.joint, expected.joint)
        for got, want in zip(after.fine_local, expected.fine_local, strict=True):
            assert np.array_equal(got, want)

    def test_fields_cannot_be_replaced_or_resized(self, tiny_taxonomy):
        p = M.init_params(tiny_taxonomy, d_in=2, d1=2, hidden=2, d2=2, seed=0)
        saved = p.vector.copy()
        with pytest.raises(TypeError):
            p.bf[0] = np.zeros(2)
        with pytest.raises(AttributeError, match="'b1' is a view"):
            p.b1 = np.zeros(3)
        with pytest.raises(AttributeError, match="'Wf' is a view"):
            p.Wf = [np.zeros((2, 2))]
        assert np.array_equal(p.vector, saved)
        p.mode = M.MODE_PRECOMPUTED   # an attribute that is no view is set
        assert p.mode == M.MODE_PRECOMPUTED

    @pytest.mark.parametrize("name", ["W1", "Wf", "bf", "fine_bias", "vector"])
    def test_rebinding_a_view_raises_and_keeps_the_vector(self, six31, name):
        """A right-shaped value is refused too: the attribute stays the
        view, and the vector its bytes."""
        p = M.init_params(six31, seed=4).tile(2)
        view, saved = getattr(p, name), p.vector.copy()
        value = (tuple(np.ones_like(a) for a in view) if isinstance(view, tuple)
                 else np.ones_like(view))
        with pytest.raises(AttributeError, match=f"'{name}' is a view"):
            setattr(p, name, value)
        assert getattr(p, name) is view
        assert np.array_equal(p.vector, saved)

    def test_built_models_derive_no_layout(self, six31, monkeypatch):
        """The layout is derived once per taxonomy and dims: a model's
        stacks, copies and views only cut views from it."""
        p = M.init_params(six31, seed=0)
        stacked = p.tile(3)
        calls = []
        shapes = M.weight_shapes
        monkeypatch.setattr(M, "weight_shapes", lambda *a, **k: calls.append(a) or shapes(*a, **k))
        for q in (p.tile(3), p.copy(), p.zeros_like(), stacked.copy(), stacked.zeros_like(),
                  stacked.rows(0, 2), stacked.rows(1, 3), stacked.row(0), stacked.row(2)):
            assert q.taxonomy is six31
        assert calls == []

    def test_seeded_init_is_pinned(self, six31):
        """The weights every seeded run starts from: the fine heads draw
        first, then the other matrices in layout order."""
        p = M.init_params(six31, seed=7)
        assert hashlib.sha256(p.vector.tobytes()).hexdigest() == (
            "04fc546e22d3def79acea54db2c55a77eb0d22cca2e39d959e66cbb8e6efeab1")

    def test_every_copy_and_view_keeps_its_taxonomy(self, tmp_path, toy_taxonomy):
        """A model is built for one taxonomy: a loaded checkpoint and every
        stack, view and copy read that taxonomy's tables, not copies."""
        p = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=9)
        path = str(tmp_path / "ckpt.json")
        M.save_checkpoint(p, path)
        q, stacked = M.load_checkpoint(path, toy_taxonomy), p.tile(3)
        for params in (p, q, stacked, stacked.rows(1, 3), stacked.row(2), q.tile(2).row(0),
                       p.zeros_like(), p.copy(), stacked.zeros_like(), stacked.copy()):
            assert params.taxonomy is toy_taxonomy

    def test_vector_must_fit_the_layout(self, tiny_taxonomy):
        dims = dict(d_in=2, d1=2, hidden=2, d2=2)
        P = M.init_params(tiny_taxonomy, **dims).vector.size
        for size in (P - 1, P + 1):
            with pytest.raises(DimensionMismatch, match=f"{P} weights"):
                M.ModelParams(M.MODE_TRUNK, np.zeros(size), tiny_taxonomy, dims)

    def test_stacked_forward_is_each_row_forward(self, six31):
        """K stacked models run through the one forward by broadcasting,
        each bit-identical to its row alone."""
        rng = np.random.default_rng(3)
        stacked = M.init_params(six31, seed=1).tile(3)
        stacked.vector[...] = rng.normal(0.0, 0.5, stacked.vector.shape)
        assert stacked.W1.shape == (3, 32, 24) and stacked.b1.shape == (3, 1, 24)
        X = rng.normal(size=(7, 32))
        _, shallow, _, deep = M.trunk_features(stacked, X)
        coarse, fine = M.heads_forward(stacked, shallow, deep)
        joint = M.forward(stacked, X).joint
        flat = M.flat_forward(stacked, deep)
        for k in range(3):
            row = stacked.row(k)
            assert np.shares_memory(row.vector, stacked.vector)
            out = M.forward(row, X)
            assert coarse[k].tobytes() == out.coarse.tobytes()
            assert joint[k].tobytes() == out.joint.tobytes()
            assert fine[k].tobytes() == np.concatenate(out.fine_local, axis=-1).tobytes()
            assert flat[k].tobytes() == M.forward_flat(row, X).tobytes()

    @pytest.mark.parametrize("taxonomy", [_wide(24, 5), RUN_TAXONOMIES["mixed"]],
                             ids=["24x5", "mixed"])
    def test_stacked_runs_are_each_row_forward(self, taxonomy):
        """The stacked (K, B, d2) forward of training runs each run as one
        (K, k, d2, n) GEMM, each row bit-identical to its model alone."""
        rng = np.random.default_rng(5)
        stacked = M.init_params(taxonomy, seed=1).tile(3)
        stacked.vector[...] = rng.normal(0.0, 0.5, stacked.vector.shape)
        X = rng.normal(size=(7, 32))
        _, shallow, _, deep = M.trunk_features(stacked, X)
        assert deep.shape == (3, 7, 16)
        coarse, fine = M.heads_forward(stacked, shallow, deep)
        joint = M.forward(stacked, X).joint
        for k in range(3):
            out = M.forward(stacked.row(k), X)
            assert coarse[k].tobytes() == out.coarse.tobytes()
            assert joint[k].tobytes() == out.joint.tobytes()
            assert fine[k].tobytes() == np.concatenate(out.fine_local, axis=-1).tobytes()

    @pytest.mark.parametrize("taxonomy", [default_taxonomy(), _wide(24, 5),
                                          *RUN_TAXONOMIES.values()],
                             ids=["6x31", "24x5", *RUN_TAXONOMIES])
    @pytest.mark.parametrize("K", [None, 2])
    def test_runs_are_views_of_each_head_once(self, taxonomy, K):
        """Each run is one view into `vector`: together the runs cover the
        groups in order, each `Wf{g}` exactly once, each run as long as its
        heads' sizes stay equal."""
        p = M.init_params(taxonomy, d_in=3, d1=2, hidden=2, d2=4, seed=0)
        if K:
            p = p.tile(K)
        groups, sizes = [], taxonomy.group_sizes
        for g, h, a, b, W in p.fine_runs:
            assert np.shares_memory(W, p.vector)
            assert W.shape == p.vector.shape[:-1] + (h - g, 4, sizes[g])
            assert (a, b) == (taxonomy.spans[g][0], taxonomy.spans[h - 1][1])
            assert set(sizes[g:h]) == {sizes[g]}
            for j, head in enumerate(range(g, h)):
                view, field = W[..., j, :, :], p.Wf[head]
                assert view.__array_interface__ == field.__array_interface__
            groups.extend(range(g, h))
        assert groups == list(range(taxonomy.G))
        assert all(sizes[h - 1] != sizes[h] for _, h, *_ in p.fine_runs[:-1])


class TestCheckpoint:
    def test_round_trip(self, tmp_path, toy_taxonomy):
        p = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=9)
        path = str(tmp_path / "ckpt.json")
        M.save_checkpoint(p, path)
        q = M.load_checkpoint(path, toy_taxonomy)
        assert q.mode == p.mode
        for (ka, a), (kb, b) in zip(p.fields(), q.fields()):
            assert ka == kb
            assert np.array_equal(a, b)

    def test_taxonomy_mismatch(self, tmp_path, toy_taxonomy, tiny_taxonomy):
        p = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=9)
        path = str(tmp_path / "ckpt.json")
        M.save_checkpoint(p, path)
        with pytest.raises(TaxonomyMismatch):
            M.load_checkpoint(path, tiny_taxonomy)

    @pytest.mark.parametrize("mutate, match", [
        (lambda doc: doc["weights"].pop("Wf1"), "'Wf1'"),
        (lambda doc: doc["weights"].pop("bl2"), "'bl2'"),
        (lambda doc: doc.pop("weights"), "'weights'"),
        (lambda doc: doc.pop("mode"), "'mode'"),
        (lambda doc: doc.pop("dims"), "'dims'"),
        (lambda doc: doc["dims"].pop("d2"), "'dims'"),
        (lambda doc: doc["dims"].update(d2=-1), "'dims'"),
        (lambda doc: doc.update(weights=[]), "'weights'"),
        (lambda doc: doc.update(mode="bogus"), "mode 'bogus'"),
        (lambda doc: doc["weights"].update(Wc2=[[0.0]]), r"'Wc2' has shape \(1, 1\)"),
        (lambda doc: doc["weights"].update(b1="x"), "'b1'"),
        (lambda doc: doc["dims"].update(d1=7), "'W1' has shape"),
        (lambda doc: doc["weights"]["W2"][1].__setitem__(0, float("nan")),
         "'W2' has non-finite"),
        (lambda doc: doc["weights"]["bf0"].__setitem__(0, float("inf")),
         "'bf0' has non-finite"),
        (lambda doc: doc["weights"].update(b1=["0.5", True, 0.0]), "convert '0.5' in 'b1'"),
        (lambda doc: doc["weights"]["Wc1"][2].__setitem__(1, True), "convert True in 'Wc1'"),
        (lambda doc: doc["weights"].update(Wf9=[[0.0]]), "unknown weight 'Wf9'"),
        (lambda doc: doc.pop("taxonomy_digest"), "'taxonomy_digest'"),
    ])
    def test_malformed_checkpoint_names_the_key(self, tmp_path, toy_taxonomy,
                                                  mutate, match):
        p = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=9)
        path = tmp_path / "ckpt.json"
        M.save_checkpoint(p, str(path))
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedDocument, match=match):
            M.load_checkpoint(str(path), toy_taxonomy)

    def test_absurd_dims_allocate_nothing(self, tmp_path, toy_taxonomy, monkeypatch):
        p = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=9)
        path = tmp_path / "ckpt.json"
        M.save_checkpoint(p, str(path))
        doc = json.loads(path.read_text())
        doc["dims"]["d_in"] = 10**9
        path.write_text(json.dumps(doc))

        def no_template(*args, **kwargs):
            raise AssertionError("load_checkpoint built an init_params template")

        monkeypatch.setattr(M, "init_params", no_template)
        with pytest.raises(MalformedDocument, match=r"'W1' has shape \(5, 4\)"):
            M.load_checkpoint(str(path), toy_taxonomy)

    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    def test_file_follows_the_layout(self, tmp_path, toy_taxonomy, mode):
        """The weights are written in `weight_shapes` order, and a loaded
        checkpoint saves to the same bytes."""
        dims = dict(d_in=5, d1=4, hidden=3, d2=2)
        p = M.init_params(toy_taxonomy, **dims, seed=9, mode=mode)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        M.save_checkpoint(p, str(first))
        weights = json.loads(first.read_text())["weights"]
        assert list(weights) == list(M.weight_shapes(toy_taxonomy, **dims))
        M.save_checkpoint(M.load_checkpoint(str(first), toy_taxonomy), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_not_an_object(self, tmp_path, toy_taxonomy):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2]")
        with pytest.raises(MalformedDocument):
            M.load_checkpoint(str(path), toy_taxonomy)

    def test_precomputed_round_trip(self, tmp_path, toy_taxonomy):
        p = M.init_params(toy_taxonomy, d_in=5, d1=4, hidden=3, d2=3, seed=9,
                          mode=M.MODE_PRECOMPUTED)
        path = str(tmp_path / "ckpt.json")
        M.save_checkpoint(p, path)
        q = M.load_checkpoint(path, toy_taxonomy)
        assert q.mode == M.MODE_PRECOMPUTED
        assert np.array_equal(p.vector, q.vector)
