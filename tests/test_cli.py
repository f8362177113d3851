import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierfish import cli
from hierfish import data as D
from hierfish import inference as I
from hierfish import model as M
from hierfish import training as T
from hierfish.errors import MalformedDocument
from hierfish.taxonomy import Taxonomy, default_taxonomy, load_taxonomy

SMALL_CONFIG = {
    "gen": {
        "tracks_total": 30,
        "frames_min": 2,
        "frames_max": 4,
        "dim": 6,
        "zipf_exponent": 1.0,
    },
    "train": {
        "epochs": 3,
        "d1": 5,
        "hidden": 4,
        "d2": 4,
        "batch_size": 16,
    },
    "split_ratio": 0.8,
    "seed": 11,
}

TAXONOMY = Taxonomy(
    groups=("A", "B"),
    species_by_group=(("a1", "a2"), ("b1", "b2", "b3")),
)


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    tax = tmp_path / "taxonomy.json"
    tax.write_text(TAXONOMY.to_json())
    return tmp_path


def run(args):
    return cli.main([str(a) for a in args])


class TestPipeline:
    def test_end_to_end(self, workspace):
        ws = workspace
        cfg = ws / "config.json"
        tax = ws / "taxonomy.json"

        assert run(["gen", "--config", cfg, "--taxonomy", tax,
                    "--seed", 11, "--out", ws / "data"]) == 0
        assert (ws / "data" / "dataset.jsonl").exists()

        assert run(["split", "--config", cfg, "--taxonomy", tax,
                    "--data", ws / "data" / "dataset.jsonl",
                    "--seed", 11, "--out", ws / "splits"]) == 0
        assert (ws / "splits" / "train.jsonl").exists()
        assert (ws / "splits" / "eval.jsonl").exists()

        assert run(["train", "--config", cfg, "--taxonomy", tax,
                    "--data", ws / "splits" / "train.jsonl",
                    "--scheme", "scheme3", "--seed", 11,
                    "--out", ws / "run"]) == 0
        assert (ws / "run" / "model.json").exists()
        with open(ws / "run" / "loss.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + SMALL_CONFIG["train"]["epochs"]

        assert run(["search-threshold", "--taxonomy", tax,
                    "--model", ws / "run" / "model.json",
                    "--data", ws / "splits" / "eval.jsonl",
                    "--out", ws / "run"]) == 0
        with open(ws / "run" / "threshold.json") as f:
            tau = json.load(f)["tau"]

        assert run(["eval", "--taxonomy", tax,
                    "--model", ws / "run" / "model.json",
                    "--data", ws / "splits" / "eval.jsonl",
                    "--threshold", tau, "--scheme", "scheme3",
                    "--out", ws / "report"]) == 0
        with open(ws / "report" / "report.json") as f:
            report = json.load(f)
        va = report["units"]["video_avg"]
        # searched threshold never degrades the searched unit
        assert va["level2c_acc"] >= va["level2b_acc"]

        assert run(["infer", "--taxonomy", tax,
                    "--model", ws / "run" / "model.json",
                    "--data", ws / "splits" / "eval.jsonl",
                    "--threshold", tau, "--unit", "video_avg",
                    "--out", ws / "preds"]) == 0
        with open(ws / "preds" / "predictions.jsonl") as f:
            preds = [json.loads(line) for line in f]
        n_eval_tracks = len({json.loads(line)["track_id"]
                             for line in open(ws / "splits" / "eval.jsonl")})
        assert len(preds) == n_eval_tracks
        for p in preds:
            assert p["unit"] == "video_avg"
            assert p["level"] in ("coarse", "fine")
            assert 0.0 <= p["confidence"] <= 1.0

    def test_train_zero_epochs_is_seeded_init(self, workspace):
        ws = workspace
        run(["gen", "--config", ws / "config.json",
             "--taxonomy", ws / "taxonomy.json", "--seed", 11,
             "--out", ws / "data"])
        run(["split", "--config", ws / "config.json",
             "--taxonomy", ws / "taxonomy.json",
             "--data", ws / "data" / "dataset.jsonl", "--seed", 11,
             "--out", ws / "splits"])
        assert run(["train", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json",
                    "--data", ws / "splits" / "train.jsonl",
                    "--scheme", "scheme3", "--seed", 11, "--epochs", 0,
                    "--out", ws / "run0"]) == 0
        tax = load_taxonomy((ws / "taxonomy.json").read_text())
        got = M.load_checkpoint(str(ws / "run0" / "model.json"), tax)
        ref = M.init_params(tax, d_in=6, d1=5, hidden=4, d2=4, seed=11)
        for key, arr in ref.fields():
            assert np.array_equal(arr, got.get(key))

    def test_seed_rule(self, workspace):
        """--seed, else the config's top-level seed, else 0, for gen and train."""
        ws = workspace
        cfg = {**SMALL_CONFIG, "seed": 7}
        (ws / "seeded.json").write_text(json.dumps(cfg))
        del cfg["seed"]
        (ws / "unseeded.json").write_text(json.dumps(cfg))
        tax = ws / "taxonomy.json"
        outs = {}
        for name, args in [("config", ["--config", ws / "seeded.json"]),
                           ("flag", ["--config", ws / "unseeded.json", "--seed", 7]),
                           ("flag_wins", ["--config", ws / "seeded.json", "--seed", 0]),
                           ("default", ["--config", ws / "unseeded.json"])]:
            assert run(["gen", *args, "--taxonomy", tax, "--out", ws / name]) == 0
            assert run(["train", *args, "--taxonomy", tax, "--out", ws / name,
                        "--data", ws / name / "dataset.jsonl"]) == 0
            outs[name] = [(ws / name / f).read_bytes() for f in ("dataset.jsonl", "model.json")]
        assert outs["config"] == outs["flag"]
        assert outs["flag_wins"] == outs["default"]
        assert outs["config"][0] != outs["default"][0]
        assert outs["config"][1] != outs["default"][1]


def _tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


class TestAblation:
    def test_runs_and_is_byte_deterministic(self, workspace):
        ws = workspace
        args = ["ablation", "--config", ws / "config.json",
                "--taxonomy", ws / "taxonomy.json", "--seed", 11,
                "--schemes", "baseline,scheme1,scheme3"]
        assert run(args + ["--out", ws / "run_a"]) == 0
        assert run(args + ["--out", ws / "run_b"]) == 0
        a = _tree_bytes(ws / "run_a")
        b = _tree_bytes(ws / "run_b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"
        with open(ws / "run_a" / "ablation_table.csv") as f:
            rows = list(csv.reader(f))
        # header + 3 schemes x 3 units, the baseline's too
        assert len(rows) == 1 + 3 * 3
        schemes = {r[0] for r in rows[1:]}
        assert schemes == {"baseline", "scheme1", "scheme3"}

    def test_shared_loss_trains_once(self, workspace, monkeypatch):
        """scheme2 trains scheme3's loss, so an ablation over both trains
        once and gives the later scheme the same files and report."""
        ws = workspace
        calls, trained = [], set()   # train calls; the losses each step trains
        train, kernel = T.train, T._loss_and_grads
        monkeypatch.setattr(T, "train", lambda *args: calls.append(args) or train(*args))
        monkeypatch.setattr(T, "_loss_and_grads",
                            lambda space, table: trained.add(space.losses) or kernel(space, table))
        common = ["--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json"]
        assert run(["ablation", *common, "--seed", 11, "--schemes", "scheme3,scheme2",
                    "--out", ws / "run"]) == 0
        assert len(calls) == 1 and trained == {("scheme3",)}
        s3, s2 = _tree_bytes(ws / "run" / "scheme3"), _tree_bytes(ws / "run" / "scheme2")
        assert s3.keys() == s2.keys() >= {"model.json", "loss.csv", "threshold.json",
                                          "report.json", "table.csv"}
        for name in s3:
            if name == "report.json":
                a, b = json.loads(s3[name]), json.loads(s2[name])
                assert (a.pop("scheme"), b.pop("scheme")) == ("scheme3", "scheme2")
                assert a == b
            elif name == "table.csv":
                assert s3[name].replace(b"scheme3,", b"scheme2,") == s2[name]
            else:
                assert s3[name] == s2[name], f"{name} differs"
        with open(ws / "run" / "ablation_table.csv") as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == ["scheme3"] * 3 + ["scheme2"] * 3
        assert [r[1:] for r in rows[1:4]] == [r[1:] for r in rows[4:]]
        # the checkpoint written for scheme2 is the one it trains on its own
        assert run(["gen", *common, "--seed", 11, "--out", ws / "data"]) == 0
        assert run(["split", *common, "--seed", 11, "--data", ws / "data" / "dataset.jsonl",
                    "--out", ws / "splits"]) == 0
        assert run(["train", *common, "--seed", 11, "--data", ws / "splits" / "train.jsonl",
                    "--scheme", "scheme2", "--out", ws / "alone"]) == 0
        assert (ws / "alone" / "model.json").read_bytes() == s2["model.json"]

    def test_scores_eval_split_once_per_model(self, workspace, monkeypatch):
        """Threshold search and evaluation share one scoring of the eval
        split per distinct loss (scheme2 reuses scheme3's), the baseline's
        too."""
        ws = workspace
        scored = []
        stacked_forward = I.stacked_forward

        def counted(fn, params, tracks):
            for idx, out in stacked_forward(fn, params, tracks):
                scored.extend(tracks[k].track_id for k in idx)
                yield idx, out

        monkeypatch.setattr(I, "stacked_forward", counted)   # the one name score_split resolves
        assert run(["ablation", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json", "--seed", 11, "--out", ws / "run"]) == 0
        with open(ws / "run" / "scheme3" / "report.json") as f:
            n_eval = json.load(f)["units"]["video_avg"]["n_units"]
        assert len(scored) == n_eval * len(set(T.LOSSES.values())) == 3 * n_eval
        assert len(set(scored)) == n_eval

    def test_diverging_scheme_fails_before_any_file_is_written(self, workspace, capsys):
        ws = workspace
        (ws / "config.json").write_text(json.dumps(
            {**SMALL_CONFIG, "train": {**SMALL_CONFIG["train"], "learning_rate": 1e6}}))
        assert run(["ablation", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json", "--schemes", "scheme2,baseline",
                    "--out", ws / "run"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: (scheme2|baseline) diverged at epoch \d+; "
                            r"lower the learning rate\n", err), err
        assert not (ws / "run").exists()

    def test_repeated_scheme_flag_fails(self, workspace, capsys):
        ws = workspace
        assert run(["ablation", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json", "--seed", 11,
                    "--schemes", "scheme3,scheme3", "--out", ws / "x"]) == 1
        assert capsys.readouterr().err == "error: scheme 'scheme3' is listed twice\n"
        assert not (ws / "x").exists()

    def test_unknown_scheme_fails(self, workspace):
        ws = workspace
        assert run(["ablation", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json", "--seed", 11,
                    "--schemes", "scheme9", "--out", ws / "x"]) == 1

    def test_empty_scheme_flag_fails(self, workspace, capsys):
        """An empty --schemes names no scheme; it does not fall back to
        the config's list."""
        ws = workspace
        assert run(["ablation", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json", "--schemes", "",
                    "--out", ws / "x"]) == 1
        assert capsys.readouterr().err == "error: unknown scheme ''\n"
        assert not (ws / "x").exists()


class TestErrors:
    def test_missing_data_file(self, workspace):
        ws = workspace
        assert run(["train", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json",
                    "--data", ws / "nope.jsonl", "--out", ws / "x"]) != 0

    def test_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["gen", "--config", bad, "--out", tmp_path / "x"]) == 1

    def _train_on(self, ws, dataset):
        D.save_jsonl(dataset, str(ws / "frames.jsonl"))
        return run(["train", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json",
                    "--data", ws / "frames.jsonl", "--out", ws / "run"])

    def test_precomputed_data_without_config(self, workspace):
        """The data sets the input layout: precomputed pairs train and
        evaluate with no config."""
        ws = workspace
        raw = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                     frames_min=2, frames_max=3, dim=6, seed=1))
        probe = M.init_params(TAXONOMY, d_in=6, d1=5, hidden=4, d2=3, seed=2)
        for track in raw.tracks:
            _, track.shallow, _, track.deep = M.trunk_features(probe, track.features)
            track.features = None
        D.save_jsonl(raw, str(ws / "frames.jsonl"))
        common = ["--taxonomy", ws / "taxonomy.json", "--data", ws / "frames.jsonl"]
        assert run(["train", *common, "--epochs", 2, "--out", ws / "run"]) == 0
        params = M.load_checkpoint(str(ws / "run" / "model.json"), TAXONOMY)
        assert params.mode == M.MODE_PRECOMPUTED
        assert (params.d1, params.d2) == (5, 3)
        assert run(["eval", *common, "--model", ws / "run" / "model.json",
                    "--out", ws / "report"]) == 0
        assert (ws / "report" / "report.json").exists()

    def test_nan_feature(self, workspace, capsys):
        dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                         frames_min=2, frames_max=3, dim=6, seed=1))
        dataset.tracks[4].features[1, 0] = np.nan
        assert self._train_on(workspace, dataset) == 1
        err = capsys.readouterr().err
        tid = dataset.tracks[4].track_id
        assert err.startswith(f"error: track '{tid}' frame 1: non-finite")
        assert "learning rate" not in err

    @pytest.mark.parametrize("key", ["features", "shallow", "deep"])
    def test_empty_vector(self, workspace, capsys, key):
        """A frame vector with no values is refused where the file is read,
        in either data mode, as one error line naming the line and key."""
        ws = workspace
        dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                         frames_min=2, frames_max=3, dim=6, seed=1))
        D.save_jsonl(dataset, str(ws / "frames.jsonl"))
        lines = []
        for line in (ws / "frames.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if key != "features":
                features = rec.pop("features")
                rec["shallow"], rec["deep"] = features[:5], features[:3]
            rec[key] = []
            lines.append(json.dumps(rec) + "\n")
        (ws / "empty.jsonl").write_text("".join(lines))
        assert run(["train", "--taxonomy", ws / "taxonomy.json", "--data", ws / "empty.jsonl",
                    "--out", ws / "run"]) == 1
        assert capsys.readouterr().err == f"error: line 1: {key!r} is empty\n"

    @pytest.mark.parametrize("command", ["train", "ablation"])
    def test_model_too_large_allocates_nothing(self, workspace, capsys, monkeypatch, command):
        ws = workspace
        (ws / "config.json").write_text(json.dumps({"train": {"hidden": 10**20}}))
        monkeypatch.setattr(M, "init_params", None)   # must not be reached
        dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                         frames_min=2, frames_max=3, dim=6, seed=1))
        if command == "train":
            assert self._train_on(ws, dataset) == 1
        else:
            assert run(["ablation", "--config", ws / "config.json",
                        "--taxonomy", ws / "taxonomy.json", "--out", ws / "run"]) == 1
        err = capsys.readouterr().err
        models = 1 if command == "train" else 3
        assert err.startswith(f"error: {models} model(s) of d1=24, hidden={10**20}, d2=16 ")
        assert "lower hidden, d1 or d2" in err and "Traceback" not in err

    def test_malformed_checkpoint(self, workspace, capsys):
        ws = workspace
        dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                         frames_min=2, frames_max=3, dim=6, seed=1))
        D.save_jsonl(dataset, str(ws / "frames.jsonl"))
        params = M.init_params(TAXONOMY, d_in=6, d1=5, hidden=4, d2=4, seed=1)
        M.save_checkpoint(params, str(ws / "model.json"))
        doc = json.loads((ws / "model.json").read_text())
        del doc["weights"]["Wf1"]
        (ws / "model.json").write_text(json.dumps(doc))
        assert run(["eval", "--taxonomy", ws / "taxonomy.json",
                    "--model", ws / "model.json", "--data", ws / "frames.jsonl",
                    "--out", ws / "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'Wf1'" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command, config, match", [
    ("gen", {"gen": {"tracks_total": "70"}}, "'gen.tracks_total' must be of type int"),
    ("gen", {"gen": {"sigma_frame": "3"}}, "'gen.sigma_frame' must be of type float"),
    ("gen", {"gen": []}, "'gen' must be an object"),
    ("gen", {"gen": {"dim": 0}}, "dim=0 < 1"),
    ("train", {"train": {"epochs": "2"}}, "'train.epochs' must be of type int"),
    ("train", {"train": {"batch_size": True}}, "'train.batch_size' must be of type int"),
    ("train", {"train": {"scheme": 3}}, "'train.scheme' must be of type str"),
    ("ablation", {"split_ratio": "0.8"}, "'split_ratio' must be of type float"),
    ("ablation", {"train": {"bogus": 3}}, "unknown train config keys: ['bogus']"),
    ("ablation", {"seed": "3"}, "'seed' must be of type int"),
    ("ablation", {"seed": True}, "'seed' must be of type int"),
    ("ablation", {"seed": -1}, "seed must be >= 0"),
    ("ablation", {"schemes": "scheme1"}, "'schemes' must be a list"),
    ("split", {"split_ration": 0.5}, "unknown config keys: ['split_ration']"),
    # keys that the data or the seed rule now decide
    ("train", {"train": {"mode": "precomputed"}}, "unknown train config keys: ['mode']"),
    ("train", {"train": {"d_in": 6}}, "unknown train config keys: ['d_in']"),
    ("train", {"train": {"seed": 4}}, "unknown train config keys: ['seed']"),
    ("gen", {"gen": {"seed": 4}}, "unknown gen config keys: ['seed']"),
    ("ablation", {"schemes": ["scheme1", "scheme3", "scheme1"]},
     "scheme 'scheme1' is listed twice"),
    pytest.param("gen", b"\xff{}", "config.json: not UTF-8: 'utf-8' codec",
                 id="gen-\xff{}-is not valid JSON"),
    pytest.param("gen", "taxonomy", "taxonomy.json: not UTF-8: 'utf-8' codec",
                 id="gen-taxonomy-is not UTF-8"),
    # values of the right type but out of range
    ("gen", {"gen": {"tracks_total": 10**20}}, "tracks_total * frames_max * dim"),
    ("gen", {"gen": {"zipf_exponent": float("nan")}}, "zipf_exponent must be finite"),
    ("gen", {"gen": {"sigma_frame": -1.0}}, "sigma_frame must be finite and >= 0"),
    ("train", {"train": {"learning_rate": float("nan")}}, "learning_rate must be finite"),
    ("train", {"train": {"d1": 0}}, "d1 must be >= 1"),
    ("ablation", {"schemes": []}, "'schemes' must list at least one scheme"),
    ("gen", {"gen": {"sigma_frame": -0.0}}, "sigma_frame must be finite and >= 0, not -0.0"),
])
def test_malformed_config_is_an_error(workspace, capsys, command, config, match):
    ws = workspace
    cfg, tax = ws / "config.json", ws / "taxonomy.json"
    if config == "taxonomy":
        tax.write_bytes(b"\xff" + tax.read_bytes())
    elif isinstance(config, bytes):
        cfg.write_bytes(config)
    else:
        cfg.write_text(json.dumps(config))
    data = ["--data", ws / "nope.jsonl"] if command in ("split", "train") else []
    assert run([command, "--config", cfg, "--taxonomy", tax, *data,
                "--out", ws / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert "Traceback" not in err


def test_checkpoint_commands_on_a_taxonomy_of_301_species(workspace):
    """`tracks_total >= 2*S` binds only what generates data: the default
    600 tracks cannot cover 301 species, yet a checkpoint and its data
    serve every command that reads them."""
    ws = workspace
    names = [f"s{k}" for k in range(301)]
    tax = Taxonomy(groups=("A", "B"), species_by_group=(tuple(names[:150]), tuple(names[150:])))
    (ws / "big.json").write_text(tax.to_json())
    data = D.generate(D.GenConfig(taxonomy=tax, tracks_total=602, frames_min=1, frames_max=2,
                                  dim=6, seed=1))
    D.save_jsonl(D.Dataset(tracks=data.tracks[::60]), str(ws / "frames.jsonl"))
    M.save_checkpoint(M.init_params(tax, d_in=6, d1=5, hidden=4, d2=4, seed=1),
                      str(ws / "model.json"))
    common = ["--taxonomy", ws / "big.json", "--model", ws / "model.json",
              "--data", ws / "frames.jsonl"]
    assert run(["search-threshold", *common, "--out", ws / "tau"]) == 0
    assert run(["eval", *common, "--out", ws / "report"]) == 0
    assert run(["infer", *common, "--out", ws / "preds"]) == 0


def test_gen_section_sized_for_another_taxonomy_trains(tmp_path, capsys):
    """A `gen` section that could not generate for the default taxonomy
    (40 tracks < 2 * 31 species) does not stop `split` and `train`."""
    data = D.generate(D.GenConfig(taxonomy=default_taxonomy(), tracks_total=62, frames_min=1,
                                  frames_max=2, dim=6, seed=1))
    D.save_jsonl(data, str(tmp_path / "frames.jsonl"))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"gen": {"tracks_total": 40},
                               "train": {"epochs": 1, "d1": 5, "hidden": 4, "d2": 4}}))
    assert run(["split", "--config", cfg, "--data", tmp_path / "frames.jsonl",
                "--out", tmp_path / "splits"]) == 0
    assert run(["train", "--config", cfg, "--data", tmp_path / "splits" / "train.jsonl",
                "--out", tmp_path / "run"]) == 0
    capsys.readouterr()
    assert run(["gen", "--config", cfg, "--out", tmp_path / "data"]) == 1
    assert capsys.readouterr().err == "error: tracks_total=40 < 2*S=62\n"


@pytest.mark.parametrize("threshold", ["-1", "nan"])
def test_infer_checks_threshold_before_reading_tracks(workspace, capsys, threshold):
    ws = workspace
    M.save_checkpoint(M.init_params(TAXONOMY, d_in=6, d1=5, hidden=4, d2=4, seed=1),
                      str(ws / "model.json"))
    (ws / "empty.jsonl").write_text("")
    common = ["infer", "--taxonomy", ws / "taxonomy.json", "--model", ws / "model.json",
              "--data", ws / "empty.jsonl"]
    assert run([*common, "--threshold", threshold, "--out", ws / "bad"]) == 1
    assert capsys.readouterr().err == f"error: threshold {float(threshold)}\n"
    assert not (ws / "bad").exists()
    assert run([*common, "--threshold", 0.5, "--out", ws / "good"]) == 0
    assert (ws / "good" / "predictions.jsonl").read_bytes() == b""


SCORING_COMMANDS = [["search-threshold"], ["eval"], ["eval", "--scheme", "baseline"], ["infer"]]


def _scoring_inputs(ws, edit_track=None, edit_params=None):
    """frames.jsonl and model.json in `ws`, after the edits to the last
    track and to the weights; the args that point a scoring command at
    them, and that track."""
    dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                     frames_min=2, frames_max=3, dim=6, seed=1))
    params = M.init_params(TAXONOMY, d_in=6, d1=5, hidden=4, d2=4, seed=1)
    track = dataset.tracks[-1]
    if edit_track:
        edit_track(track)
    if edit_params:
        edit_params(params)
    D.save_jsonl(dataset, str(ws / "frames.jsonl"))
    M.save_checkpoint(params, str(ws / "model.json"))
    return ["--taxonomy", ws / "taxonomy.json", "--model", ws / "model.json",
            "--data", ws / "frames.jsonl", "--out", ws / "out"], track


@pytest.mark.parametrize("command", SCORING_COMMANDS, ids=" ".join)
def test_scoring_commands_refuse_a_track_outside_its_species_group(workspace, capsys,
                                                                   command):
    def move(track):
        track.group = next(g for g in TAXONOMY.groups if g != track.group)

    args, track = _scoring_inputs(workspace, edit_track=move)
    assert run([*command, *args]) == 1
    assert capsys.readouterr().err == (f"error: track {track.track_id!r}: species "
                                       f"{track.species!r} is not in group {track.group!r}\n")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", [["split"], ["train"], *SCORING_COMMANDS], ids=" ".join)
def test_species_outside_the_taxonomy_is_one_error_line(workspace, capsys, command):
    """`split`, `train` and every scoring command refuse it with the line
    of `data.check_labels`, before writing anything."""
    def rename(track):
        track.species = "not-a-species"

    args, _ = _scoring_inputs(workspace, edit_track=rename)
    if command in (["split"], ["train"]):   # they read no checkpoint
        at = args.index("--model")
        del args[at:at + 2]
    assert run([*command, *args]) == 1
    assert capsys.readouterr().err == "error: unknown species 'not-a-species'\n"
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", SCORING_COMMANDS, ids=" ".join)
def test_overflowing_checkpoint_is_one_error_line(workspace, command):
    """A checkpoint whose trunk overflows is reported by the forward
    pass's own check, with no numpy warning before it."""
    def blow_up(params):
        params.W1[0, 0] = params.W2[0, 0] = 1e300

    args, _ = _scoring_inputs(workspace, edit_params=blow_up)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "hierfish.cli", *command,
                           *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (1, "error: non-finite values in trunk\n")


def _decide_lines(params, tracks, taxonomy, tau, unit):
    """`predictions.jsonl` by the `decide` rule, track by track."""
    lines = []
    for track in tracks:
        ts = I.score_track(params, track)
        if unit == "video_avg":
            agg = I.aggregate_avg(ts, taxonomy)
            coarse = agg.p1
        else:
            agg = I.aggregate_vote(ts, taxonomy)
            coarse = np.zeros(taxonomy.G)
            coarse[agg.coarse_selection] = agg.coarse_confidence
        pred = I.decide(agg.confidence, coarse, agg.selection, tau, unit)
        name = (taxonomy.groups[pred.label] if pred.level == "coarse"
                else taxonomy.species_name(pred.label))
        lines.append(json.dumps({
            "track_id": track.track_id,
            "unit": pred.unit,
            "level": pred.level,
            "label": name,
            "label_index": pred.label,
            "confidence": pred.confidence,
        }, ensure_ascii=False) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("unit", ["video_avg", "video_vote"])
def test_infer_matches_decide_rule(workspace, unit):
    ws = workspace
    common = ["--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json", "--seed", 11]
    assert run(["gen", *common, "--out", ws / "data"]) == 0
    assert run(["split", *common, "--data", ws / "data" / "dataset.jsonl",
                "--out", ws / "splits"]) == 0
    assert run(["train", *common, "--data", ws / "splits" / "train.jsonl",
                "--out", ws / "run"]) == 0
    params = M.load_checkpoint(str(ws / "run" / "model.json"), TAXONOMY)
    tracks = D.load_jsonl(str(ws / "splits" / "eval.jsonl")).tracks
    # a tau between the unit's confidences, so both levels are written
    aggregate = I.aggregate_avg if unit == "video_avg" else I.aggregate_vote
    tau = float(np.median([aggregate(I.score_track(params, t), TAXONOMY).confidence
                           for t in tracks]))
    assert run(["infer", "--taxonomy", ws / "taxonomy.json", "--model", ws / "run" / "model.json",
                "--data", ws / "splits" / "eval.jsonl", "--threshold", tau, "--unit", unit,
                "--out", ws / "preds"]) == 0
    got = (ws / "preds" / "predictions.jsonl").read_text(encoding="utf-8")
    assert got == _decide_lines(params, tracks, TAXONOMY, tau, unit)
    assert {json.loads(line)["level"] for line in got.splitlines()} == {"coarse", "fine"}


def _track_units():
    return [u for u, unit in I.UNITS.items() if not unit.frames]


def test_infer_offers_exactly_the_track_units(workspace, capsys, monkeypatch):
    """`infer --unit` runs every track unit of `inference.UNITS`, and one
    added to the table alone; its parser refuses a frame unit before any
    file is read, naming the track units as the choices."""
    monkeypatch.setitem(I.UNITS, "video_avg_again", I.UNITS["video_avg"])
    args, _ = _scoring_inputs(workspace)
    preds = workspace / "out" / "predictions.jsonl"
    lines = {}
    for unit in _track_units():
        assert run(["infer", *args, "--unit", unit]) == 0
        lines[unit] = [json.loads(line) for line in preds.read_text(encoding="utf-8").splitlines()]
        assert len(lines[unit]) == 10 and {p["unit"] for p in lines[unit]} == {unit}
    assert lines["video_avg_again"] == [{**p, "unit": "video_avg_again"}
                                        for p in lines["video_avg"]]
    frame_units = [u for u in I.UNITS if u not in _track_units()]
    assert frame_units == ["image"]
    missing = workspace / "missing"
    for unit in frame_units:
        with pytest.raises(SystemExit) as exit_:
            run(["infer", "--taxonomy", missing / "t.json", "--model", missing / "m.json",
                 "--data", missing / "d.jsonl", "--unit", unit, "--out", missing / "out"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{unit}'" in err
        choices = re.search(r"\(choose from (.*)\)", err).group(1)
        assert [c.strip(" '") for c in choices.split(",")] == _track_units()
    assert not missing.exists()


def test_baseline_eval_applies_its_threshold(workspace):
    """`eval --scheme baseline --threshold X` stops every frame whose top
    flat score is below X, as any scheme's eval does."""
    args, _ = _scoring_inputs(workspace)
    dataset = D.load_jsonl(str(workspace / "frames.jsonl"))
    params = M.load_checkpoint(str(workspace / "model.json"), TAXONOMY)
    top = np.concatenate([M.forward_flat(params, t.model_input()).max(axis=-1)
                          for t in dataset.tracks])
    tau = float(np.median(top))
    assert run(["eval", "--scheme", "baseline", "--threshold", tau, *args]) == 0
    report = json.loads((workspace / "out" / "report.json").read_text())
    assert report["tau"] == tau
    image = report["units"]["image"]
    assert image["tau"] == tau
    assert 0 < image["stopped"] == int(np.sum(top < tau)) < len(top)
    assert image["stopped"] + image["proceeded"] == len(top)


@pytest.mark.parametrize("command", ["search-threshold", "eval", "infer"])
@pytest.mark.parametrize("flag", [["--seed", 3], ["--config", "/nonexistent.json"]])
def test_checkpoint_commands_take_no_settings_flags(workspace, capsys, command, flag):
    ws = workspace
    with pytest.raises(SystemExit) as exit_:
        run([command, "--model", ws / "m.json", "--data", ws / "d.jsonl",
             *flag, "--out", ws / "out"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


# one valid JSONL file: 2 species x 2 tracks x 2 frames
FUZZ_LINES = [
    {"track_id": f"t{k}", "frame_index": i, "group": group, "species": species,
     "features": [0.5 * k, -0.25 * i]}
    for k, (group, species) in enumerate([("A", "a1"), ("A", "a1"), ("B", "b1"), ("B", "b1")])
    for i in range(2)
]
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=10**300)
                | st.floats() | st.text(max_size=4))
# feature vectors of the right width whose entries numpy would convert
# although they are no JSON numbers
NEAR_VECTORS = st.lists(st.floats(-1, 1) | st.booleans() | st.sampled_from(["1", "0.5"]),
                        min_size=2, max_size=2)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3), NEAR_VECTORS,
                        st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2))


@given(line=st.integers(0, len(FUZZ_LINES) - 1),
       field=st.sampled_from(sorted(FUZZ_LINES[0])),
       value=st.just(None) | st.tuples(JSON_VALUES))   # None drops the field
@example(line=1, field="features", value=(["1", True],))
@example(line=2, field="features", value=([0.5, False],))
@settings(max_examples=150, deadline=None)
def test_split_on_fuzzed_jsonl(tmp_path_factory, line, field, value):
    ws = tmp_path_factory.getbasetemp() / "fuzz"
    ws.mkdir(exist_ok=True)
    (ws / "taxonomy.json").write_text(TAXONOMY.to_json())
    records = [dict(rec) for rec in FUZZ_LINES]
    if value is None:
        del records[line][field]
    else:
        records[line][field] = value[0]
    (ws / "frames.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(["split", "--taxonomy", ws / "taxonomy.json",
                  "--data", ws / "frames.jsonl", "--out", ws / "out"])
    assert rc in (0, 1)
    if rc == 1:
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
    if field == "features" and value is not None and isinstance(value[0], list):
        # a bool or a string is no vector entry, even when numpy could convert it
        numbers = all(type(v) in (int, float) for v in value[0])
        assert rc == 1 or numbers


# every key of a small valid config, and the checkpoint fields the
# checkpoint fuzz sets
FUZZ_CONFIG = {
    "gen": {"tracks_total": 20, "frames_min": 1, "frames_max": 3, "dim": 4,
            "zipf_exponent": 1.0, "sigma_group": 2.0, "sigma_species": 1.0,
            "sigma_track": 1.0, "sigma_frame": 3.0},
    "train": {"scheme": "scheme3", "learning_rate": 0.05, "momentum": 0.9, "epochs": 1,
              "batch_size": 8, "d1": 3, "hidden": 3, "d2": 3},
    "seed": 0,
    "split_ratio": 0.8,
}
CONFIG_FIELDS = [(section, key) for section in ("gen", "train") for key in FUZZ_CONFIG[section]]
CONFIG_FIELDS += [(None, "seed"), (None, "split_ratio")]
CHECKPOINT_FIELDS = [("dims", key) for key in M.DIM_KEYS]
CHECKPOINT_FIELDS += [("weights", name) for name in M.weight_shapes(TAXONOMY, 4, 3, 3, 3)]
# integers capped so that no value makes gen build more than a small dataset;
# st.floats() draws -0.0, NaN and the infinities
CONFIG_SCALARS = (st.none() | st.booleans() | st.integers(-2, 64)
                  | st.sampled_from([10**20, 10**300]) | st.floats() | st.text(max_size=4))


@given(config_field=st.sampled_from(CONFIG_FIELDS), config_value=CONFIG_SCALARS,
       checkpoint_field=st.sampled_from(CHECKPOINT_FIELDS), checkpoint_value=CONFIG_SCALARS,
       position=st.integers(0, 100))
@example(config_field=("gen", "sigma_frame"), config_value=-0.0,
         checkpoint_field=("weights", "W2"), checkpoint_value=1e300, position=0)
@example(config_field=("train", "momentum"), config_value=-0.0,
         checkpoint_field=("dims", "hidden"), checkpoint_value=-0.0, position=0)
@settings(max_examples=80, deadline=None)
def test_gen_and_eval_on_fuzzed_config_and_checkpoint(tmp_path_factory, config_field,
                                                       config_value, checkpoint_field,
                                                       checkpoint_value, position):
    """One config key, then one checkpoint weight entry or dims entry, set
    to a JSON scalar: each command exits 0, or 1 with an `error: ` line."""
    ws = tmp_path_factory.getbasetemp() / "fuzz_config"
    ws.mkdir(exist_ok=True)
    (ws / "taxonomy.json").write_text(TAXONOMY.to_json())
    config = json.loads(json.dumps(FUZZ_CONFIG))
    section, key = config_field
    (config if section is None else config[section])[key] = config_value
    (ws / "config.json").write_text(json.dumps(config))
    gen = ["gen", "--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json",
           "--out", ws / "gen"]

    dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10, frames_min=1,
                                     frames_max=3, dim=4, seed=1))
    D.save_jsonl(dataset, str(ws / "frames.jsonl"))
    params = M.init_params(TAXONOMY, d_in=4, d1=3, hidden=3, d2=3, seed=1)
    M.save_checkpoint(params, str(ws / "model.json"))
    doc = json.loads((ws / "model.json").read_text())
    part, name = checkpoint_field
    if part == "dims":
        doc["dims"][name] = checkpoint_value
    else:
        rows = doc["weights"][name]
        j = position % len(rows)
        if isinstance(rows[j], list):
            rows, j = rows[j], position % len(rows[j])
        rows[j] = checkpoint_value
    (ws / "model.json").write_text(json.dumps(doc))
    evaluate = ["eval", "--taxonomy", ws / "taxonomy.json", "--model", ws / "model.json",
                "--data", ws / "frames.jsonl", "--out", ws / "eval"]

    for args in (gen, evaluate):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run(args)
        assert rc in (0, 1), args[0]
        if rc == 1:
            assert err.getvalue().startswith("error: "), args[0]
        assert "Traceback" not in err.getvalue()


# a valid taxonomy document, and the places in it the taxonomy fuzz sets
FUZZ_TAXONOMY = {"groups": [{"name": "A", "species": ["a1", "a2"]},
                            {"name": "B", "species": ["b1", "b2"]}]}
TAXONOMY_PLACES = [("groups",), ("groups", 1), ("groups", 0, "name"), ("groups", 1, "species"),
                   ("groups", 0, "species", 1), ("version",)]


@given(place=st.sampled_from(TAXONOMY_PLACES), value=JSON_VALUES.map(json.dumps))
# an integer of 5,000 digits, past the int digit limit of Pythons that have one
@example(place=("groups", 0, "species", 1), value="1" + "0" * 4999)
@settings(max_examples=100, deadline=None)
def test_gen_on_fuzzed_taxonomy(tmp_path_factory, place, value):
    """One place of the taxonomy set to a JSON value: `gen` exits 0, or
    1 with one `error: ` line."""
    ws = tmp_path_factory.getbasetemp() / "fuzz_taxonomy"
    ws.mkdir(exist_ok=True)
    doc = json.loads(json.dumps(FUZZ_TAXONOMY))
    parent = doc
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = "@"   # stands for the value's JSON text
    (ws / "taxonomy.json").write_text(json.dumps(doc).replace('"@"', value), encoding="utf-8")
    (ws / "config.json").write_text(json.dumps(
        {"gen": {"tracks_total": 40, "frames_min": 1, "frames_max": 2, "dim": 2}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(["gen", "--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json",
                  "--out", ws / "gen"])
    assert rc in (0, 1)
    if rc == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("lineno", [1, 2])
def test_split_on_non_utf8_jsonl(workspace, capsys, lineno):
    ws = workspace
    lines = [json.dumps(rec).encode() + b"\n" for rec in FUZZ_LINES]
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    (ws / "frames.jsonl").write_bytes(b"".join(lines))
    assert run(["split", "--taxonomy", ws / "taxonomy.json",
                "--data", ws / "frames.jsonl", "--out", ws / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}: not UTF-8")
    assert "Traceback" not in err


def _split_files(out):
    return [(out / name).read_bytes() for name in ("train.jsonl", "eval.jsonl")]


def _same_tracks(a, b):
    assert a.mode == b.mode
    assert [(t.track_id, t.group, t.species, t.frame_index) for t in a.tracks] == \
           [(t.track_id, t.group, t.species, t.frame_index) for t in b.tracks]
    for s, t in zip(a.tracks, b.tracks):
        for key in D.VECTOR_FIELDS[a.mode]:
            assert getattr(s, key).tobytes() == getattr(t, key).tobytes()


# group and species names that JSON escapes or spells beyond ASCII, and a
# `%`, which the writer's template must keep as text
ESCAPED_TAXONOMY = Taxonomy(groups=('Raies "à" 100%', "Requins\\n"),
                            species_by_group=(("ä1", "a%s2"), ("鱼1", "b\t2", "b3")))


class TestSplit:
    """`split` copies each track's lines of its input, not new prints."""

    @pytest.mark.parametrize("mode", [M.MODE_TRUNK, M.MODE_PRECOMPUTED])
    def test_a_written_file_splits_into_the_bytes_save_jsonl_writes(self, workspace, mode):
        ws = workspace
        (ws / "taxonomy.json").write_text(ESCAPED_TAXONOMY.to_json())
        dataset = D.generate(D.GenConfig(ESCAPED_TAXONOMY, tracks_total=30, frames_min=1,
                                         frames_max=4, dim=6, seed=5))
        if mode == M.MODE_PRECOMPUTED:
            dataset = D.Dataset([D.Track(t.track_id, t.group, t.species, t.frame_index,
                                         shallow=t.features[:, :4], deep=t.features[:, 4:])
                                 for t in dataset.tracks], mode)
        D.save_jsonl(dataset, str(ws / "frames.jsonl"))
        assert run(["split", "--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json",
                    "--data", ws / "frames.jsonl", "--out", ws / "out"]) == 0
        sides = D.split_by_track(D.load_jsonl(str(ws / "frames.jsonl")), 0.8, 11)
        (ws / "want").mkdir()
        for side, name in zip(sides, ("train.jsonl", "eval.jsonl")):
            D.save_jsonl(side, str(ws / "want" / name))
        assert _split_files(ws / "out") == _split_files(ws / "want")
        assert sorted(os.listdir(ws / "out")) == ["eval.jsonl", "train.jsonl"]

    def test_any_other_file_keeps_its_lines(self, workspace):
        """Compact separators, integer features, an extra key, CRLF ends,
        blank and indented lines, frames out of order and two interleaved
        tracks: each side loads as the split of the loaded file, and each
        of its lines is an input line, stripped."""
        ws = workspace
        species = [(g, s) for g, names in zip(TAXONOMY.groups, TAXONOMY.species_by_group)
                   for s in names]
        lines = []
        for k, (group, name) in enumerate(species * 2):
            for i in (2, 0, 1) if k % 3 == 0 else (0, 1, 2):
                rec = {"track_id": f"t{k}", "frame_index": i, "group": group,
                       "species": name, "features": [k, i, 0.5]}
                if k % 2:
                    rec = {**rec, "note": "é"}
                text = json.dumps(rec, separators=(",", ":") if k % 4 else (", ", ": "),
                                  ensure_ascii=k % 5 == 0)
                lines.append(("  " if i == 1 else "") + text + ("\r\n" if k % 3 == 1 else "\n"))
            lines.append("\n" if k % 2 else " \r\n")
        # t0 and t1 interleaved, frame by frame
        lines[:8] = [lines[j] for j in (0, 4, 1, 5, 2, 6, 3, 7)]
        (ws / "frames.jsonl").write_bytes("".join(lines).encode())
        assert run(["split", "--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json",
                    "--data", ws / "frames.jsonl", "--out", ws / "out"]) == 0
        sides = D.split_by_track(D.load_jsonl(str(ws / "frames.jsonl")), 0.8, 11)
        stripped = {line.strip().encode() for line in lines}
        for side, name in zip(sides, ("train.jsonl", "eval.jsonl")):
            _same_tracks(D.load_jsonl(str(ws / "out" / name)), side)
            written = (ws / "out" / name).read_bytes().split(b"\n")
            assert written[-1] == b"" and set(written[:-1]) <= stripped
            assert len(written) - 1 == sum(len(t) for t in side.tracks)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_a_file_of_many_blocks_splits_as_the_per_line_loop(self, workspace, monkeypatch,
                                                               end):
        """`load_jsonl` reads a file `save_jsonl` wrote a block at a time,
        and one with CRLF ends line by line: either way, `split` copies
        the lines the per-line loop notes, each ended by one newline."""
        ws = workspace
        dataset = D.generate(D.GenConfig(TAXONOMY, tracks_total=80, frames_min=2,
                                         frames_max=6, dim=6, seed=2))
        D.save_jsonl(dataset, str(ws / "saved.jsonl"))
        saved = (ws / "saved.jsonl").read_bytes()
        assert len(saved) > 3 * D.BLOCK_HINT
        (ws / "frames.jsonl").write_bytes(saved.replace(b"\n", end))
        args = ["split", "--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json",
                "--data", ws / "frames.jsonl", "--out"]
        assert run([*args, ws / "out"]) == 0
        monkeypatch.setattr(D, "MAX_BLOCK_BYTES", 0)   # every block through the per-line loop
        assert run([*args, ws / "want"]) == 0
        assert _split_files(ws / "out") == _split_files(ws / "want")
        assert sorted(b"".join(_split_files(ws / "out")).split(b"\n")[:-1]) == \
            sorted(saved.split(b"\n")[:-1])

    def test_a_split_may_overwrite_its_input(self, workspace):
        ws = workspace
        # enough tracks that the train side splits again
        (ws / "big.json").write_text(json.dumps({**SMALL_CONFIG, "gen": {
            **SMALL_CONFIG["gen"], "tracks_total": 60}}))
        common = ["--config", ws / "big.json", "--taxonomy", ws / "taxonomy.json"]
        assert run(["gen", *common, "--out", ws / "data"]) == 0
        assert run(["split", *common, "--data", ws / "data" / "dataset.jsonl",
                    "--out", ws / "out"]) == 0
        (ws / "copy").mkdir()
        (ws / "copy" / "train.jsonl").write_bytes((ws / "out" / "train.jsonl").read_bytes())
        assert run(["split", *common, "--data", ws / "copy" / "train.jsonl",
                    "--out", ws / "want"]) == 0
        assert run(["split", *common, "--data", ws / "out" / "train.jsonl",
                    "--out", ws / "out"]) == 0
        assert _split_files(ws / "out") == _split_files(ws / "want")
        assert sorted(os.listdir(ws / "out")) == ["eval.jsonl", "train.jsonl"]

    @pytest.mark.parametrize("stdin", ["pipe", "file"])
    def test_a_pipe_is_refused_before_it_is_read(self, workspace, stdin):
        """`split` reads --data twice, so a pipe is refused, named, before
        it is read and with nothing written; /dev/stdin redirected from a
        file splits as the file does."""
        ws = workspace
        common = ["--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json"]
        assert run(["gen", *common, "--out", ws / "data"]) == 0
        frames = ws / "data" / "dataset.jsonl"
        assert run(["split", *common, "--data", frames, "--out", ws / "want"]) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        with open(frames, "rb") as f:
            feed = {"input": f.read()} if stdin == "pipe" else {"stdin": f}
            proc = subprocess.run([sys.executable, "-m", "hierfish.cli", "split",
                                   *map(str, common), "--data", "/dev/stdin", "--out",
                                   str(ws / "out")], **feed, capture_output=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": src})
        if stdin == "pipe":
            assert (proc.returncode, proc.stderr.decode()) == (
                1, "error: --data /dev/stdin is not a regular file, and split reads it twice\n")
            assert not (ws / "out").exists()
        else:
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert _split_files(ws / "out") == _split_files(ws / "want")

    def test_a_file_in_the_way_is_an_error_and_kept(self, workspace, capsys):
        ws = workspace
        common = ["--config", ws / "config.json", "--taxonomy", ws / "taxonomy.json"]
        assert run(["gen", *common, "--out", ws / "data"]) == 0
        (ws / "out").mkdir()
        (ws / "out" / "eval.jsonl.tmp").write_text("mine")
        capsys.readouterr()
        assert run(["split", *common, "--data", ws / "data" / "dataset.jsonl",
                    "--out", ws / "out"]) == 1
        assert re.fullmatch(r"error: \[Errno 17\] File exists: '.*eval\.jsonl\.tmp'\n",
                            capsys.readouterr().err)
        assert sorted(os.listdir(ws / "out")) == ["eval.jsonl.tmp"]
        assert (ws / "out" / "eval.jsonl.tmp").read_text() == "mine"


DEEP = "[" * 200_000 + "]" * 200_000   # past any recursion limit of the JSON decoder


@pytest.mark.parametrize("command, path, match", [
    pytest.param("gen", "config.json", "config.json: invalid JSON: maximum recursion",
                 id="gen-config.json-is not valid JSON"),
    ("gen", "taxonomy.json", "invalid JSON"),
    ("split", "frames.jsonl", "line 2: invalid JSON"),
    pytest.param("eval", "model.json", "model.json: invalid JSON: maximum recursion",
                 id="eval-model.json-invalid checkpoint JSON"),
])
def test_deeply_nested_json_is_an_error(workspace, capsys, command, path, match):
    ws = workspace
    dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                     frames_min=2, frames_max=3, dim=6, seed=1))
    D.save_jsonl(dataset, str(ws / "frames.jsonl"))
    if path == "frames.jsonl":
        lines = (ws / path).read_text().splitlines(keepends=True)
        (ws / path).write_text(lines[0] + DEEP + "\n")
    else:
        (ws / path).write_text(DEEP)
    args = {"gen": ["--config", ws / "config.json"],
            "split": ["--data", ws / "frames.jsonl"],
            "eval": ["--model", ws / "model.json", "--data", ws / "frames.jsonl"]}[command]
    assert run([command, "--taxonomy", ws / "taxonomy.json", *args, "--out", ws / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert "Traceback" not in err


# each document the commands read, as (command, option), and each fault of
# its read, as (what it writes at the path, the reason the error gives, or
# the reason per document)
DOCUMENTS = {"config": ("gen", "--config"), "taxonomy": ("gen", "--taxonomy"),
             "checkpoint": ("eval", "--model")}
READ_FAULTS = {
    "missing": (lambda path: None, "No such file or directory"),
    "directory": (lambda path: path.mkdir(), "Is a directory"),
    "not-utf8": (lambda path: path.write_bytes(b"\xff{}"), "not UTF-8: 'utf-8' codec"),
    "invalid": (lambda path: path.write_text('{"groups": '), "invalid JSON: Expecting value"),
    "deep": (lambda path: path.write_text(DEEP), "invalid JSON: maximum recursion"),
    "digits": (lambda path: path.write_text("1" + "0" * 4999), "invalid JSON: Exceeds the limit"),
    "wrong-shape": (lambda path: path.write_text("[]"),
                    {"config": "must hold a JSON object", "checkpoint": "must hold a JSON object",
                     "taxonomy": "expected top-level object with a 'groups' list"}),
}


@pytest.mark.parametrize("fault", READ_FAULTS)
@pytest.mark.parametrize("document", DOCUMENTS)
def test_a_document_that_cannot_be_read_is_one_error_naming_it(tmp_path, capsys, document, fault):
    """Every fault of reading a config, a taxonomy or a checkpoint, and a
    document of the wrong shape, exits 1 with one line `error: <document>
    <path>: <reason>`."""
    command, option = DOCUMENTS[document]
    write, reason = READ_FAULTS[fault]
    reason = reason[document] if isinstance(reason, dict) else reason
    path = tmp_path / "document.json"
    write(path)
    data = ["--data", tmp_path / "frames.jsonl"] if command == "eval" else []
    assert run([command, option, path, *data, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {document} {path}: {reason}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_load_checkpoint_of_a_missing_path_is_a_malformed_document(tmp_path):
    path = tmp_path / "model.json"
    with pytest.raises(MalformedDocument, match=f"^checkpoint {re.escape(str(path))}: No such"):
        M.load_checkpoint(str(path), TAXONOMY)
