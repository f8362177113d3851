import csv
import json
import os

import numpy as np
import pytest

from hierfish import cli
from hierfish import data as D
from hierfish import model as M
from hierfish.taxonomy import Taxonomy, load_taxonomy

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
        # header + baseline (1 unit) + 2 hierarchical schemes x 3 units
        assert len(rows) == 1 + 1 + 2 * 3
        schemes = {r[0] for r in rows[1:]}
        assert schemes == {"baseline", "scheme1", "scheme3"}

    def test_unknown_scheme_fails(self, workspace):
        ws = workspace
        assert run(["ablation", "--config", ws / "config.json",
                    "--taxonomy", ws / "taxonomy.json", "--seed", 11,
                    "--schemes", "scheme9", "--out", ws / "x"]) == 1


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

    def test_precomputed_data_in_features_mode(self, workspace, capsys):
        rng = np.random.default_rng(0)
        frames = [D.Frame(track_id=f"t{k}", frame_index=0, group="A", species="a1",
                          shallow=rng.normal(size=5), deep=rng.normal(size=4))
                  for k in range(3)]
        dataset = D.Dataset(tracks=[D.Track(fr.track_id, [fr]) for fr in frames],
                            mode=D.MODE_PRECOMPUTED)
        assert self._train_on(workspace, dataset) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'features'" in err and "'precomputed'" in err

    def test_nan_feature(self, workspace, capsys):
        dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                         frames_min=2, frames_max=3, dim=6, seed=1))
        dataset.tracks[4].frames[1].features[0] = np.nan
        assert self._train_on(workspace, dataset) == 1
        err = capsys.readouterr().err
        tid = dataset.tracks[4].track_id
        assert err.startswith(f"error: track '{tid}' frame 1: non-finite")
        assert "learning rate" not in err

    def test_malformed_checkpoint(self, workspace, capsys):
        ws = workspace
        dataset = D.generate(D.GenConfig(taxonomy=TAXONOMY, tracks_total=10,
                                         frames_min=2, frames_max=3, dim=6, seed=1))
        D.save_jsonl(dataset, str(ws / "frames.jsonl"))
        params = M.init_params(TAXONOMY, d_in=6, d1=5, hidden=4, d2=4, seed=1)
        M.save_checkpoint(params, TAXONOMY, str(ws / "model.json"))
        doc = json.loads((ws / "model.json").read_text())
        del doc["weights"]["Wf1"]
        (ws / "model.json").write_text(json.dumps(doc))
        assert run(["eval", "--taxonomy", ws / "taxonomy.json",
                    "--model", ws / "model.json", "--data", ws / "frames.jsonl",
                    "--out", ws / "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'Wf1'" in err
        assert "Traceback" not in err
