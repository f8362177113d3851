"""Time the SGD kernel against a parent's sources, in alternating pairs,
and check that both train the same bytes.

Loads the parent's package from PARENT_SRC under another name (the
package imports its own modules relatively, so two copies live side by
side) and runs, each round and with the side that goes first
alternating:

  k1     a K = 1 `_loss_and_grads` step (scheme3 alone), per step
  k3     a K = 3 step (baseline, scheme1 and scheme3 in lockstep)
  train  one short lockstep `train` of every scheme

on `hierfish ablation`'s default data: the 6 x 31 taxonomy, 600 tracks
at seed 0, its train split, batches of 32. Prints each side's min and
median, the median of the per-round change/parent ratios and the rounds
the change won. Exits 1 unless both sides give byte-identical
gradients, losses, trained parameters and loss histories.

usage: python scripts/step_pairs.py PARENT_SRC [--rounds N]
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STEPS = 200      # kernel steps timed per round and side
EPOCHS = 2       # of the timed `train`


def load(src: Path, name: str) -> dict:
    """The hierfish package in `src`, imported as `name`: its modules."""
    init = src / "hierfish" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("cli", "data", "model", "taxonomy", "training")}


class Side:
    """One package's ablation data, K = 1 and K = 3 step operands and
    timings."""

    def __init__(self, pkg: dict):
        D, M, T = pkg["data"], pkg["model"], pkg["training"]
        self.T = T
        self.taxonomy = pkg["taxonomy"].default_taxonomy()
        dataset = D.generate(D.GenConfig(self.taxonomy, seed=0))
        self.split, _ = D.split_by_track(dataset, pkg["cli"].DEFAULT_SPLIT_RATIO, 0)
        self.config = T.TrainConfig(epochs=EPOCHS, seed=0)
        X = np.concatenate([t.features for t in self.split.tracks])
        labels = D.check_labels(self.split, self.taxonomy)
        y1, y2 = (np.repeat(np.array(y), [len(t) for t in self.split.tracks])
                  for y in zip(*labels))
        rows = np.random.default_rng(0).permutation(X.shape[0])[:self.config.batch_size]
        self.batch = ((X[rows],), y1[rows], y2[rows])
        base = M.init_params(self.taxonomy, d_in=X.shape[1], seed=0)
        self.steps = {"k1": ("scheme3",), "k3": T.LOSS_ORDER}
        self.params = {key: base.tile(len(losses)) for key, losses in self.steps.items()}
        self.grads = {key: p.zeros_like() for key, p in self.params.items()}
        self.times = {key: [] for key in ("k1", "k3", "train")}
        self.outputs = {}

    def run(self, key: str) -> None:
        """Time one round of `key`; keep what it computed."""
        if key == "train":
            t0 = time.perf_counter()
            trained = self.T.train(self.config, self.split, self.taxonomy, self.T.SCHEMES)
            self.times[key].append(time.perf_counter() - t0)
            self.outputs[key] = b"".join(p.vector.tobytes() + np.array(h).tobytes()
                                         for p, h in trained.values())
            return
        params, grads, losses = self.params[key], self.grads[key], self.steps[key]
        t0 = time.perf_counter()
        for _ in range(STEPS):
            loss = self.T._loss_and_grads(params, grads, *self.batch, losses)
        self.times[key].append((time.perf_counter() - t0) / STEPS)
        self.outputs[key] = loss.tobytes() + grads.vector.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the parent's src/ directory")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    parent = Side(load(args.parent_src.resolve(), "hierfish_parent"))
    change = Side(load(ROOT / "src", "hierfish"))
    same = True
    for r in range(args.rounds):
        for key in ("k1", "k3", "train"):
            for side in ((parent, change) if r % 2 == 0 else (change, parent)):
                side.run(key)
            same &= parent.outputs[key] == change.outputs[key]
    for key, (unit, scale) in {"k1": ("us", 1e6), "k3": ("us", 1e6), "train": ("s", 1)}.items():
        p, c = parent.times[key], change.times[key]
        ratio = statistics.median([b / a for a, b in zip(p, c)])
        wins = sum(b < a for a, b in zip(p, c))
        print(f"{key:5s}", *(f"{name} min {min(t) * scale:9.3f} median "
                             f"{statistics.median(t) * scale:9.3f} {unit} "
                             for name, t in (("parent", p), ("change", c))),
              f"ratio {ratio:.3f}  wins {wins}/{len(p)}")
    print("outputs byte-identical" if same else "outputs DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
