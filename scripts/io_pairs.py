"""Time the frames-file layer against a parent's sources, in alternating
pairs, and check that both write and read the same bytes.

Loads the parent's package from PARENT_SRC under another name (as
`scripts/step_pairs.py` does) and runs, each round and with the side
that goes first alternating:

  save   `save_jsonl` of the generated dataset
  load   `load_jsonl` of that file
  split  `hierfish split` of that file, through `cli.main`

on the data of perfbench's cli_files chain: the 6 x 31 taxonomy,
1,200 tracks at seed 0. Each side writes its files into its own
temporary directory. Prints each side's min and median, the median of
the per-round change/parent ratios and the rounds the change won. Exits
1 unless both sides write byte-identical frames and split files and
load the same tracks.

usage: python scripts/io_pairs.py PARENT_SRC [--rounds N]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from step_pairs import load

ROOT = Path(__file__).resolve().parent.parent
TRACKS = 1200


class Side:
    """One package's dataset, working directory, timings and outputs."""

    def __init__(self, pkg: dict, work: str):
        self.D, self.cli = pkg["data"], pkg["cli"]
        taxonomy = pkg["taxonomy"].default_taxonomy()
        self.dataset = self.D.generate(self.D.GenConfig(taxonomy, tracks_total=TRACKS, seed=0))
        self.work = work
        self.frames = os.path.join(work, "dataset.jsonl")
        with open(os.path.join(work, "taxonomy.json"), "w", encoding="utf-8") as f:
            f.write(taxonomy.to_json() + "\n")
        self.times = {key: [] for key in ("save", "load", "split")}
        self.outputs = {}

    def run(self, key: str) -> None:
        """Time one round of `key`; keep what it wrote or read."""
        t0 = time.perf_counter()
        if key == "save":
            self.D.save_jsonl(self.dataset, self.frames)
        elif key == "load":
            loaded = self.D.load_jsonl(self.frames)
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(["split", "--seed", "0", "--data", self.frames,
                                    "--taxonomy", os.path.join(self.work, "taxonomy.json"),
                                    "--out", os.path.join(self.work, "splits")])
        self.times[key].append(time.perf_counter() - t0)
        if key == "save":
            self.outputs[key] = Path(self.frames).read_bytes()
        elif key == "load":
            self.outputs[key] = [(t.track_id, t.group, t.species, t.frame_index,
                                  t.features.tobytes()) for t in loaded.tracks]
        else:
            self.outputs[key] = (rc, *(Path(self.work, "splits", name).read_bytes()
                                       for name in ("train.jsonl", "eval.jsonl")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the parent's src/ directory")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        parent = Side(load(args.parent_src.resolve(), "hierfish_parent"), a)
        change = Side(load(ROOT / "src", "hierfish"), b)
        same = True
        for r in range(args.rounds):
            for key in ("save", "load", "split"):
                for side in ((parent, change) if r % 2 == 0 else (change, parent)):
                    side.run(key)
                same &= parent.outputs[key] == change.outputs[key]
    for key in ("save", "load", "split"):
        p, c = parent.times[key], change.times[key]
        ratio = statistics.median([y / x for x, y in zip(p, c)])
        wins = sum(y < x for x, y in zip(p, c))
        print(f"{key:5s}", *(f"{name} min {min(t):7.3f} median {statistics.median(t):7.3f} s "
                             for name, t in (("parent", p), ("change", c))),
              f"ratio {ratio:.3f}  wins {wins}/{len(p)}")
    print("outputs byte-identical" if same else "outputs DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
