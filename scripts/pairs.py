"""Time hierfish's layers against a parent's sources, in alternating
pairs, and check that both sides compute the same bytes.

Loads the parent's package from PARENT_SRC under another name (the
package imports its own modules relatively, so two copies live side by
side) and runs each named probe (default: all), each round with the
side that goes first alternating. The probes, by data:

  k1, k3, train, forward: `hierfish ablation`'s default data (6 x 31, 600
      tracks at seed 0, its train split, batches of 32). A K = 1
      (scheme3) and a K = 3 (lockstep) `_loss_and_grads` step, a 2-epoch
      lockstep `train` of every scheme, a `heads_forward` of K = 2 models.
  k1_24x5, k3_24x5, score, infer: perfbench video_backlog's data (24 x 5,
      1,200 tracks of 4-12 frames at seed 0 halved into a train split and
      a 587-track backlog; a scheme3 model trained 3 epochs on the
      former). The two steps, `score_split` of every unit, and perfbench's
      per-track infer rule (`score_track`, both aggregates, `decide`).
  save, load, split: perfbench cli_files' data (6 x 31, 1,200 tracks at
      seed 0, a temporary directory per side). `save_jsonl`, `load_jsonl`
      and `hierfish split` through `cli.main`.

A step alternates two batches and ends each round on the first, so a
gradient one batch leaves behind shows in the bytes. Prints, per probe,
each side's min and median, the median per-round change/parent ratio,
the rounds the change won and whether the outputs were the same. Exits
1 unless every probe gave byte-identical outputs on both sides.

usage: python scripts/pairs.py PARENT_SRC [PROBE ...] [--rounds N]
"""

import argparse
import contextlib
import functools
import importlib.util
import io
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STEPS = 200      # calls per round of a step or `heads_forward` probe


def load(src: Path, name: str):
    """The hierfish package in `src`, imported as `name`, with its modules."""
    init = src / "hierfish" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "data", "inference", "model", "taxonomy", "training"):
        importlib.import_module(f"{name}.{module}")
    return package


@functools.cache
def ablation(pkg):
    """(taxonomy, train split) of `hierfish ablation`'s default data."""
    D, taxonomy = pkg.data, pkg.taxonomy.default_taxonomy()
    dataset = D.generate(D.GenConfig(taxonomy, seed=0))
    return taxonomy, D.split_by_track(dataset, pkg.cli.DEFAULT_SPLIT_RATIO, 0)[0]


@functools.cache
def backlog(pkg):
    """(taxonomy, train split, backlog, model, tau) of video_backlog's data."""
    D, I, T = pkg.data, pkg.inference, pkg.training
    taxonomy = pkg.taxonomy.Taxonomy(
        groups=tuple(f"Group{g:02d}" for g in range(24)),
        species_by_group=tuple(tuple(f"Group{g:02d} species{i}" for i in range(5))
                               for g in range(24)))
    gen = D.GenConfig(taxonomy, tracks_total=1200, frames_min=4, frames_max=12, seed=0)
    train, held = D.split_by_track(D.generate(gen), 0.5, 0)
    params, _ = T.train(T.TrainConfig(epochs=3, seed=0), train, taxonomy)
    return taxonomy, train, held.tracks, params, I.search_threshold(params, held.tracks, taxonomy)


@functools.cache
def files(pkg):
    """(work directory, dataset, its frames file, written here) of cli_files' data."""
    D, taxonomy = pkg.data, pkg.taxonomy.default_taxonomy()
    work = tempfile.TemporaryDirectory()   # removed when the interpreter exits
    Path(work.name, "taxonomy.json").write_text(taxonomy.to_json() + "\n", encoding="utf-8")
    dataset = D.generate(D.GenConfig(taxonomy, tracks_total=1200, seed=0))
    D.save_jsonl(dataset, f"{work.name}/dataset.jsonl")
    return work, dataset, f"{work.name}/dataset.jsonl"


def batches(pkg, data, K):
    """(K stacked initial models, two (inputs, y1, y2) batches) of `data`'s train split."""
    taxonomy, split = data(pkg)[:2]
    X = np.concatenate([t.features for t in split.tracks])
    y1, y2 = (np.repeat(np.array(y), [len(t) for t in split.tracks])
              for y in zip(*pkg.data.check_labels(split, taxonomy)))
    rows = np.random.default_rng(0).permutation(X.shape[0])
    params = pkg.model.init_params(taxonomy, d_in=X.shape[1], seed=0).tile(K)
    return params, [((X[r],), y1[r], y2[r]) for r in (rows[32:64], rows[:32])]


# A probe builds, for one package, (fn, out, calls): a round calls fn()
# `calls` times, timed, and out(the last result) is the round's bytes
def step(K, data, pkg):
    T = pkg.training
    params, pair = batches(pkg, data, K)
    grads, losses, cycle = params.zeros_like(), T.LOSS_ORDER[3 - K:], itertools.cycle(pair)
    return (lambda: T._loss_and_grads(params, grads, *next(cycle), losses),
            lambda loss: loss.tobytes() + grads.vector.tobytes(), STEPS)


def train(pkg):
    T = pkg.training
    taxonomy, split = ablation(pkg)
    return (lambda: T.train(T.TrainConfig(epochs=2, seed=0), split, taxonomy, T.SCHEMES),
            lambda trained: b"".join(p.vector.tobytes() + np.array(h).tobytes()
                                     for p, h in trained.values()), 1)


def forward(pkg):
    params, pair = batches(pkg, ablation, 2)
    _, shallow, _, deep = pkg.model.trunk_features(params, pair[1][0][0])
    return (lambda: pkg.model.heads_forward(params, shallow, deep),
            lambda out: out[1].tobytes() + out[2].tobytes(), STEPS)


def score(pkg):
    taxonomy, _, tracks, params, _ = backlog(pkg)
    return (lambda: pkg.inference.score_split(params, tracks, taxonomy),
            lambda tables: b"".join(a.tobytes() for rows in tables.values()
                                    for a in vars(rows).values()), 1)


def infer(pkg):
    I = pkg.inference
    taxonomy, _, tracks, params, tau = backlog(pkg)

    def rule():
        out = []
        for track in tracks:
            scores = I.score_track(params, track)
            avg, vote = I.aggregate_avg(scores, taxonomy), I.aggregate_vote(scores, taxonomy)
            coarse = np.eye(taxonomy.G)[vote.coarse_selection] * vote.coarse_confidence
            out += [I.decide(avg.confidence, avg.p1, avg.selection, tau, "video_avg"),
                    I.decide(vote.confidence, coarse, vote.selection, tau, "video_vote")]
        return out
    return rule, lambda out: repr(out).encode(), 1


def save(pkg):
    _, dataset, frames = files(pkg)
    return lambda: pkg.data.save_jsonl(dataset, frames), lambda _: Path(frames).read_bytes(), 1


def load_frames(pkg):
    frames = files(pkg)[2]
    return (lambda: pkg.data.load_jsonl(frames),
            lambda ds: b"".join(repr((t.track_id, t.group, t.species, t.frame_index)).encode()
                                + t.features.tobytes() for t in ds.tracks), 1)


def split(pkg):
    work, frames = files(pkg)[0].name, files(pkg)[2]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main(["split", "--seed", "0", "--data", frames, "--taxonomy",
                                 f"{work}/taxonomy.json", "--out", f"{work}/splits"])
    return run, lambda rc: bytes([rc]) + b"".join(
        Path(work, "splits", name).read_bytes() for name in ("train.jsonl", "eval.jsonl")), 1


PROBES = {"k1": functools.partial(step, 1, ablation), "k3": functools.partial(step, 3, ablation),
          "train": train, "forward": forward, "k1_24x5": functools.partial(step, 1, backlog),
          "k3_24x5": functools.partial(step, 3, backlog), "score": score, "infer": infer,
          "save": save, "load": load_frames, "split": split}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the parent's src/ directory")
    parser.add_argument("probes", nargs="*", help=f"of {', '.join(PROBES)} (default: all)")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if set(args.probes) - set(PROBES):
        parser.error(f"unknown probe(s): {sorted(set(args.probes) - set(PROBES))}")
    names = args.probes or list(PROBES)
    sides = (load(args.parent_src.resolve(), "hierfish_parent"), load(ROOT / "src", "hierfish"))
    built = {name: [PROBES[name](pkg) for pkg in sides] for name in names}
    times = {name: ([], []) for name in names}
    same = dict.fromkeys(names, True)
    for r in range(args.rounds):
        for name in names:
            outputs = [None, None]
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                fn, out, calls = built[name][s]
                t0 = time.perf_counter()
                for _ in range(calls):
                    result = fn()
                times[name][s].append((time.perf_counter() - t0) / calls)
                outputs[s] = out(result)
            same[name] &= outputs[0] == outputs[1]
    for name, (p, c) in times.items():
        scale, unit = (1e6, "us") if min(p) < 1e-3 else (1e3, "ms")
        print(f"{name:8s}", *(f"{side} min {min(t) * scale:9.3f} median "
                              f"{statistics.median(t) * scale:9.3f} {unit} "
                              for side, t in (("parent", p), ("change", c))),
              f"ratio {statistics.median([b / a for a, b in zip(p, c)]):.3f}  "
              f"wins {sum(b < a for a, b in zip(p, c))}/{len(p)}  "
              f"{'same' if same[name] else 'DIFFER'}")
    print("outputs byte-identical" if all(same.values()) else "outputs DIFFER")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
