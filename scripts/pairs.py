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
  save, load, split, files: perfbench cli_files' data (6 x 31, 1,200
      tracks at seed 0, a temporary directory per side). `save_jsonl`,
      `load_jsonl`, `hierfish split` through `cli.main`, and cli_files'
      pass: `gen`, `split`, `train` (scheme3, 1 epoch), `search-threshold`,
      `eval` and `infer` (video_avg) through `cli.main`, every file they
      write compared.

A step alternates two batches and ends each round on the first, so a
gradient one batch leaves behind shows in the bytes. A side with a step
workspace (`training._Workspace`) builds it before the rounds, as
`train` does once per call, so its step probes and `forward` time calls
on it. Its step probes build the label tables of a round's steps in the
round's first step, as `train` builds an epoch's at once, and run each
step under `np.errstate`, as `compute_gradients` does (`train` enters it
once per call): every step pays what `_loss_and_grads` paid inside it
before the workspace. A side without a workspace calls `_loss_and_grads` and
`heads_forward` as they were. Prints, per probe, each side's min and
median, the median per-round change/parent ratio, the ratio of the
sides' mins (change min / parent min), the rounds the change won and
whether the outputs were the same. Exits 1 unless every probe gave
byte-identical outputs on both sides.

With --record PATH, also appends the run's record to the JSON list in
PATH (the repository keeps BENCH_pairs.json, one record per change;
nothing reads it): the sides' labels (the commit of the git checkout
that holds each side's src/, `-dirty` if src/ differs from it, or the
path outside a checkout), the rounds, `env` (scripts/blas_kernel.py's
`environment()`: Python, numpy, OpenBLAS and the GEMM kernel), and per
probe each side's min and median in seconds, the median ratio, the
ratio of the mins (`min_ratio`), the rounds the change won and `same`
or `DIFFER`.

usage: python scripts/pairs.py PARENT_SRC [PROBE ...] [--rounds N] [--record PATH]
"""

import argparse
import contextlib
import functools
import importlib.util
import io
import itertools
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import blas_kernel

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
    """A step on each batch of the pair in turn. A side with a step
    workspace builds one per batch, over the one gradient; a round's
    first step builds the label tables of its STEPS steps."""
    T = pkg.training
    params, pair = batches(pkg, data, K)
    grads, losses = params.zeros_like(), T.LOSS_ORDER[3 - K:]
    out = lambda loss: loss.tobytes() + grads.vector.tobytes()
    if not hasattr(T, "_Workspace"):   # a parent from before the step workspace
        cycle = itertools.cycle(pair)
        return lambda: T._loss_and_grads(params, grads, *next(cycle), losses), out, STEPS
    spaces = [T._Workspace(params, grads, inputs, losses) for inputs, _, _ in pair]
    cycle = itertools.cycle(spaces)
    Y1, Y2 = (np.stack([batch[k] for batch in pair] * (STEPS // 2)) for k in (1, 2))
    tables = iter(())

    def fn():
        nonlocal tables
        table = next(tables, None)
        if table is None:   # a round's first step
            tables = T._label_tables(spaces[0], Y1, Y2)
            table = next(tables)
        with np.errstate(divide="ignore"):
            return T._loss_and_grads(next(cycle), table)
    return fn, out, STEPS


def train(pkg):
    T = pkg.training
    taxonomy, split = ablation(pkg)
    return (lambda: T.train(T.TrainConfig(epochs=2, seed=0), split, taxonomy, T.SCHEMES),
            lambda trained: b"".join(p.vector.tobytes() + np.array(h).tobytes()
                                     for p, h in trained.values()), 1)


def forward(pkg):
    """`heads_forward` of K = 2 models on one batch; a side with a step
    workspace builds one and runs the trunk into it once."""
    T, M = pkg.training, pkg.model
    params, pair = batches(pkg, ablation, 2)
    X = pair[1][0][0]
    if hasattr(T, "_Workspace"):
        ws = T._Workspace(params, params.zeros_like(), (X,), ("scheme1", "scheme3"))
        M.trunk_features(params, X, ws)
        fn = lambda: M.heads_forward(params, ws.A1h, ws.A2h, ws)
    else:
        _, shallow, _, deep = M.trunk_features(params, X)
        fn = lambda: M.heads_forward(params, shallow, deep)
    # (coarse, fine) last: an older `heads_forward` returns a cache dict first
    return fn, lambda out: out[-2].tobytes() + out[-1].tobytes(), STEPS


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


def chain(pkg):
    """cli_files' pass: its six commands through `cli.main`, into one directory."""
    work = files(pkg)[0].name
    Path(work, "config.json").write_text('{"gen": {"tracks_total": 1200}}', encoding="utf-8")
    common = ["--taxonomy", f"{work}/taxonomy.json", "--seed", "0"]
    scoring = ["--taxonomy", f"{work}/taxonomy.json", "--model", f"{work}/run/s3/model.json",
               "--data", f"{work}/run/splits/eval.jsonl"]

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            codes = [pkg.cli.main(["gen", "--config", f"{work}/config.json", *common,
                                   "--out", f"{work}/run/data"]),
                     pkg.cli.main(["split", *common, "--data", f"{work}/run/data/dataset.jsonl",
                                   "--out", f"{work}/run/splits"]),
                     pkg.cli.main(["train", *common, "--scheme", "scheme3", "--epochs", "1",
                                   "--data", f"{work}/run/splits/train.jsonl",
                                   "--out", f"{work}/run/s3"]),
                     pkg.cli.main(["search-threshold", *scoring, "--out", f"{work}/run/s3"])]
            tau = json.loads(Path(work, "run", "s3", "threshold.json").read_text())["tau"]
            scoring_at = [*scoring, "--threshold", repr(tau)]
            codes += [pkg.cli.main(["eval", *scoring_at, "--scheme", "scheme3",
                                    "--out", f"{work}/run/s3/report"]),
                      pkg.cli.main(["infer", *scoring_at, "--unit", "video_avg",
                                    "--out", f"{work}/run/s3/infer"])]
        return codes, printed.getvalue().replace(work, "WORK")   # each side's own directory
    return run, lambda result: repr(result).encode() + b"".join(
        str(path.relative_to(work)).encode() + path.read_bytes()
        for path in sorted(Path(work, "run").rglob("*")) if path.is_file()), 1


PROBES = {"k1": functools.partial(step, 1, ablation), "k3": functools.partial(step, 3, ablation),
          "train": train, "forward": forward, "k1_24x5": functools.partial(step, 1, backlog),
          "k3_24x5": functools.partial(step, 3, backlog), "score": score, "infer": infer,
          "save": save, "load": load_frames, "split": split, "files": chain}


def source_label(src: Path) -> str:
    """The commit of the git checkout that holds the directory `src`,
    `-dirty` if `src` differs from it; `src` itself outside a checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True).stdout
    commit = git("rev-parse", "--short", "HEAD").strip()
    if not commit:
        return str(src)
    return commit + ("-dirty" if git("status", "--porcelain", "--", ".") else "")


def record(path: Path, labels, rounds: int, stats: dict) -> None:
    """Append one run's record to the JSON list in `path`."""
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    records.append({"labels": dict(zip(("parent", "change"), labels)), "rounds": rounds,
                    "env": blas_kernel.environment(), "probes": stats})
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="the parent's src/ directory")
    parser.add_argument("probes", nargs="*", help=f"of {', '.join(PROBES)} (default: all)")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="append the run's record to the JSON list in PATH")
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
    stats = {}
    for name, (p, c) in times.items():
        stats[name] = {"parent": {"min_s": min(p), "median_s": statistics.median(p)},
                       "change": {"min_s": min(c), "median_s": statistics.median(c)},
                       "ratio": statistics.median([b / a for a, b in zip(p, c)]),
                       "min_ratio": min(c) / min(p),
                       "wins": sum(b < a for a, b in zip(p, c)),
                       "outputs": "same" if same[name] else "DIFFER"}
        scale, unit = (1e6, "us") if min(p) < 1e-3 else (1e3, "ms")
        print(f"{name:8s}", *(f"{side} min {stats[name][side]['min_s'] * scale:9.3f} median "
                              f"{stats[name][side]['median_s'] * scale:9.3f} {unit} "
                              for side in ("parent", "change")),
              f"ratio {stats[name]['ratio']:.3f}  min ratio {stats[name]['min_ratio']:.3f}  "
              f"wins {stats[name]['wins']}/{len(p)}  "
              f"{stats[name]['outputs']}")
    print("outputs byte-identical" if all(same.values()) else "outputs DIFFER")
    if args.record:
        record(args.record, (source_label(args.parent_src), source_label(ROOT / "src")),
               args.rounds, stats)
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
