"""hierfish benchmark.

    python3 perfbench/run.py --workload {ablation,video_backlog,cli_files}
                             --seed N --seconds S --trace {0,1} [--tiny]

Run from the repository root; the package is imported from `src/`.
One run sets the workload up SETUP_REPS times (setup_s is their
median), makes one untimed warm-up pass on a smaller input, then makes
timed passes while the next one should end within `--seconds`, at
least the workload's `min_passes`. Each pass's outputs are checked,
and its artifacts must match the first timed pass's, and ablation's
warm-up's, byte for byte. The last line of standard output is one
JSON object: `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics for `--trace 0` and the per-layer metrics for
`--trace 1`.

A traced run sets up once under the tracer, makes the warm-up and one
untraced pass, then one traced pass; tracing overhead is the traced
pass's wall time minus the untraced one's, and the two passes'
artifacts must match. The untraced pass also times the infer rule on
at least LATENCY_SAMPLES tracks for the held-out latency and
throughput figures, which are short-window timings and so carry no
bound. Spans go to
`.perfbench/spans-<workload>-seed<seed>.jsonl`, and the run's record
(metrics, checks, machine) to `.perfbench/result-...json`.

`--tiny` shrinks every workload for the smoke test; figures from it
mean nothing.
"""

import os

# pinned before numpy loads, so BLAS runs on one thread in this process
# and in the import probes it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
LATENCY_SAMPLES = 500   # per-track latencies the traced run's untraced pass collects

# name -> unit; BENCHMARK.json lists the same names with their direction
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "level1_image_pct": "%",
    "level2b_video_vote_pct": "%",
    "level2c_video_avg_pct": "%",
}
PER_LAYER = {
    "data.generate_s": "s",
    "data.save_jsonl_s": "s",
    "data.load_jsonl_s": "s",
    "data.check_labels_s": "s",
    "data.jsonl_bytes_written": "bytes",
    "data.jsonl_bytes_read": "bytes",
    "model.forward_calls": "count",
    "model.forward_flat_calls": "count",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "training.train_s": "s",
    "training.steps": "count",
    "training.step_us": "us",
    "training.check_example_calls": "count",
    "inference.eval_frames_per_s": "1/s",
    "inference.track_ms_p50": "ms",
    "inference.track_ms_p98": "ms",
    "inference.score_track_s": "s",
    "inference.frames_scored": "count",
    "inference.rescore_ratio": "ratio",
    "inference.search_threshold_self_s": "s",
    "inference.aggregate_s": "s",
    "evaluation.evaluate_self_s": "s",
    "evaluation.write_report_s": "s",
    "taxonomy.species_index_calls": "count",
    "taxonomy.to_local_calls": "count",
    "cli.self_s": "s",
    **{f"{layer}.errors": "count" for layer in
       ("taxonomy", "data", "model", "training", "inference", "evaluation", "cli")},
    **{f"{layer}.pass_share_pct": "%" for layer in
       ("data", "model", "training", "inference", "evaluation", "cli")},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, hierfish.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of numpy and hierfish, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, round(q / 100 * len(sorted_values)) - 1))
    return sorted_values[k]


def compare(checks, label: str, ref: dict, got: dict) -> None:
    """One check per artifact of `ref`: the same bytes in `got`."""
    for name in sorted(ref):
        checks.expect(ref[name] == got.get(name), f"{label}: {name} is not byte-identical")


class Run:
    def __init__(self, args):
        from tracing import Tracer
        from workloads import WORKLOADS, Checks

        self.args = args
        self.checks = Checks()
        self.work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
        self.tracer = Tracer()
        self.workload = WORKLOADS[args.workload](
            args.seed, args.tiny, str(self.work / "inputs"), self.checks, self._set_phase)
        self.n_pass = 0

    def _set_phase(self, phase: str) -> None:
        self.tracer.phase = phase

    def one_pass(self, phase: str, warmup: bool = False, samples: int = 0):
        self.tracer.phase = phase
        out = self.work / f"pass{self.n_pass}"
        self.n_pass += 1
        result = self.workload.run_pass(str(out), warmup, samples)
        shutil.rmtree(out)
        return result

    def untraced(self) -> dict:
        wl, checks = self.workload, self.checks
        setups = []
        for _ in range(SETUP_REPS):
            seconds = import_seconds()
            t0 = perf_counter()
            wl.setup()
            setups.append(seconds + perf_counter() - t0)
        warm = self.one_pass("warmup", warmup=True)
        passes = []
        t_start = perf_counter()
        # another pass only if it should end within --seconds
        while (len(passes) < wl.min_passes or (perf_counter() - t_start)
               * (len(passes) + 1) / len(passes) <= self.args.seconds):
            result = self.one_pass(f"pass{len(passes)}")
            compare(checks, "warm-up vs timed pass", warm.artifacts, result.artifacts)
            if passes:
                compare(checks, "timed passes", passes[0].artifacts, result.artifacts)
            passes.append(result)

        report = passes[-1].report["units"]
        print(f"passes: {len(passes)} timed after a reduced warm-up; setups: {SETUP_REPS}")
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "level1_image_pct": report["image"]["level1_acc"],
            "level2b_video_vote_pct": report["video_vote"]["level2b_acc"],
            "level2c_video_avg_pct": report["video_avg"]["level2c_acc"],
        }

    def traced(self) -> dict:
        from tracing import LAYERS

        wl, tracer, checks = self.workload, self.tracer, self.checks
        with tracer:
            tracer.phase = "setup"
            wl.setup()
        warm = self.one_pass("warmup", warmup=True)
        plain = self.one_pass("untraced", samples=LATENCY_SAMPLES)
        with tracer:
            traced = self.one_pass("pass")
        compare(checks, "warm-up vs timed pass", warm.artifacts, plain.artifacts)
        compare(checks, "untraced vs traced pass", plain.artifacts, traced.artifacts)

        spans, counts = tracer.spans, tracer.counts
        self_times = tracer.self_times()

        def self_sum(match) -> float:
            return sum(t for s, t in zip(spans, self_times) if match(s))

        train_s = tracer.total("training.train")
        latencies = sorted(plain.latencies)
        metrics = {
            "data.generate_s": tracer.total("data.generate"),
            "data.save_jsonl_s": tracer.total("data.save_jsonl"),
            "data.load_jsonl_s": tracer.total("data.load_jsonl"),
            "data.check_labels_s": tracer.total("data.check_labels"),
            "data.jsonl_bytes_written": counts["data.jsonl_bytes_written"],
            "data.jsonl_bytes_read": counts["data.jsonl_bytes_read"],
            "model.forward_calls": counts["model.forward_calls"],
            "model.forward_flat_calls": counts["model.forward_flat_calls"],
            "model.checkpoint_save_s": tracer.total("model.checkpoint_save"),
            "model.checkpoint_load_s": tracer.total("model.checkpoint_load"),
            "training.train_s": train_s,
            "training.steps": counts["training.steps"],
            "training.step_us": 1e6 * train_s / counts["training.steps"],
            "training.check_example_calls": counts["training.check_example_calls"],
            "inference.eval_frames_per_s": plain.eval_frames / plain.eval_seconds,
            "inference.track_ms_p50": 1e3 * percentile(latencies, 50),
            "inference.track_ms_p98": 1e3 * percentile(latencies, 98),
            "inference.score_track_s": tracer.total("inference.score_track"),
            "inference.frames_scored": counts["inference.frames_scored"],
            "inference.rescore_ratio": (counts["inference.frames_scored"]
                                        / sum(tracer.distinct_frames.values())),
            "inference.search_threshold_self_s":
                self_sum(lambda s: s[0] == "inference.search_threshold"),
            "inference.aggregate_s": tracer.total("inference.aggregate"),
            "evaluation.evaluate_self_s": self_sum(lambda s: s[0] == "evaluation.evaluate"),
            "evaluation.write_report_s": tracer.total("evaluation.write_report"),
            "taxonomy.species_index_calls": counts["taxonomy.species_index_calls"],
            "taxonomy.to_local_calls": counts["taxonomy.to_local_calls"],
            "cli.self_s": self_sum(lambda s: s[1] == "cli"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = tracer.errors[layer]
        for layer in LAYERS[1:]:  # taxonomy calls are counted, never spanned
            metrics[f"{layer}.pass_share_pct"] = 100.0 * self_sum(
                lambda s: s[1] == layer and s[5] == "pass") / traced.wall
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        metrics["trace.spans"] = len(spans)

        OUT.mkdir(exist_ok=True)
        tracer.write_spans(str(OUT / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"))
        commands = sorted({s[0] for s in spans if s[1] == "cli"})
        for name in commands:
            print(f"{name}_self_s {self_sum(lambda s: s[0] == name):.6f} s")
        p98 = percentile(latencies, 98)
        print(f"traced pass {traced.wall:.3f} s, untraced pass {plain.wall:.3f} s; "
              f"track latencies: {len(latencies)} samples, "
              f"{sum(x > p98 for x in latencies)} beyond p98")
        return metrics

    def execute(self) -> dict:
        try:
            return self.traced() if self.args.trace else self.untraced()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ablation", "video_backlog", "cli_files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    args = parser.parse_args(argv)

    if not (SRC / "hierfish" / "__init__.py").is_file():
        print(f"error: no hierfish sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args)
    metrics = run.execute()
    units = PER_LAYER if args.trace else END_TO_END
    env = machine()
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print("env " + json.dumps(env))
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "env": env}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
