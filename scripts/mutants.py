"""Check that the test suite still kills a fixed list of hand-made mutants.

Each record names a file under src/hierfish, an exact piece of its text,
the text that replaces it, and the tests that must fail on the result.
For each record the script copies src/ to a temporary directory, applies
that one replacement and runs the named tests with PYTHONPATH at the
copy. It fails if a mutant survives, if the unmutated copy fails the
tests, or if a record's old text is not found exactly once (a refactor
updates the record; it never drops a mutant silently).

usage: python scripts/mutants.py [NAME...]   (default: every record)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str       # relative to src/hierfish
    old: str
    new: str
    tests: tuple    # pytest node ids, relative to the repo root


MUTANTS = [
    Mutant("vote-mean-tie-to-highest-label", "inference.py",
           "tied = [tied[means.index(max(means))]]",
           "tied = [tied[len(means) - 1 - means[::-1].index(max(means))]]",
           ("tests/test_inference.py::test_majority_matches_unique_loop",)),
    Mutant("value-rule-lt-for-le", "data.py",
           "if not np.maximum.reduce(np.abs(block), axis=None) <= MAX_FEATURE:",
           "if not np.maximum.reduce(np.abs(block), axis=None) < MAX_FEATURE:",
           ("tests/test_data.py::test_value_rule_matches_loop_oracle",)),
    Mutant("value-rule-skips-nan", "data.py",
           "if not np.maximum.reduce(np.abs(block), axis=None) <= MAX_FEATURE:",
           "if not np.fmax.reduce(np.abs(block), axis=None) <= MAX_FEATURE:",
           ("tests/test_data.py::test_value_rule_matches_loop_oracle",)),
    Mutant("value-rule-names-last-bad-row", "data.py",
           "j = int((peaks <= MAX_FEATURE).argmin())",
           "j = len(peaks) - 1 - int((peaks <= MAX_FEATURE)[::-1].argmin())",
           ("tests/test_data.py::test_value_rule_matches_loop_oracle",)),
    Mutant("avg-level2a-by-averaged-fine", "inference.py",
           "level2a=_pick_in_group(g, p2, taxonomy),",
           "level2a=_pick_in_group(g, np.add.reduce(track.frames.fine_local.fine, axis=-2),"
           " taxonomy),",
           ("tests/test_inference.py::TestAggregateAvg::"
            "test_level2a_follows_the_averaged_joint_not_the_averaged_fine",)),
    Mutant("fallback-rescores-failing-batch-only", "inference.py",
           "for track in tracks:\n            fn(params, track.model_input())",
           "for k in idx:\n            fn(params, tracks[k].model_input())",
           ("tests/test_inference.py::test_a_fault_in_a_chunk_is_the_first_tracks_own",)),
    Mutant("diverged-skips-input-fault", "training.py",
           "raise (_input_fault(initial.tile(len(losses)), grads, batch, idx, where, losses)",
           "raise (None",
           ("tests/test_training.py::TestTrain::"
            "test_input_overflow_below_bound_is_found_mid_training",)),
    Mutant("absent-group-keeps-stale-gradient", "training.py",
           "dp.Wf[g].fill(0.0)\n                dp.bf[g].fill(0.0)\n                continue",
           "continue",
           ("tests/test_training.py::test_lockstep_is_bit_identical_to_solo_training",
            "tests/test_training.py::"
            "test_a_step_zeroes_the_fine_gradients_of_every_absent_group")),
    Mutant("flat-joint-recomputed", "evaluation.py",
           "return HeadOutputs(coarse, FineLocal(fine, t.spans), joint)",
           "return HeadOutputs(coarse, FineLocal(fine, t.spans),"
           " coarse[..., t.column_group] * fine)",
           ("tests/test_evaluation.py::TestFlatBaseline::test_flat_heads_marginalise_the_softmax",
            "tests/test_evaluation.py::TestFlatBaseline::test_chunks_score_as_each_track_alone")),
    Mutant("layout-tables-writable", "taxonomy.py",
           "            table.flags.writeable = False\n",
           "",
           ("tests/test_taxonomy.py::"
            "test_layout_tables_are_read_only_and_follow_the_index_arithmetic",)),
    Mutant("vote-level2a-over-every-frame", "inference.py",
           "joint[support, a:b]",
           "joint[:, a:b]",
           ("tests/test_inference.py::test_track_selections_match_loop_oracles",)),
    Mutant("vote-reducer-reads-the-first-track", "inference.py",
           "_track_rows(aggregate_vote, out[j], taxonomy)",
           "_track_rows(aggregate_vote, out[0], taxonomy)",
           ("tests/test_inference.py::TestChunkedScoring::test_score_split_is_per_track_scoring",)),
    Mutant("view-rebind-replaces-the-attribute", "model.py",
           'if name in self._views or name in ("vector", "Wf", "bf", "fine_bias", "fine_runs"):',
           "if False:",
           ("tests/test_model.py::TestParamsLayout::"
            "test_rebinding_a_view_raises_and_keeps_the_vector",)),
    Mutant("finiteness-shortcut-sums-ints-exactly", "data.py",
           "math.isfinite(sum(values, 0.0))",
           "math.isfinite(sum(values))",
           ("tests/test_data.py::test_reader_follows_the_number_rule",)),
    Mutant("baseline-scored-by-hierarchical-heads", "evaluation.py",
           'heads = flat_heads if scheme == "baseline" else None',
           "heads = None",
           ("tests/test_evaluation.py::TestFlatBaseline::test_every_unit_matches_loop_oracle",)),
    # orjson 3.8.3 has no nesting limit: the deep line crashes the test
    # process, which counts as a failure
    Mutant("orjson-reads-any-nesting", "data.py",
           'if raw.count(b"[") + raw.count(b"{") <= MAX_ORJSON_BRACKETS:',
           "if True:",
           ("tests/test_cli.py::test_deeply_nested_json_is_an_error",)),
    # the block path in front of the per-line loop: a bool in a vector, a
    # track whose labels change, and a line nested past what orjson parses
    # must still go down that loop
    Mutant("block-path-takes-bools", "data.py",
           "or not _finite_numbers(flat)",
           "or False",
           ("tests/test_data.py::test_block_reads_as_the_per_line_loop",)),
    Mutant("block-path-skips-label-check", "data.py",
           "if not len(runs) == len(labels) == len(set(tids)):",
           "if not len(runs) == len(set(tids)):",
           ("tests/test_data.py::test_block_reads_as_the_per_line_loop",)),
    Mutant("block-path-ignores-its-bound", "data.py",
           "nbytes <= MAX_BLOCK_BYTES",
           "True",
           ("tests/test_data.py::test_a_deep_record_after_the_first_block_is_an_error",)),
    Mutant("orjson-spells-from-1e-5", "data.py",
           "REPR_BELOW, REPR_FROM = 1e-4, 1e16",
           "REPR_BELOW, REPR_FROM = 1e-5, 1e16",
           ("tests/test_data.py::test_writer_spells_records_as_json",)),
]


def run_tests(src: Path, tests) -> bool:
    """True if every test in `tests` passes against the package in `src`;
    a crash of the test process is a failure."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode == 0


def copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def check(m: Mutant, src: Path) -> str | None:
    """Why mutant `m`, applied to the copy `src`, fails the check; None if
    its tests kill it."""
    path = src / "hierfish" / m.path
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return f"old text found {text.count(m.old)} times in {m.path}, not once"
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    return f"survived {', '.join(m.tests)}" if run_tests(src, m.tests) else None


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        if not run_tests(copy_src(Path(tmp) / "clean"), sorted({t for m in chosen
                                                                for t in m.tests})):
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 1
        for k, m in enumerate(chosen):
            error = check(m, copy_src(Path(tmp) / f"m{k}"))
            print(f"{m.name}: {error or 'killed'}")
            failed += error is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
