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
           "raise (_input_fault(initial, batch, idx, where, losses)",
           "raise (None",
           ("tests/test_training.py::TestTrain::"
            "test_input_overflow_below_bound_is_found_mid_training",)),
    Mutant("absent-group-keeps-stale-gradient", "training.py",
           "dWf.fill(0.0)\n                dbf.fill(0.0)\n                continue",
           "continue",
           ("tests/test_training.py::test_lockstep_is_bit_identical_to_solo_training",
            "tests/test_training.py::"
            "test_a_step_zeroes_the_fine_gradients_of_every_absent_group")),
    # a step's mean over the batch multiplies by 1 / B only when B is a
    # power of two: for B = 7 that is not the division's bytes
    Mutant("batch-mean-multiplies-for-every-B", "training.py",
           "if B & (B - 1) == 0 else",
           "if True else",
           ("tests/test_training.py::test_train_is_pinned",
            "tests/test_training.py::test_a_reused_workspace_steps_as_a_one_off_one")),
    # eight groups, batches of 7: the last batch of an epoch is one row,
    # and the reference loop steps it on a workspace of its own
    Mutant("ragged-batch-reads-the-full-batches-workspace", "training.py",
           "_label_tables(ws, y1[rows], y2[rows])",
           "_label_tables(spaces[0][0], y1[rows], y2[rows])",
           ("tests/test_training.py::test_lockstep_is_bit_identical_to_solo_training"
            "[eight-groups-features-scheme3-scheme2-scheme1-baseline]",)),
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
    Mutant("baseline-scored-by-hierarchical-heads", "evaluation.py",
           'heads = flat_heads if loss_of(scheme) == "baseline" else None',
           "heads = loss_of(scheme) and None",
           ("tests/test_evaluation.py::TestFlatBaseline::test_every_unit_matches_loop_oracle",)),
    # the block path in front of the per-line loop: a bool in a vector, a
    # track whose labels change, and a line nested past what orjson parses
    # must still go down that loop
    Mutant("block-path-takes-bools", "data.py",
           "or not NUMBER_TYPES.issuperset(map(type, flat))",
           "or False",
           ("tests/test_data.py::test_block_reads_as_the_per_line_loop",)),
    Mutant("block-path-skips-label-check", "data.py",
           "if not len(runs) == len(labels) == len(set(tids)):",
           "if not len(runs) == len(set(tids)):",
           ("tests/test_data.py::test_block_reads_as_the_per_line_loop",)),
    # orjson 3.8.3 has no nesting limit: the deep block crashes the test
    # process, which counts as a failure
    Mutant("block-path-ignores-its-bound", "data.py",
           "nbytes <= MAX_BLOCK_BYTES",
           "True",
           ("tests/test_data.py::test_a_deep_record_after_the_first_block_is_an_error",)),
    Mutant("orjson-spells-from-1e-5", "data.py",
           "REPR_BELOW, REPR_FROM = 1e-4, 1e16",
           "REPR_BELOW, REPR_FROM = 1e-5, 1e16",
           ("tests/test_data.py::test_writer_spells_records_as_json",)),
    # a document that cannot be opened would reach `cli.main` as a bare
    # OSError, whose message names neither the document nor its kind
    Mutant("document-reader-lets-oserror-through", "errors.py",
           "except (OSError, ValueError, RecursionError) as e:",
           "except (ValueError, RecursionError) as e:",
           tuple(f"tests/test_cli.py::test_a_document_that_cannot_be_read_is_one_error_naming_it"
                 f"[{document}-{fault}]" for document in ("config", "taxonomy", "checkpoint")
                 for fault in ("missing", "directory"))),
    # the one dense + ReLU layer of the trunk and of each MLP head: the
    # biases are zero at init, so a perturbed model shows the skip
    Mutant("dense-relu-skips-its-bias", "model.py",
           "    z += b\n",
           "",
           ("tests/test_training.py::TestGradients::test_matches_finite_differences",)),
    # the one MLP softmax head, the coarse and the flat head's
    Mutant("mlp-head-skips-its-finiteness-check", "model.py",
           "    _check_finite(name, logits)\n",
           "",
           ("tests/test_model.py::TestSegmentedSoftmax::test_first_non_finite_fine_head_is_named",)),
    # a workspace head's hidden gradient in the array of its pre-activation:
    # the ReLU mask then reads the gradient
    Mutant("workspace-head-gradient-overwrites-its-preactivation", "training.py",
           "z, H, dz = (np.empty(lead + (hidden,)) for _ in range(3))",
           "z, H = (np.empty(lead + (hidden,)) for _ in range(2))\n    dz = z",
           ("tests/test_training.py::TestGradients::test_matches_finite_differences",)),
    Mutant("relu-backward-skips-its-mask", "training.py",
           "    G *= np.greater(z, 0.0, out=relu)\n",
           "    np.greater(z, 0.0, out=relu)\n",
           ("tests/test_training.py::TestGradients::test_matches_finite_differences",)),
    Mutant("head-backward-writes-layer-2-into-the-preactivation", "training.py",
           "_dense_back(head.layer2, head.probs, head.dz)",
           "_dense_back(head.layer2, head.probs, head.z)",
           ("tests/test_training.py::TestGradients::test_matches_finite_differences",)),
    Mutant("scheme-lookup-lets-an-unknown-scheme-through", "training.py",
           "    if scheme not in LOSSES:\n",
           "    if False:\n",
           ("tests/test_training.py::test_an_unknown_scheme_is_refused_by_every_entry_point",)),
    Mutant("document-shape-error-names-no-document", "errors.py",
           'raise type(e)(f"{what} {path}: {e}") from e',
           "raise",
           tuple(f"tests/test_cli.py::test_a_document_that_cannot_be_read_is_one_error_naming_it"
                 f"[{document}-wrong-shape]" for document in ("config", "taxonomy", "checkpoint"))),
    Mutant("frames-line-missing-label-passes-python-text", "data.py",
           "        if key not in rec:\n",
           "        if False:\n",
           ("tests/test_data.py::test_block_reads_as_the_per_line_loop",)),
    # json reads NaN, which orjson refuses, so only the per-line loop's
    # own check stands between a NaN and the track's block
    Mutant("exact-loop-keeps-a-non-finite-vector", "data.py",
           "    if not np.isfinite(vec).all():\n",
           "    if False:\n",
           ("tests/test_data.py::test_reader_follows_the_number_rule",)),
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
