#!/usr/bin/env bash
# Write the artifacts of every hierfish chain a bit-for-bit change is
# checked on into OUT:
#   ablation-3/, ablation-11/  `hierfish ablation` at seeds 3 and 11
#   ablation-3-scheme1-scheme3/, ablation-3-baseline-scheme3/  the same at
#              seed 3 with two schemes: two hierarchical models trained in
#              lockstep, then the flat model and one hierarchical one
#   readme/    the README file chain, with baseline, scheme1 and scheme3
#              trained, evaluated and (scheme1, scheme3) searched and
#              inferred for both video units; then the baseline checkpoint
#              evaluated and inferred as scheme3, and scheme3's as baseline
#   wide/      a 24 x 5 taxonomy: 1,200 tracks of 4-12 frames, split 0.5,
#              baseline and scheme3 trained for 3 epochs
#   pre/       a precomputed chain: the README split through a seeded trunk
#   errors/    the errors `gen`, `train`, `ablation` and the scoring commands
#              report on bad input, each as every refusal is: exit status 1
#              and one stderr line `error: ...`
# logs/ holds each command's stdout, stderr and, for a refused one, its
# exit status. Every command runs inside OUT on relative paths, so two
# runs compare with one `diff -r`.
#
# usage: scripts/artifact_chains.sh OUT [SRC]
#   SRC is the hierfish source directory to run, by default this
#   checkout's src/. To compare a parent commit with a change:
#     mkdir /tmp/parent && git archive PARENT | tar -x -C /tmp/parent
#     scripts/artifact_chains.sh /tmp/before /tmp/parent/src
#     scripts/artifact_chains.sh /tmp/after
#     diff -r /tmp/before /tmp/after
set -euo pipefail

src=$(cd "${2:-$(dirname "$0")/../src}" && pwd)
mkdir -p "$1"
cd "$1"
mkdir -p logs readme wide pre errors

hierfish() {
  PYTHONPATH="$src" python3 -c 'import sys; from hierfish.cli import main; sys.exit(main())' "$@"
}

# run NAME COMMAND...: COMMAND, its stdout and stderr kept as logs/NAME.*
run() {
  local name=$1
  shift
  "$@" > "logs/$name.out" 2> "logs/$name.err" || {
    echo "artifact_chains: $name failed; see $PWD/logs/$name.err" >&2
    return 1
  }
}

# refused NAME COMMAND...: as run, for a COMMAND that must be refused:
# exit status 1 and a stderr of one line, starting `error: `
refused() {
  local name=$1 status=0
  shift
  "$@" > "logs/$name.out" 2> "logs/$name.err" || status=$?
  echo "$status" > "logs/$name.status"
  if [ "$status" -ne 1 ] || [ "$(wc -l < "logs/$name.err")" -ne 1 ] \
    || ! grep -q '^error: ' "logs/$name.err"; then
    echo "artifact_chains: $name was not refused with status 1 and one 'error: ' line" >&2
    return 1
  fi
}

# schemes DIR TAXONOMY TRAIN EVAL SCHEME...: train each scheme on TRAIN
# into DIR/SCHEME and evaluate it on EVAL; a hierarchical scheme also
# gets its threshold searched, and `infer` for both video units at it
schemes() {
  local dir=$1 taxonomy=$2 train=$3 eval=$4 scheme tau
  shift 4
  for scheme in "$@"; do
    run "$dir-$scheme-train" hierfish train --config "$dir/config.json" --seed 0 \
      --taxonomy "$taxonomy" --data "$train" --scheme "$scheme" --out "$dir/$scheme"
    if [ "$scheme" = baseline ]; then
      run "$dir-$scheme-eval" hierfish eval --taxonomy "$taxonomy" --model "$dir/$scheme/model.json" \
        --data "$eval" --scheme baseline --out "$dir/$scheme/report"
      continue
    fi
    run "$dir-$scheme-search" hierfish search-threshold --taxonomy "$taxonomy" \
      --model "$dir/$scheme/model.json" --data "$eval" --out "$dir/$scheme"
    tau=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["tau"])' \
      "$dir/$scheme/threshold.json")
    run "$dir-$scheme-eval" hierfish eval --taxonomy "$taxonomy" --model "$dir/$scheme/model.json" \
      --data "$eval" --threshold "$tau" --scheme "$scheme" --out "$dir/$scheme/report"
    for unit in video_avg video_vote; do
      run "$dir-$scheme-infer-$unit" hierfish infer --taxonomy "$taxonomy" \
        --model "$dir/$scheme/model.json" --data "$eval" --threshold "$tau" --unit "$unit" \
        --out "$dir/$scheme/infer-$unit"
    done
  done
}

for seed in 3 11; do
  run "ablation-$seed" hierfish ablation --seed "$seed" --out "ablation-$seed"
done
for schemes in scheme1,scheme3 baseline,scheme3; do
  run "ablation-3-${schemes/,/-}" hierfish ablation --seed 3 --schemes "$schemes" \
    --out "ablation-3-${schemes/,/-}"
done

echo '{}' > readme/config.json
run readme-gen hierfish gen --seed 0 --out readme/data
run readme-split hierfish split --seed 0 --taxonomy readme/data/taxonomy.json \
  --data readme/data/dataset.jsonl --out readme/splits
schemes readme readme/data/taxonomy.json readme/splits/train.jsonl readme/splits/eval.jsonl \
  baseline scheme1 scheme3
# every checkpoint carries every head and none records the loss that
# trained it, so a checkpoint is scored as another scheme without error
run readme-baseline-eval-as-scheme3 hierfish eval --taxonomy readme/data/taxonomy.json \
  --model readme/baseline/model.json --data readme/splits/eval.jsonl --out readme/baseline/as-scheme3
run readme-baseline-infer hierfish infer --taxonomy readme/data/taxonomy.json \
  --model readme/baseline/model.json --data readme/splits/eval.jsonl --out readme/baseline/infer
run readme-scheme3-eval-as-baseline hierfish eval --taxonomy readme/data/taxonomy.json \
  --model readme/scheme3/model.json --data readme/splits/eval.jsonl --scheme baseline \
  --out readme/scheme3/as-baseline

python3 -c 'import json; print(json.dumps({"groups": [
    {"name": f"Group{g:02d}", "species": [f"Group{g:02d} species{i}" for i in range(5)]}
    for g in range(24)]}))' > wide/taxonomy.json
echo '{"gen": {"tracks_total": 1200, "frames_min": 4, "frames_max": 12},
       "train": {"epochs": 3}}' > wide/config.json
run wide-gen hierfish gen --config wide/config.json --seed 0 --taxonomy wide/taxonomy.json \
  --out wide/data
run wide-split hierfish split --seed 0 --ratio 0.5 --taxonomy wide/taxonomy.json \
  --data wide/data/dataset.jsonl --out wide/splits
schemes wide wide/taxonomy.json wide/splits/train.jsonl wide/splits/eval.jsonl baseline scheme3

# each frame as the (shallow, deep) pair of a seeded, untrained trunk
run pre-convert env PYTHONPATH="$src" python3 -c '
from hierfish import data as D, model as M
from hierfish.taxonomy import load_taxonomy
trunk = M.init_params(load_taxonomy(open("readme/data/taxonomy.json").read()), seed=7)
for name in ("train", "eval"):
    dataset = D.load_jsonl(f"readme/splits/{name}.jsonl")
    for t in dataset.tracks:
        _, t.shallow, _, t.deep = M.trunk_features(trunk, t.features)
        t.features = None
    D.save_jsonl(dataset, f"pre/{name}.jsonl")
'
echo '{}' > pre/config.json
schemes pre readme/data/taxonomy.json pre/train.jsonl pre/eval.jsonl baseline scheme3

# the README splits and scheme3 checkpoint with one edit each
python3 -c '
import json

def write(name, edit, split="train"):   # edit(record, in the last track) on each record
    recs = [json.loads(line) for line in open(f"readme/splits/{split}.jsonl")]
    for rec in recs:
        edit(rec, rec["track_id"] == recs[-1]["track_id"])
    with open(f"errors/{name}.jsonl", "w") as f:
        f.writelines(json.dumps(rec) + "\n" for rec in recs)

def frame(value, width=None):   # the first width values (default all) of the last track first frame
    def edit(rec, last):
        if last and rec["frame_index"] == 0:
            rec["features"][:width] = [value] * len(rec["features"][:width])
    return edit

def checkpoint(name, **first):   # each named weight first value set
    doc = json.load(open("readme/scheme3/model.json"))
    for key, value in first.items():
        weight = doc["weights"][key]
        (weight[0] if type(weight[0]) is list else weight)[0] = value
    with open(f"errors/{name}.json", "w") as f:
        json.dump(doc, f)

write("overflow", frame(1e300, 1))
write("saturate", frame(-1e100, 1))
write("mid-training", frame(1e10))
write("species", lambda rec, last: last and rec.update(species="not-a-species"))
write("group", lambda rec, last: last and rec.update(
    group="Sharks" if rec["group"] != "Sharks" else "Skates"))
write("no-features", lambda rec, last: rec.update(features=[]))
write("huge-input", frame(1e300, 1), "eval")
checkpoint("string-weight", b1="0.5")
checkpoint("huge-weights", W1=1e300, W2=1e300)
'
echo '{"train": {"epochs": 1}}' > errors/config.json
echo '{"gen": {"tracks_total": 62}, "train": {"epochs": 1, "learning_rate": 1e300}}' \
  > errors/rate.json
echo '{"schemes": []}' > errors/no-schemes.json
echo '{"gen": {"sigma_frame": -0.0}}' > errors/negative-zero.json
for case in overflow saturate mid-training species group no-features; do
  refused "errors-train-$case" hierfish train --config errors/config.json --seed 0 \
    --taxonomy readme/data/taxonomy.json --data "errors/$case.jsonl" --out "errors/$case"
done

# score CASE COMMAND MODEL DATA: a scoring COMMAND refused on MODEL and DATA
score() {
  refused "errors-$2-$1" hierfish "$2" --taxonomy readme/data/taxonomy.json --model "$3" \
    --data "$4" --out "errors/$2-$1"
}
for case in species group; do
  score "$case" eval readme/scheme3/model.json "errors/$case.jsonl"
done
score string-weight eval errors/string-weight.json readme/splits/eval.jsonl
for command in eval infer search-threshold; do
  score huge-input "$command" readme/scheme3/model.json errors/huge-input.jsonl
  score huge-weights "$command" errors/huge-weights.json readme/splits/eval.jsonl
done
refused errors-train-rate hierfish train --config errors/rate.json --seed 0 \
  --taxonomy readme/data/taxonomy.json --data readme/splits/train.jsonl --out errors/rate
refused errors-ablation-rate hierfish ablation --config errors/rate.json --seed 0 \
  --out errors/ablation-rate
refused errors-ablation-no-schemes hierfish ablation --config errors/no-schemes.json \
  --out errors/no-schemes
refused errors-gen-negative-zero hierfish gen --config errors/negative-zero.json \
  --out errors/negative-zero
