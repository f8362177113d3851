#!/usr/bin/env bash
# Write the artifacts of every hierfish chain a bit-for-bit change is
# checked on into OUT:
#   ablation-0/, ablation-1/, ablation-3/, ablation-11/  `hierfish ablation`
#              at seeds 0, 1, 3 and 11. Seed 1's 7,841 train frames end
#              each epoch on a batch of one row (seeds 0, 3, 11: 8, 32, 14)
#   ablation-3-scheme1-scheme3/, ablation-3-baseline-scheme3/  the same at
#              seed 3 with two schemes: two hierarchical models trained in
#              lockstep, then the flat model and one hierarchical one
#   readme/    the README file chain, with baseline, scheme1 and scheme3
#              trained, evaluated and (scheme1, scheme3) searched and
#              inferred for both video units; then the baseline checkpoint
#              evaluated and inferred as scheme3, and scheme3's as baseline
#   wide/      a 24 x 5 taxonomy: 1,200 tracks of 4-12 frames, split 0.5,
#              baseline and scheme3 trained for 3 epochs, then by
#              `ablation` into wide/ablation/
#   neighbours/  300 tracks of 1-160 frames: scheme3 trained for 1 epoch,
#              searched and inferred on the eval file and, into rev/, on its reversal
#   pre/       a precomputed chain: the README split through a seeded trunk
#   errors/    the errors `gen`, `train`, `ablation` and the scoring commands
#              report on bad input
# logs/ holds each command's stdout, stderr and, for a refused one, its
# exit status. Every command runs inside OUT on relative paths, so two
# runs compare with one `diff -r`. The script exits 1 with a line naming
# the first of these identities that fails:
#   split      `split` writes what save_jsonl(split_by_track(...)) writes
#   scheme2    each ablation's scheme2/ is its scheme3/ but for the name
#   lockstep   ablation-0/ and wide/ablation/ hold the model.json and
#              loss.csv of the solo runs in readme/ and wide/
#   units      reports and predictions are not empty, and both units'
#              predictions have one line a track
#   neighbours neighbours/rev/ has the same tau and sorted predictions
#   refused    each bad input is refused with exit status 1 and a stderr
#              of one line `error: ...`
#
# usage: scripts/artifact_chains.sh OUT [SRC]
#   SRC is the hierfish source directory to run, by default this
#   checkout's src/. To compare a parent commit with a change, run it on
#   the parent's src/ and on the change's, and `diff -r` the two OUTs
#   (README "Tests").
set -euo pipefail

src=$(cd "${2:-$(dirname "$0")/../src}" && pwd)
mkdir -p "$1"
cd "$1"
mkdir -p logs readme wide neighbours pre errors

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

# check NAME COMMAND...: exit 1, naming the identity NAME, unless COMMAND succeeds
check() {
  "${@:2}" > /dev/null || { echo "artifact_chains: $1 does not hold: ${*:2} failed" >&2; exit 1; }
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

# tau DIR: the threshold `search-threshold` wrote into DIR
tau() {
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["tau"])' "$1/threshold.json"
}

# schemes DIR TAXONOMY TRAIN EVAL SCHEME...: train each scheme on TRAIN
# into DIR/SCHEME and evaluate it on EVAL; a hierarchical scheme also
# gets its threshold searched, and `infer` for both video units at it
schemes() {
  local dir=$1 taxonomy=$2 train=$3 eval=$4 scheme tau out
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
    tau=$(tau "$dir/$scheme")
    run "$dir-$scheme-eval" hierfish eval --taxonomy "$taxonomy" --model "$dir/$scheme/model.json" \
      --data "$eval" --threshold "$tau" --scheme "$scheme" --out "$dir/$scheme/report"
    for unit in video_avg video_vote; do
      run "$dir-$scheme-infer-$unit" hierfish infer --taxonomy "$taxonomy" \
        --model "$dir/$scheme/model.json" --data "$eval" --threshold "$tau" --unit "$unit" \
        --out "$dir/$scheme/infer-$unit"
    done
    out=$dir/$scheme/infer-video
    check units test -s "$dir/$scheme/report/report.json" -a -s "${out}_avg/predictions.jsonl" \
      -a "$(wc -l < "${out}_avg/predictions.jsonl")" -eq "$(wc -l < "${out}_vote/predictions.jsonl")"
  done
}

# saved_split DIR: DIR/splits/ holds what save_jsonl writes for DIR's data split at seed 0
saved_split() {
  mkdir -p "$1/saved"
  PYTHONPATH="$src" python3 -c '
import json, sys
from hierfish import cli, data as D
run = sys.argv[1]
ratio = json.load(open(f"{run}/config.json")).get("split_ratio", cli.DEFAULT_SPLIT_RATIO)
sides = D.split_by_track(D.load_jsonl(f"{run}/data/dataset.jsonl"), ratio, 0)
[D.save_jsonl(side, f"{run}/saved/{name}.jsonl") for side, name in zip(sides, ("train", "eval"))]
' "$1"
  check split diff -r "$1/splits" "$1/saved"
  rm -r "$1/saved"
}

# lockstep ABLATION SOLO SCHEME...: each scheme's model.json and loss.csv
# in ABLATION are those its solo run wrote into SOLO
lockstep() {
  for scheme in "${@:3}"; do
    check lockstep cmp "$1/$scheme/model.json" "$2/$scheme/model.json"
    check lockstep cmp "$1/$scheme/loss.csv" "$2/$scheme/loss.csv"
  done
}

for seed in 0 1 3 11; do
  run "ablation-$seed" hierfish ablation --seed "$seed" --out "ablation-$seed"
  check scheme2 diff -r -x report.json -x table.csv "ablation-$seed/scheme2" "ablation-$seed/scheme3"
done
for schemes in scheme1,scheme3 baseline,scheme3; do
  run "ablation-3-${schemes/,/-}" hierfish ablation --seed 3 --schemes "$schemes" \
    --out "ablation-3-${schemes/,/-}"
done

echo '{}' > readme/config.json
run readme-gen hierfish gen --seed 0 --out readme/data
run readme-split hierfish split --seed 0 --taxonomy readme/data/taxonomy.json \
  --data readme/data/dataset.jsonl --out readme/splits
saved_split readme
schemes readme readme/data/taxonomy.json readme/splits/train.jsonl readme/splits/eval.jsonl \
  baseline scheme1 scheme3
lockstep ablation-0 readme baseline scheme1 scheme3
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
echo '{"split_ratio": 0.5, "gen": {"tracks_total": 1200, "frames_min": 4, "frames_max": 12},
       "train": {"epochs": 3}}' > wide/config.json
run wide-gen hierfish gen --config wide/config.json --seed 0 --taxonomy wide/taxonomy.json \
  --out wide/data
run wide-split hierfish split --config wide/config.json --seed 0 --taxonomy wide/taxonomy.json \
  --data wide/data/dataset.jsonl --out wide/splits
saved_split wide
schemes wide wide/taxonomy.json wide/splits/train.jsonl wide/splits/eval.jsonl baseline scheme3
run wide-ablation hierfish ablation --config wide/config.json --seed 0 \
  --taxonomy wide/taxonomy.json --schemes baseline,scheme3 --out wide/ablation
lockstep wide/ablation wide baseline scheme3

# infer scores tracks, and search-threshold averages their frames, in
# batches of one length; reversed, every batch holds other tracks (and
# load_jsonl sorts the frames back). Up to 160 frames, some tracks exceed
# inference.CHUNK_FRAMES and are batches of their own
echo '{"gen": {"tracks_total": 300, "frames_min": 1, "frames_max": 160},
       "train": {"epochs": 1}}' > neighbours/config.json
run neighbours-gen hierfish gen --config neighbours/config.json --seed 0 --out neighbours/data
run neighbours-split hierfish split --seed 0 --taxonomy neighbours/data/taxonomy.json \
  --data neighbours/data/dataset.jsonl --out neighbours/splits
schemes neighbours neighbours/data/taxonomy.json neighbours/splits/train.jsonl \
  neighbours/splits/eval.jsonl scheme3
tac neighbours/splits/eval.jsonl > neighbours/rev.jsonl
run neighbours-rev-search hierfish search-threshold --taxonomy neighbours/data/taxonomy.json \
  --model neighbours/scheme3/model.json --data neighbours/rev.jsonl --out neighbours/rev
check neighbours cmp neighbours/scheme3/threshold.json neighbours/rev/threshold.json
for unit in video_avg video_vote; do
  run "neighbours-rev-infer-$unit" hierfish infer --taxonomy neighbours/data/taxonomy.json \
    --model neighbours/scheme3/model.json --data neighbours/rev.jsonl \
    --threshold "$(tau neighbours/rev)" --unit "$unit" --out "neighbours/rev/infer-$unit"
  check "neighbours $unit" cmp <(sort "neighbours/scheme3/infer-$unit/predictions.jsonl") \
    <(sort "neighbours/rev/infer-$unit/predictions.jsonl")
done

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
# a species that is an integer of 5,000 digits, past Python's int digit limit
python3 -c 'print("{\"groups\": [{\"name\": \"A\", \"species\": [\"a1\", 1%s]}]}" % ("0" * 4999))' \
  > errors/digits-taxonomy.json
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
refused errors-gen-digits-taxonomy hierfish gen --taxonomy errors/digits-taxonomy.json \
  --out errors/digits-taxonomy
