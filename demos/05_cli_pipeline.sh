#!/bin/sh
# Walkthrough: the same pipeline as demos 01-03, driven entirely by the CLI.
#
# Fabricates a small course log, then runs every subcommand against it.
# Outputs land under demos/output/cli/.
#
#     sh demos/05_cli_pipeline.sh

set -e
HERE="$(cd "$(dirname "$0")" && pwd)"
OUT="$HERE/output/cli"
mkdir -p "$OUT"

# --- fabricate inputs ------------------------------------------------------
python3 - "$OUT" <<'EOF'
import csv, sys
import numpy as np

out = sys.argv[1]
rng = np.random.default_rng(505)
vocab = {
    "role": ("Teacher", "Administrator", "Technology/Media Staff", "Other"),
    "group": ("AC", "DL", "M", "N", "PD", "PS"),
    "grade": ("Primary", "Secondary", "Post-Secondary", "Generalist"),
    "gender": ("Female", "Male"),
    "country": ("US", "Non-US"),
    "region": ("Midwest", "Northeast", "South", "West", "International"),
    "experience": ("<=10", "11-20", "20+"),
    "expert": ("Yes", "No"),
    "willing": ("Yes", "No"),
}
ids = [f"p{k:03d}" for k in range(55)]
with open(f"{out}/attributes.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["id", *vocab, "facilitator"])
    for pid in ids:
        w.writerow([pid, *(str(rng.choice(v)) for v in vocab.values()), "No"])
with open(f"{out}/events.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["sender_id", "receiver_id", "day"])
    for volume, (lo, hi) in zip((300, 240, 140, 60), ((1, 18), (19, 36), (37, 54), (55, 72))):
        for _ in range(volume):
            s, r = rng.choice(ids, size=2, replace=False)
            w.writerow([s, r, int(rng.integers(lo, hi + 1))])
print(f"wrote {out}/events.csv and {out}/attributes.csv")
EOF

CLI="python3 -m netergm.cli"
DATA="--edges $OUT/events.csv --attrs $OUT/attributes.csv"

# --- descriptive battery, aggregate plus quarters --------------------------
$CLI describe $DATA --out-dir "$OUT/describe" --format csv

# --- the largest strongly connected component of a sparser log -----------
# Every fifth event: the weak component keeps all 55 nodes, the strong one 45.
awk 'NR == 1 || NR % 5 == 2' "$OUT/events.csv" > "$OUT/events_thin.csv"
$CLI describe --edges "$OUT/events_thin.csv" --attrs "$OUT/attributes.csv" \
    --component-mode strong --out-dir "$OUT/describe_strong" --format csv

# --- cross-sectional fit with a compact term set ---------------------------
$CLI fit $DATA --terms "edges, mutual, gwesp(0.5), nodematch(gender)" \
    --out-dir "$OUT/fit" --format csv

# --- pooled temporal model with bootstrap intervals ------------------------
$CLI tergm $DATA --terms "edges, mutual, isolates" --replications 25 \
    --seed 9 --out-dir "$OUT/tergm" --format csv

# --- one formation model per quarter transition ----------------------------
$CLI formation $DATA --terms "edges, mutual" \
    --out-dir "$OUT/formation" --format csv

# --- simulate from a hand-specified model ----------------------------------
$CLI simulate --nodes 25 --terms "edges, mutual" --theta=-2.5,1.0 \
    --samples 5 --seed 9 --out-dir "$OUT/simulate" --format csv

# --- export the assembled network ------------------------------------------
$CLI export $DATA --graph-format json-edgelist --output "$OUT/network.json"

echo
echo "all outputs under $OUT"
