#!/usr/bin/env bash
# End-to-end run of the installed `probe-kit` console script: the tests call
# cli.main in process, this runs the entry point on PATH.
#
#   scripts/console_script_e2e.sh [WORK_DIR]
#
# WORK_DIR (default: a fresh temporary directory) receives the generated
# instances and reports. The oracle reports a value at its cap (the |E| = 12
# instance, whose extension tables are built with numpy) and null above it
# (|E| = 14); the seed-24 verify exercises scipy's nnls in the exact
# decomposition fallback; the posted-pricing instance builds a 16-element
# explicit rank table, at the cap, with numpy; the 12-element
# weighted-matroid-rank instance builds its value table with numpy; the
# hand-written 3-element instance contracts element 0 of its outer matroid,
# which must then never be probed (E[OPT] 0.5); a run with 1100 trials (three
# chunks) writes the same report bytes under --jobs 2, a real worker pool, as
# under --jobs 1; a generator asked for |E| = 21 exits 3 and writes no file,
# and a run whose --out directory is missing exits 1 without a traceback,
# before the experiment: with 10^8 trials it must not reach its 20 s timeout.
set -euo pipefail

d="${1:-$(mktemp -d)}"

probe-kit generate --kind random --size 6 --k-in 1 --objective coverage \
    --seed 3 --out "$d/inst.json"
probe-kit run --instance "$d/inst.json" --trials 200 --cg-steps 20 \
    --seed 0 --out "$d/report.json"
probe-kit run --instance "$d/inst.json" --trials 200 --cg-steps 20 \
    --seed 0 --format csv --out "$d/report.csv"
probe-kit verify --instance "$d/inst.json"
probe-kit generate --kind bipartite --size 3 --patience 1 --seed 3 \
    --out "$d/matching.json"
probe-kit verify --instance "$d/matching.json"
probe-kit generate --kind bipartite --size 4 --patience 2 --edge-prob 0.9 \
    --seed 24 --out "$d/near-integral.json"
probe-kit verify --instance "$d/near-integral.json"
probe-kit run --instance "$d/near-integral.json" --trials 200 --cg-steps 20 \
    --seed 0 --out "$d/near-integral-report.json"
probe-kit generate --kind random --size 12 --k-in 1 --k-out 1 --seed 3 \
    --out "$d/dp-cap.json"
probe-kit run --instance "$d/dp-cap.json" --trials 200 --cg-steps 20 \
    --seed 0 --out "$d/dp-cap-report.json"
probe-kit generate --kind posted-pricing --size 4 --price-levels 3 --seed 1 \
    --out "$d/pricing.json"
probe-kit verify --instance "$d/pricing.json"
probe-kit run --instance "$d/pricing.json" --trials 200 --seed 0 \
    --out "$d/pricing-report.json"
probe-kit generate --kind random --size 12 --objective weighted_matroid_rank \
    --seed 3 --out "$d/rank.json"
probe-kit run --instance "$d/rank.json" --trials 200 --cg-steps 20 --seed 0 \
    --out "$d/rank-report.json"
probe-kit verify --instance "$d/rank.json"
python -c "import json, sys; d = sys.argv[1];
a = json.load(open(d + '/dp-cap-report.json'));
b = json.load(open(d + '/near-integral-report.json'));
assert a['oracle_value'] is not None, a; assert b['oracle_value'] is None, b" "$d"
python -c "import json, sys; json.dump({'ground': {'size': 3}, 'p': [0.5] * 3,
'objective': {'kind': 'linear', 'weights': [3.0, 1.0, 1.0]}, 'inner': [],
'outer': [{'kind': 'uniform', 'n': 3, 'k': 2, 'contracted': [0]}]},
open(sys.argv[1], 'w'))" "$d/contracted.json"
test "$(probe-kit verify --instance "$d/contracted.json")" = ok
probe-kit run --instance "$d/contracted.json" --trials 200 --seed 0 \
    --out "$d/contracted-report.json"
python -c "import json, sys; r = json.load(open(sys.argv[1]));
assert r['oracle_value'] == 0.5, r" "$d/contracted-report.json"
for jobs in 1 2; do
    probe-kit run --instance "$d/inst.json" --trials 1100 --cg-steps 20 \
        --seed 0 --jobs "$jobs" --out "$d/jobs$jobs-report.json"
done
cmp "$d/jobs1-report.json" "$d/jobs2-report.json"

code=0
probe-kit generate --kind bipartite --size 5 --edge-prob 0.9 --seed 1 \
    --out "$d/over-cap.json" || code=$?
if [ "$code" -ne 3 ] || [ -e "$d/over-cap.json" ]; then
    echo "over-cap generate: exit $code, expected 3 and no file" >&2
    exit 1
fi
code=0
timeout 20 probe-kit run --instance "$d/inst.json" --trials 100000000 \
    --cg-steps 20 --seed 0 --out "$d/missing/r.json" 2> "$d/missing.err" || code=$?
if [ "$code" -ne 1 ] || grep -q Traceback "$d/missing.err"; then
    echo "run --out into a missing directory: exit $code (124: timed out)," \
        "expected 1 before the run and no traceback" >&2
    cat "$d/missing.err" >&2
    exit 1
fi
echo "console script end to end: ok"
