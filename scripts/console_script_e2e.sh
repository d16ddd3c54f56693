#!/usr/bin/env bash
# End-to-end run of the installed `probe-kit` console script: the tests call
# cli.main in process, this runs the entry point on PATH.
#
#   scripts/console_script_e2e.sh [WORK_DIR]
#
# WORK_DIR (default: a fresh temporary directory) receives the generated
# instances and reports. The oracle reports a value at its cap (the |E| = 12
# instance, whose extension tables are built with numpy), pinned bit for bit
# to the value of the memoized recursion the layered sweep replaced, and null
# above it (|E| = 14); the seed-24 verify exercises scipy's nnls in the exact
# decomposition fallback; the posted-pricing instance builds a 16-element
# explicit rank table, at the cap, with numpy; the 12-element
# weighted-matroid-rank instance builds its value table with numpy; the
# hand-written 3-element instance contracts element 0 of its outer matroid,
# which must then never be probed (E[OPT] 0.5); a hand-written 16-element
# instance, at the cap, contracts 3 elements of its uniform outer matroid and
# 2 of its partition inner one (verify prints ok, and run reports a null
# oracle, since |E| is above the oracle's cap); a hand-written 16-edge
# instance whose outer matroid is graphic, K6 plus a pendant edge, builds its
# 254 dependent flats at the cap with numpy (verify prints ok, and run reports
# a null oracle); a run with 1100 trials (three
# chunks) writes the same report bytes under --jobs 2, a real worker pool, as
# under --jobs 1; verify runs every check on a 16-element complete bipartite
# matching (stdout ok, empty stderr), whose 1100-trial run also writes the
# same bytes under --jobs 1 and --jobs 2 (its workers build exchange maps and
# walk with the cyclic collector paused), and exits 2 when its outer matroid
# is swapped for an explicit non-matroid; a generator asked for |E| = 21 exits 3
# and writes no file; and a run whose --out directory is missing, or whose
# --out is a directory, exits 1 without a traceback, before the experiment:
# with 10^8 trials it must not reach its 20 s timeout. Last, start-up:
# under PYTHONPROFILEIMPORTTIME, --help and generate never import
# scipy.optimize or multiprocessing, and a run must name scipy.optimize (its
# first solve imports it) and, under --jobs 2, multiprocessing (the worker
# pool imports it) in the same log, which shows that the check can see them.
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
assert a['oracle_value'].hex() == '0x1.24575571a1830p+2', a
assert b['oracle_value'] is None, b" "$d"
python -c "import json, sys; json.dump({'ground': {'size': 3}, 'p': [0.5] * 3,
'objective': {'kind': 'linear', 'weights': [3.0, 1.0, 1.0]}, 'inner': [],
'outer': [{'kind': 'uniform', 'n': 3, 'k': 2, 'contracted': [0]}]},
open(sys.argv[1], 'w'))" "$d/contracted.json"
test "$(probe-kit verify --instance "$d/contracted.json")" = ok
probe-kit run --instance "$d/contracted.json" --trials 200 --seed 0 \
    --out "$d/contracted-report.json"
python -c "import json, sys; r = json.load(open(sys.argv[1]));
assert r['oracle_value'] == 0.5, r" "$d/contracted-report.json"
python -c "import json, sys; json.dump({'ground': {'size': 16}, 'p': [0.6] * 16,
'objective': {'kind': 'linear', 'weights': [1.0 + e % 5 for e in range(16)]},
'inner': [{'kind': 'partition', 'n': 16, 'parts': [[0, 1, 2, 3], [4, 5, 6, 7],
           [8, 9, 10, 11], [12, 13, 14, 15]], 'capacities': [2, 2, 2, 2],
           'contracted': [4, 12]}],
'outer': [{'kind': 'uniform', 'n': 16, 'k': 7, 'contracted': [0, 5, 10]}]},
open(sys.argv[1], 'w'))" "$d/contracted16.json"
test "$(probe-kit verify --instance "$d/contracted16.json")" = ok
probe-kit run --instance "$d/contracted16.json" --trials 200 --seed 0 \
    --out "$d/contracted16-report.json"
python -c "import json, sys; r = json.load(open(sys.argv[1]));
assert r['oracle_value'] is None, r" "$d/contracted16-report.json"
python -c "import itertools, json, sys;
edges = [list(e) for e in itertools.combinations(range(6), 2)] + [[5, 6]]
json.dump({'ground': {'size': 16}, 'p': [0.5] * 16,
'objective': {'kind': 'linear', 'weights': [1.0 + e % 3 for e in range(16)]},
'inner': [], 'outer': [{'kind': 'graphic', 'n_vertices': 7, 'edges': edges}]},
open(sys.argv[1], 'w'))" "$d/graphic16.json"
test "$(probe-kit verify --instance "$d/graphic16.json")" = ok
probe-kit run --instance "$d/graphic16.json" --trials 200 --seed 0 \
    --out "$d/graphic16-report.json"
python -c "import json, sys; r = json.load(open(sys.argv[1]));
assert r['oracle_value'] is None, r" "$d/graphic16-report.json"
for jobs in 1 2; do
    probe-kit run --instance "$d/inst.json" --trials 1100 --cg-steps 20 \
        --seed 0 --jobs "$jobs" --out "$d/jobs$jobs-report.json"
done
cmp "$d/jobs1-report.json" "$d/jobs2-report.json"
probe-kit generate --kind bipartite --size 4 --edge-prob 1.0 --patience 2 \
    --seed 1 --out "$d/matching16.json"
probe-kit verify --instance "$d/matching16.json" > "$d/matching16.out" \
    2> "$d/matching16.err"
test "$(cat "$d/matching16.out")" = ok
test ! -s "$d/matching16.err"
for jobs in 1 2; do
    probe-kit run --instance "$d/matching16.json" --trials 1100 --cg-steps 20 \
        --seed 0 --jobs "$jobs" --out "$d/matching16-jobs$jobs-report.json"
done
cmp "$d/matching16-jobs1-report.json" "$d/matching16-jobs2-report.json"
python -c "import json, sys; doc = json.load(open(sys.argv[1]));
assert doc['ground']['size'] == 16, doc['ground']
doc['outer'][0] = {'kind': 'explicit', 'n': 16,
                   'independent_sets': [[], [0], [1, 2]]}
json.dump(doc, open(sys.argv[2], 'w'))" "$d/matching16.json" "$d/non-matroid.json"
code=0
probe-kit verify --instance "$d/non-matroid.json" 2> "$d/non-matroid.err" || code=$?
if [ "$code" -ne 2 ] || ! grep -q "outer matroid 0: exchange" "$d/non-matroid.err"; then
    echo "16-element non-matroid verify: exit $code, expected 2 and an exchange failure" >&2
    cat "$d/non-matroid.err" >&2
    exit 1
fi

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
code=0
timeout 20 probe-kit run --instance "$d/inst.json" --trials 100000000 \
    --cg-steps 20 --seed 0 --out "$d" 2> "$d/out-dir.err" || code=$?
if [ "$code" -ne 1 ] || grep -q Traceback "$d/out-dir.err"; then
    echo "run --out naming a directory: exit $code (124: timed out)," \
        "expected 1 before the run and no traceback" >&2
    cat "$d/out-dir.err" >&2
    exit 1
fi

PYTHONPROFILEIMPORTTIME=1 probe-kit --help > /dev/null 2> "$d/help.imports"
PYTHONPROFILEIMPORTTIME=1 probe-kit generate --size 4 --seed 5 \
    --out "$d/startup.json" > /dev/null 2> "$d/generate.imports"
PYTHONPROFILEIMPORTTIME=1 probe-kit run --instance "$d/startup.json" \
    --trials 600 --jobs 2 --out "$d/startup-report.json" 2> "$d/run.imports"
for command in help generate; do
    if grep -qF scipy.optimize "$d/$command.imports"; then
        echo "$command imported scipy.optimize, which only a solve needs" >&2
        exit 1
    fi
    if grep -qF multiprocessing "$d/$command.imports"; then
        echo "$command imported multiprocessing, which only --jobs above 1 needs" >&2
        exit 1
    fi
done
for module in scipy.optimize multiprocessing; do
    if ! grep -qF "$module" "$d/run.imports"; then
        echo "run --jobs 2: the import-time log does not name $module" >&2
        exit 1
    fi
done
echo "console script end to end: ok"
