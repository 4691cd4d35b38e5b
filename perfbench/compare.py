#!/usr/bin/env python3
"""Compare benchmark records, or report the spread of one set.

Every run of perfbench/run.py leaves a record in .bench_build/results/
(record-<workload>-seed<seed>-trace<0|1>.json) holding its fingerprint
(schema, workload, seed, seconds, trace, jobs, nproc, CPU model, build
type, commit), its outcome digest and its metrics. Copy the records of
a set of runs into a directory to keep them.

    python3 perfbench/compare.py spread DIR
        Per workload and end-to-end metric: median, quartiles, and the
        quartile spread as a share of the median, against the metric's
        bound in BENCHMARK.json.

    python3 perfbench/compare.py diff BASE_DIR CAND_DIR
        Per workload and end-to-end metric: the candidate median's
        change against the base median, judged against the bound.
        Exit 1 if any metric got worse by more than its bound.

Records are only compared when their fingerprints agree. Within one
set every field but the seed must be equal, the commit included; two
sets must agree on every field but the commit, and must cover the same
seeds. Anything else is refused (exit 2): numbers from another host,
build type, job count or run length are not comparable.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def refuse(message):
    print(f"compare: refusing: {message}", file=sys.stderr)
    sys.exit(2)


def load_set(directory):
    """Untraced records of a directory, keyed by (workload, seed)."""
    records = {}
    for path in sorted(Path(directory).glob("record-*-trace0.json")):
        rec = json.loads(path.read_text())
        fp = rec["fingerprint"]
        records[(fp["workload"], fp["seed"])] = rec
    if not records:
        refuse(f"no untraced records in {directory}")
    keys = {json.dumps({k: v for k, v in r["fingerprint"].items()
                        if k not in ("seed", "workload")}, sort_keys=True)
            for r in records.values()}
    if len(keys) != 1:
        refuse(f"fingerprints within {directory} differ: {sorted(keys)}")
    return records


def environment(records):
    fp = next(iter(records.values()))["fingerprint"]
    return {k: v for k, v in fp.items() if k not in ("seed", "commit",
                                                     "workload")}


def by_workload(records):
    grouped = defaultdict(list)
    for (workload, _seed), rec in sorted(records.items()):
        grouped[workload].append(rec)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"]


def spread(directory):
    records = load_set(directory)
    print(f"environment: {json.dumps(environment(records))}")
    worst = 0.0
    for workload, recs in by_workload(records).items():
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"\n{workload}: {len(recs)} runs, {failed} failed ops, "
              f"digests {len({r['digest'] for r in recs})} distinct")
        for m in end_to_end():
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in recs]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            ratio = share / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            print(f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {100 * share:6.2f}% "
                  f"(bound {100 * m['bound']:.0f}%, {ratio:.2f} of it)")
    print(f"\nlargest spread / bound, setup_s excluded: {worst:.2f}")


def diff(base_dir, cand_dir):
    base, cand = load_set(base_dir), load_set(cand_dir)
    if environment(base) != environment(cand):
        refuse(f"environments differ: {environment(base)} vs "
               f"{environment(cand)}")
    if set(base) != set(cand):
        refuse("the two sets do not cover the same workloads and seeds")
    regressed = False
    for workload, recs in by_workload(base).items():
        seeds = [r["fingerprint"]["seed"] for r in recs]
        same = sum(base[(workload, s)]["digest"] ==
                   cand[(workload, s)]["digest"] for s in seeds)
        print(f"\n{workload}: {len(seeds)} seeds, outcome digests equal "
              f"on {same}/{len(seeds)}")
        for m in end_to_end():
            b = [base[(workload, s)]["result"]["metrics"][m["name"]]["value"]
                 for s in seeds]
            c = [cand[(workload, s)]["result"]["metrics"][m["name"]]["value"]
                 for s in seeds]
            bm, cm = statistics.median(b), statistics.median(c)
            change = (cm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "WORSE beyond bound" if worse > m["bound"] else (
                "better" if worse < 0 else "within bound")
            regressed |= worse > m["bound"]
            print(f"  {m['name']:<14} base {bm:<12.6g} cand {cm:<12.6g} "
                  f"{100 * change:+7.2f}% (bound {100 * m['bound']:.0f}%) "
                  f"{verdict}")
    sys.exit(1 if regressed else 0)


def main(argv):
    if len(argv) == 2 and argv[0] == "spread":
        spread(argv[1])
    elif len(argv) == 3 and argv[0] == "diff":
        diff(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv[1:])
