"""Record a benchmark comparison of two checkouts as one JSON file.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

Each directory is the root of a fastslow checkout on which
``perfbench/run.py --trace 0`` has run, once per seed and workload; the
result files ``perfbench/out/<workload>-s<seed>-trace0.json`` are read
from both.  Metric names, units, directions and bounds come from
``BENCHMARK.json`` of CHANGE_DIR.  For each workload and end-to-end metric
the output holds, per side, the median, the quartiles, IQR/median and every
run by seed; and, over the seeds run on both sides, the number of pairs the
change wins and the median gap in units of the parent's IQR.  Per workload
and operation label (``cli:center-manifold``, ``embed:m3o5``, ...) it holds
each side's median latency over every operation of every run, and the
label's share of the summed latency, so that a file shows where a round's
time moved.  It also holds each run's round count by side and seed (a
spec_analysis run stops on time, so its rounds show how close it came to
``run.py``'s deadline and how much it retained), the git sha and the
Python, numpy and scipy versions of each side, and the failed and attempted
operation counts.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

RESULT = re.compile(r"^(?P<workload>[a-z_]+)-s(?P<seed>\d+)-trace0\.json$")


def _runs(root: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result record of one checkout."""
    out_dir = os.path.join(root, "perfbench", "out")
    runs: dict[str, dict[int, dict]] = {}
    for name in sorted(os.listdir(out_dir)):
        match = RESULT.match(name)
        if match:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                runs.setdefault(match["workload"], {})[int(match["seed"])] = json.load(fh)
    return runs


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None}


def _labels(runs: dict[int, dict]) -> dict[str, dict]:
    """label -> median latency and share of the summed latency, over every
    operation of the given runs."""
    latencies: dict[str, list[float]] = {}
    for run in runs.values():
        for op in run["records"]:
            latencies.setdefault(op["label"], []).append(op["latency_s"])
    total = sum(sum(values) for values in latencies.values())
    return {label: {"median_s": statistics.median(values),
                    "share": sum(values) / total if total else None}
            for label, values in sorted(latencies.items())}


def _side(records: list[dict]) -> dict:
    shas = sorted({r["git_sha"] for r in records})
    env = records[0]["env"]
    return {"git_sha": shas[0] if len(shas) == 1 else shas,
            "python": env["python"], "numpy": env["numpy"], "scipy": env["scipy"]}


def record(parent_root: str, change_root: str) -> dict:
    with open(os.path.join(change_root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    parent, change = _runs(parent_root), _runs(change_root)
    workloads = {}
    for workload in sorted(set(parent) & set(change)):
        sides = {"parent": parent[workload], "change": change[workload]}
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        metrics = {}
        for spec in declared:
            name, higher = spec["name"], spec["better"] == "higher"
            entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
            for side, runs in sides.items():
                by_seed = {seed: runs[seed]["metrics"][name] for seed in sorted(runs)}
                entry[side] = {**_summary(list(by_seed.values())), "runs": by_seed}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in ((sides["parent"][s]["metrics"][name],
                                     sides["change"][s]["metrics"][name]) for s in seeds))
            p, c = entry["parent"], entry["change"]
            iqr = p["q3"] - p["q1"]
            entry["pairs"] = len(seeds)
            entry["change_wins"] = wins
            entry["change_over_parent"] = c["median"] / p["median"] if p["median"] else None
            entry["median_gap_over_parent_iqr"] = (abs(c["median"] - p["median"]) / iqr
                                                   if iqr else None)
            metrics[name] = entry
        counts = {side: {"attempted": sum(len(r["records"]) for r in runs.values()),
                         "failed": sum(not op["ok"] for r in runs.values()
                                       for op in r["records"])}
                  for side, runs in sides.items()}
        labels = {side: _labels(runs) for side, runs in sides.items()}
        rounds = {side: {seed: runs[seed]["rounds"] for seed in sorted(runs)}
                  for side, runs in sides.items()}
        workloads[workload] = {"seeds": seeds, "seconds": sorted({r["seconds"] for r in
                                                                  sides["change"].values()}),
                               "operations": counts, "rounds": rounds,
                               "metrics": metrics,
                               "latency_by_label": {
                                   label: {side: labels[side].get(label)
                                           for side in sides}
                                   for label in sorted(set(labels["parent"])
                                                       | set(labels["change"]))}}
    if not workloads:
        raise ValueError("no workload has --trace 0 results in both checkouts")
    first = next(iter(workloads))
    return {"parent": _side(list(parent[first].values())),
            "change": _side(list(change[first].values())),
            "workloads": workloads}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    try:
        result = record(args.parent_dir, args.change_dir)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=False)
        fh.write("\n")
    for workload, data in result["workloads"].items():
        ops = data["operations"]
        print(f"{workload}: {len(data['seeds'])} pairs; failed "
              f"{ops['parent']['failed']}/{ops['parent']['attempted']} (parent), "
              f"{ops['change']['failed']}/{ops['change']['attempted']} (change)")
        for side, by_seed in data["rounds"].items():
            print(f"  rounds {side}: " + ", ".join(f"s{seed} {n}"
                                                   for seed, n in by_seed.items()))
        for name, m in data["metrics"].items():
            line = "  ".join(f"{side} {m[side]['median']:.4g} (IQR/median "
                             f"{m[side]['iqr_over_median'] or 0.0:.3f})"
                             for side in ("parent", "change"))
            print(f"  {name:12s} {line}  change wins {m['change_wins']}/{m['pairs']}")
        for label, by_side in data["latency_by_label"].items():
            line = "  ".join(f"{side} {'-' if v is None else format(v['median_s'], '.4g')} s "
                             f"({'-' if v is None else format(v['share'], '.1%')})"
                             for side, v in by_side.items())
            print(f"  {label:24s} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
