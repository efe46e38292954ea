"""fastslow benchmark: one command per workload, end to end or traced.

    python3 perfbench/run.py --workload formal_embed|spec_analysis|orbit_experiments \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports fastslow from ``src/`` of
that checkout and writes only under ``perfbench/out/``.  Every workload
process runs single-threaded with the BLAS/OpenMP thread counts set to 1.

The metric names and units come from ``BENCHMARK.json`` at the checkout
root.  ``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
set-up time of several fresh workload processes, and one of them goes on to
the timed phase.  ``--trace 1`` runs a fixed number of rounds untraced, then
the same operations traced in a fresh process, and reports the per-layer
metrics; its counts repeat exactly for a seed.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(every operation, environment, load average) goes to
``perfbench/out/<workload>-s<seed>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("formal_embed", "spec_analysis", "orbit_experiments")
# workloads that run here but are not in BENCHMARK.json, and why
UNLISTED = {
    "orbit_experiments": "its time is almost all pure-Python map steps, the "
                         "code the host's speed swings move most: its ops_per_s "
                         "spread by 0.23-0.25 of the median over 10 runs at 20 s "
                         "and 0.249 at 35 s, past its bound of 0.24; spec_analysis "
                         "runs the fold-exit and branch-select commands, so the "
                         "dynamics layer is still measured there",
}
# rounds of a traced run: a fixed number, so that its counts repeat exactly
# for a seed, chosen to last about 20 s untraced
TRACE_ROUNDS = {"formal_embed": 1, "spec_analysis": 6, "orbit_experiments": 7}
SETUP_PROCESSES = 3          # set-up samples per run (the last one also runs)
RUN_DEADLINE_S = 170.0       # all workload processes of one run together

# end-to-end figures that are reported but not in BENCHMARK.json, and why
UNGATED = {
    "op_p50_s": "a formal_embed run holds one round of 4 operations of 4 cells, so "
                "its median is the mean of the two middle cells, about 13 s of "
                "work; host speed swings of 20-50 % lasting seconds to minutes "
                "spread it over 10 runs by 0.19-0.26 of its median, past the "
                "0.25 cap on a bound, and on orbit_experiments by 0.19-0.24",
    "op_p90_s": "needs at least 10 samples beyond the 90th percentile (100 "
                "operations); a formal_embed run holds 4, so it is reported only "
                "where a run reaches 100 operations",
    "fail_frac": "reads 0 on a passing run, so it is carried by the 'failed' "
                 "and 'attempted' counts of the result line instead",
}


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _worker(args, deadline: float, mode: str, workdir: str, result: str,
            *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--result", result, *extra]
    proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process ({mode}) exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    """(metrics, sample counts) of one --trace 0 run."""
    recs = run["records"]
    good = sum(r["ok"] for r in recs)
    metrics = {
        "ops_per_s": good / run["busy_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {"ops_per_s": len(recs), "setup_s": len(setups), "peak_rss_mb": 1}
    return metrics, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "fastslow", "__init__.py")):
        print(f"error: no fastslow sources under {os.path.join(ROOT, 'src')}; run "
              "from the root of a fastslow checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_start = _loadavg()
    try:
        setups = []
        for i in range(0 if args.trace else SETUP_PROCESSES - 1):
            r = _worker(args, deadline, "setup", workdir,
                        os.path.join(workdir, f"setup{i}.json"))
            setups.append(r["setup_s"])
        run_file = os.path.join(workdir, "run.json")
        fixed = ["--rounds", str(TRACE_ROUNDS[args.workload])] if args.trace else []
        run = _worker(args, deadline, "run", workdir, run_file, *fixed)
        if args.trace:
            run = _worker(args, deadline, "trace", workdir,
                          os.path.join(workdir, "trace.json"),
                          "--baseline", run_file,
                          "--spans", os.path.join(OUT, f"spans-{tag}.npz"))
            metrics, samples = run["per_layer"], {}
        else:
            setups.append(run["setup_s"])
            metrics, samples = end_to_end(run, setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = _loadavg()
    if list(metrics) != list(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    recs = run["records"]
    failed = [r for r in recs if not r["ok"]]
    defects = sorted({d for r in recs for d in r["defects"]})
    lat = sorted(r["latency_s"] for r in recs)
    extra = {"fail_frac": len(failed) / len(recs),
             "op_p50_s": statistics.median(lat)}
    if len(lat) >= 100:
        extra["op_p90_s"] = _quantile(lat, 0.9)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": load_end,
        "env": run["env"], "rounds": run["rounds"], "metrics": metrics,
        "samples": samples, "extra": extra, "ungated": UNGATED,
        "unlisted_workloads": UNLISTED,
        "failures": [f"{r['label']}: {r['detail']}" for r in failed],
        "output_defects": defects, "records": recs,
    }
    for key in ("spans", "patched_bindings", "traced_busy_s", "repeat_checked"):
        if key in run:
            detail[key] = run[key]
    detail_path = os.path.join(OUT, f"{tag}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    env = run["env"]
    print(f"fastslow benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={run['rounds']} operations={len(recs)}")
    print(f"  git {detail['git_sha']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  nproc {detail['nproc']}")
    print(f"  threads {' '.join(f'{k}={v}' for k, v in env['threads'].items())}")
    print(f"  loadavg start [{load_start}] end [{load_end}]")
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:52s} {value:16.6g} {units[name]}{count}")
    if not args.trace:
        print(f"  {'op_p50_s':52s} {extra['op_p50_s']:16.6g} s  (n={len(lat)}, "
              "not gated)")
        if "op_p90_s" in extra:
            print(f"  {'op_p90_s':52s} {extra['op_p90_s']:16.6g} s  (n={len(lat)}, "
                  "not gated)")
        else:
            print(f"  op_p90_s not reported: {UNGATED['op_p90_s']}")
        print(f"  op_p50_s is not in BENCHMARK.json: {UNGATED['op_p50_s']}")
    if args.workload in UNLISTED:
        print(f"  {args.workload} is not in BENCHMARK.json: {UNLISTED[args.workload]}")
    print(f"  {'fail_frac':52s} {extra['fail_frac']:16.6g} fraction  "
          f"({len(failed)} of {len(recs)})")
    for line in detail["failures"]:
        print(f"  FAILED {line}")
    for line in defects:
        print(f"  output defect (not counted as a failure): {line}")
    print(f"  full record: {os.path.relpath(detail_path, ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(recs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
