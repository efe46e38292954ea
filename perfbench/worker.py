"""Workload process of the benchmark (started by run.py, one per phase).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --workdir DIR --result FILE \
        [--rounds R] [--baseline RUN_RESULT --spans FILE]

Set-up is everything before the first timed operation: importing fastslow,
building the first round's inputs (fields, specs, spec files) and a warm-up
``selftest`` command.  ``--mode setup`` stops there.  ``--mode run`` then
runs whole rounds of operations until their summed latency reaches
``--seconds`` (formal_embed: a fixed number of rounds, see
``FIXED_ROUND_S``), or exactly ``--rounds`` rounds.  ``--mode trace`` runs the rounds of an earlier ``--mode
run`` result (``--baseline``) again with every public library function
wrapped in spans, checks that each operation gave the same output bytes,
and then runs the kernel microbenchmarks; the spans go to ``--spans``.  The
result is written to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

CELLS = ("m2o7", "m3o5", "m4o4", "m3o6s")
CLI_COMMANDS = ("classify", "reduce", "embed", "verify-reduced", "contact",
                "center-manifold", "fold-exit", "branch-select")
# a formal_embed round takes about 30 s on a 2-core Xeon VM, as long as a
# whole run, so it runs seconds // 30 rounds (at least one) instead of
# stopping on time: on a fast host a second round would double the run
FIXED_ROUND_S = {"formal_embed": 30.0}


def _op_record(op, tracer, W) -> dict:
    # every operation starts from a collected heap: the collector's full
    # passes depend on how many objects earlier work left alive, which
    # would otherwise make one operation's cost depend on the ones before.
    # The set-up heap is frozen (see main), so this pass costs about 1 ms
    gc.collect()
    if tracer is not None:
        tracer.current_tag = tracer.tag_id(op.label)
        tracer.active = True
    t0 = perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            outcome = op.check(result)
        except Exception as exc:
            outcome = W.Outcome(False, f"output check raised {type(exc).__name__}: "
                                       f"{exc}", "")
    else:
        outcome = W.Outcome(False, error, "")
    return {"label": op.label, "latency_s": latency, "ok": bool(outcome.ok),
            "detail": outcome.detail, "defects": list(outcome.defects),
            "fingerprint": hashlib.sha256(outcome.fingerprint.encode()).hexdigest()}


def _run_rounds(make_round, seed, workdir, first, W, seconds=None, rounds=None,
                tracer=None):
    """Whole rounds until the summed latency reaches ``seconds`` (or exactly
    ``rounds`` rounds).  Returns (records, ops, busy seconds, rounds)."""
    records, all_ops, busy, r, ops = [], [], 0.0, 0, first
    while True:
        for op in ops:
            rec = _op_record(op, tracer, W)
            records.append(rec)
            busy += rec["latency_s"]
        all_ops.extend(ops)
        r += 1
        if (rounds is not None and r >= rounds) or (rounds is None and busy >= seconds):
            return records, all_ops, busy, r
        ops = make_round(seed, r, workdir)


def _mark(records, i, why):
    records[i]["ok"] = False
    records[i]["detail"] += f"; {why}"


def _warm_up(C) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = C.execute_command(["selftest"])
    if code != 0:
        raise RuntimeError(f"warm-up selftest failed:\n{out.getvalue()}")


def _p50(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def per_layer(summary, tracer, untraced, traced_busy, untraced_busy, micro) -> dict:
    """Every per-layer metric.  A layer the workload does not exercise
    reads 0 (no calls, no time); the sample counts say which."""
    m: dict[str, float] = {}
    s = summary
    m["jets.jet_mul.calls"] = s.calls("jets.jet_mul")
    m["jets.jet_mul.pairs"] = tracer.counts["jets.jet_mul.pairs"]
    m["jets.jet_mul.self_s"] = s.self_s("jets.jet_mul")
    pairs = m["jets.jet_mul.pairs"]
    m["jets.jet_mul.ns_per_pair"] = m["jets.jet_mul.self_s"] * 1e9 / pairs if pairs else 0.0
    for fn in ("jet_compose", "jet_matrix_inverse", "jet_shift"):
        m[f"jets.{fn}.calls"] = s.calls(f"jets.{fn}")
        m[f"jets.{fn}.self_s"] = s.self_s(f"jets.{fn}")
    m["jets.self_frac"] = s.layer_self_s("jets") / traced_busy if traced_busy else 0.0
    for key in ("jets.mul_us.m3o6", "jets.mul_us.m4o5", "jets.compose_us.m4o5",
                "jets.shift_us.m3o6", "jets.matinv_us.p2m4o5"):
        m[key] = micro[key]
    for fn in ("flow_time1_jet", "takens_embed_unipotent"):
        for cell in CELLS:
            m[f"embedding.{fn}.s.{cell}"] = s.inclusive_s(f"embedding.{fn}",
                                                          tag=f"embed:{cell}")
    m["embedding.takens_embed_unipotent.self_s"] = s.self_s("embedding.takens_embed_unipotent")
    m["embedding.takens_embed_unipotent.calls"] = s.calls("embedding.takens_embed_unipotent")
    for fn in ("verify_reduced_embedding", "projection_jets"):
        m[f"embedding.{fn}.s"] = s.inclusive_s(f"embedding.{fn}")
    for fn in ("cm_normal_form_transform", "center_manifold_restricted_map",
               "embed_on_center_manifold", "embed_2d", "check_regular_contact",
               "classify_planar_singularity"):
        m[f"singularities.{fn}.s"] = s.inclusive_s(f"singularities.{fn}")
    m["singularities.center_manifold_restricted_map.self_s"] = \
        s.self_s("singularities.center_manifold_restricted_map")
    for fn in ("FastSlowMapSpec", "recenter", "classify_point", "reduced_data",
               "extended_map_jets"):
        m[f"model.{fn}.s"] = s.inclusive_s(f"model.{fn}")
    m["specfiles.parse_mapspec.s"] = s.inclusive_s("specfiles.parse_mapspec")
    m["specfiles.parse_mapspec.bytes"] = tracer.counts["specfiles.parse_mapspec.bytes"]
    m["specfiles.emit_mapspec.s"] = s.inclusive_s("specfiles.emit_mapspec")
    m["specfiles.emit_jetvector.s"] = s.inclusive_s("specfiles.emit_jetvector")
    # per-command latency from the untraced pass, so it carries no overhead
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.p50_s"] = _p50([r["latency_s"] for r in untraced
                                      if r["label"] == f"cli:{cmd}"])
    cli_total = s.layer_inclusive_s("cli")
    m["cli.self_frac"] = s.layer_self_s("cli") / cli_total if cli_total else 0.0
    m["dynamics.map_steps"] = tracer.counts["dynamics.map_steps"]
    m["dynamics.step_us"] = micro["dynamics.step_us"]
    m["dynamics.eval_us"] = micro["dynamics.eval_us"]
    for fn in ("fold_exit_experiment", "branch_selection_experiment"):
        m[f"dynamics.{fn}.s"] = s.inclusive_s(f"dynamics.{fn}")
    m["trace.overhead_frac"] = traced_busy / untraced_busy - 1.0 if untraced_busy else 0.0
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many rounds instead (--mode run)")
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--baseline", default=None,
                    help="result file of the untraced run (--mode trace)")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    t0 = perf_counter()
    import numpy
    import scipy
    from fastslow import cli as C
    import workloads as W
    make_round = W.WORKLOADS[args.workload]
    first = make_round(args.seed, 0, args.workdir)
    _warm_up(C)
    setup_s = perf_counter() - t0
    # objects alive after set-up (modules, first inputs) stay alive; freezing
    # them keeps the per-operation collection from rescanning them
    gc.collect()
    gc.freeze()

    out: dict = {"setup_s": setup_s, "env": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS}}}
    if args.mode == "run":
        rounds = args.rounds
        if rounds is None and args.workload in FIXED_ROUND_S:
            rounds = max(1, int(args.seconds // FIXED_ROUND_S[args.workload]))
        records, _, busy, rounds = _run_rounds(make_round, args.seed, args.workdir,
                                               first, W, seconds=args.seconds,
                                               rounds=rounds)
        if args.workload == "spec_analysis":
            # identical invocations must give byte-identical stdout and files
            again = [_op_record(op, None, W)
                     for op in make_round(args.seed, 0, args.workdir)]
            for i, rec in enumerate(again):
                if rec["fingerprint"] != records[i]["fingerprint"]:
                    _mark(records, i, "repeated call gave different output bytes")
            out["repeat_checked"] = len(again)
        out.update(rounds=rounds, busy_s=busy, records=records,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    elif args.mode == "trace":
        # a fresh process, so the library's caches start as cold as they
        # did in the untraced run of the same rounds
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)
        import micro
        from tracer import SpanSummary, Tracer
        tracer = Tracer()
        out["patched_bindings"] = tracer.install()
        try:
            traced, ops, busy, _ = _run_rounds(make_round, args.seed, args.workdir,
                                               first, W, rounds=base["rounds"],
                                               tracer=tracer)
        finally:
            tracer.uninstall()
        records = base["records"]
        for i, rec in enumerate(traced):
            if rec["fingerprint"] != records[i]["fingerprint"]:
                _mark(records, i, "traced output differs from untraced")
            if not rec["ok"]:
                _mark(records, i, f"traced run: {rec['detail']}")
        tracer.counts["dynamics.map_steps"] += sum(
            op.map_steps() for op in ops if op.map_steps is not None)
        # last, so their allocations leave the traced pass's heap as the
        # untraced run had it
        gc.collect()
        kernels = micro.run_all(args.seed)
        if args.spans:
            tracer.save(args.spans)
        out.update(rounds=base["rounds"], records=records, traced_busy_s=busy,
                   spans={"file": args.spans, "count": len(tracer.start)},
                   per_layer=per_layer(SpanSummary(tracer), tracer, records, busy,
                                       base["busy_s"], kernels))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
