"""Run the embedding stress set through the finite-series solver and through
the dense oracle, and record each input's round trip and gap as JSON.

    PYTHONPATH=src python3 tools/embed_stress.py --out STRESS_<n>.json

The set has 144 inputs: the cells m4o6, m5o5, m6o5 and m5o6 (num_vars m,
order o), the nilpotent linear part scaled 1, 2 and 3 times, and 12 seeds
each.  A seed draws a field V with ``perfbench.gen.nilpotent_field`` (every
monomial present, one Jordan chain over all m variables) and a matrix
P = I + U(-0.3, 0.3); the input is the time-1 map H of the conjugated field
P^-1 V(P x), so its linear part is not triangular.  H is embedded twice: by
``takens_embed_unipotent``, and by the same function with its per-degree
solve replaced by ``dense_takens_solve`` of ``tests/conftest.py``.

Per input the file holds, for each solver, the round trip
max |embedded - field| / max(1, |field|), the residual relative to
max(1, |H|), and the refusal: the message of the ``ConvergenceError`` that
``takens_embed_unipotent`` raises when that residual is above
``embed_residual`` (default 1e-9), or null.  A refused input is embedded
again with the band lifted, so its round trip and residual are recorded
too.  The file also holds the gap between the two embeddings relative to
the largest coefficient of the dense one.  The summary counts the inputs
that meet a 1e-9 round trip and the inputs refused with each solver, lists
the refused ones and any that meets the round trip with the dense solve
only.  Not part of the test suite; it takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), ROOT]

import numpy as np  # noqa: E402

from conftest import dense_takens_solve  # noqa: E402
from fastslow import embedding  # noqa: E402
from fastslow.errors import ConvergenceError  # noqa: E402
from fastslow.jets import (JetVector, jet_linear_map, jetvector_compose,  # noqa: E402
                           max_coeff_diff)
from fastslow.tols import DEFAULT_TOLS  # noqa: E402
from perfbench.gen import nilpotent_field  # noqa: E402

CELLS = {"m4o6": (4, 6), "m5o5": (5, 5), "m6o5": (6, 5), "m5o6": (5, 6)}
SCALES = (1, 2, 3)
SEEDS = range(12)
ROUND_TRIP = 1e-9
UNCHECKED = dataclasses.replace(DEFAULT_TOLS, embed_residual=math.inf)
SOLVES = {"series": embedding._takens_solve, "dense": dense_takens_solve}


def stress_field(m: int, order: int, scale: int, seed: int) -> JetVector:
    """P^-1 V(P x) for the seeded field V with its linear part scaled."""
    rng = np.random.default_rng(seed)
    V = nilpotent_field(rng, m, order, 1.0, m)
    ident = JetVector.identity(m, order)
    V = V + JetVector(jet_linear_map((scale - 1) * V.linear_matrix(), ident), m, order)
    P = np.eye(m) + rng.uniform(-0.3, 0.3, (m, m))
    inner = jet_linear_map(P, ident)
    return JetVector(jet_linear_map(np.linalg.inv(P), jetvector_compose(V, inner)),
                     m, order)


def embed(H: JetVector, order: int, solve) -> tuple[JetVector, float, str | None]:
    """The field embedding ``H`` with the per-degree solve ``solve``, its
    residual relative to max(1, |H|), and the refusal message at the
    default tolerances (None if accepted)."""
    series = embedding._takens_solve
    embedding._takens_solve = solve
    try:
        try:
            embedding.takens_embed_unipotent(H, order)
            refusal = None
        except ConvergenceError as exc:
            refusal = str(exc)
        res = embedding.takens_embed_unipotent(H, order, UNCHECKED)
    finally:
        embedding._takens_solve = series
    return res.V, res.residual / max(1.0, H.max_abs()), refusal


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    inputs = []
    for cell, (m, order) in CELLS.items():
        for scale in SCALES:
            for seed in SEEDS:
                V = stress_field(m, order, scale, seed)
                H = embedding.flow_time1_jet(V, order)
                got = {name: embed(H, order, solve) for name, solve in SOLVES.items()}
                size = max(1.0, V.max_abs())
                inputs.append({
                    "cell": cell, "scale": scale, "seed": seed,
                    "round_trip": {name: max_coeff_diff(W, V) / size
                                   for name, (W, _, _) in got.items()},
                    "residual": {name: r for name, (_, r, _) in got.items()},
                    "refusal": {name: msg for name, (_, _, msg) in got.items()},
                    "gap": max_coeff_diff(got["series"][0], got["dense"][0])
                    / got["dense"][0].max_abs(),
                })
                print(cell, scale, seed, inputs[-1]["round_trip"], inputs[-1]["residual"],
                      inputs[-1]["gap"], file=sys.stderr)

    where = ("cell", "scale", "seed")
    meets = {name: sum(rec["round_trip"][name] <= ROUND_TRIP for rec in inputs)
             for name in SOLVES}
    refused = {name: [{k: rec[k] for k in where} for rec in inputs
                      if rec["refusal"][name]] for name in SOLVES}
    dense_only = [{k: rec[k] for k in where} for rec in inputs
                  if rec["round_trip"]["dense"] <= ROUND_TRIP < rec["round_trip"]["series"]]
    record = {
        "round_trip_bound": ROUND_TRIP,
        "embed_residual": DEFAULT_TOLS.embed_residual,
        "numpy": np.__version__,
        "summary": {"inputs": len(inputs), "meet_round_trip": meets,
                    "refused": {name: len(recs) for name, recs in refused.items()},
                    "refused_series": refused["series"],
                    "largest_accepted_residual": max(
                        (rec["residual"]["series"] for rec in inputs
                         if not rec["refusal"]["series"]), default=0.0),
                    "dense_only": dense_only,
                    "largest_gap": max(rec["gap"] for rec in inputs)},
        "inputs": inputs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 1 if dense_only else 0


if __name__ == "__main__":
    sys.exit(main())
