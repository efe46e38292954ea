"""The three benchmark workloads: their operations and output checks.

An operation is a pair of callables.  ``call()`` is the timed library call;
``check(result)`` runs afterwards, untimed, and returns an :class:`Outcome`.
Its fingerprint is a string that holds every output byte the operation
produced; the traced run compares it with the untraced one, and
``spec_analysis`` compares it across repeated calls.  Output that is
readable but malformed (a numpy repr such as ``np.float64(0.5)`` in a CSV
cell) is listed as a defect of the outcome: the value is still checked
against its band, and the run reports every defect it saw.

A workload builds its operations in rounds.  Every round has the same mix
of operations on freshly seeded inputs, so a run that stops at a round
boundary always has the stated input mix.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from fastslow import cli as C
from fastslow import dynamics as D
from fastslow import embedding as E
from fastslow import jets as J
from fastslow import singularities as S
from fastslow import specfiles as F

import gen

# pinned tolerances of the output checks (the library's defaults and the
# acceptance criteria's bands)
EMBED_ROUND_TRIP = 1e-9        # formal_embed: coefficients and residual
EMBED_RESIDUAL = 1e-9          # Tolerances.embed_residual
STRUCTURE = 1e-8               # Tolerances.structure
INVARIANCE = 1e-10             # acceptance criterion 9
MULTIPLIER_ONE = 1e-10         # acceptance criterion 9
EPS_ORDER = 1e-10              # acceptance criterion 3
J1_DIFF = 1e-12                # test_embedding's verify-reduced band
FOLD_R2 = 0.999                # acceptance criterion 5 (slope is not gated)

BRANCH_EPS = (1e-4, 1e-3)
FOLD_GRID = np.logspace(-5, -3, 8)
FOLD_RHO = 0.1                 # also the default --rho of the fold-exit command
# the dynamics commands of spec_analysis: one fixed eps and a short grid,
# so their map steps (and time) stay a small, seed-independent share
CLI_BRANCH_EPS = 3e-4
CLI_FOLD_GRID = (1e-4, 1e-3, 4)
BRANCH_PER_ROUND = 24
ERROR_LINE = re.compile(r"^error\[[A-Za-z]+\]: \S")
NUMPY_REPR = re.compile(r"np\.\w+\(([^()]*)\)")


class Outcome(NamedTuple):
    ok: bool
    detail: str
    fingerprint: str
    defects: tuple[str, ...] = ()


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # map steps of an operation whose orbits the library does not return,
    # recounted through track_slow_manifold (traced run only)
    map_steps: Callable[[], int] | None = None


def _rng(seed: int, round_index: int, slot: int):
    return np.random.default_rng([seed, round_index, slot])


def _point_arg(z) -> str:
    # one token, so argparse does not read a leading minus as an option
    return "--point=" + ",".join(repr(float(v)) for v in z)


# ---------------------------------------------------------------------------
# formal_embed


def _embed_op(cell: str, V) -> Op:
    order = gen.EMBED_CELLS[cell][1]

    def call():
        H = E.flow_time1_jet(V, order)
        return E.takens_embed_unipotent(H, order)

    def check(res):
        err = J.max_coeff_diff(res.V, V.degree_cap(order))
        ok = err <= EMBED_ROUND_TRIP and res.residual <= EMBED_ROUND_TRIP
        fp = F.emit_jetvector(res.V, comment=f"residual {res.residual!r}")
        return Outcome(ok, f"coefficient error {err:.3e}, residual "
                           f"{res.residual:.3e}", fp)

    return Op(f"embed:{cell}", call, check)


def formal_embed_round(seed: int, r: int, workdir: str) -> list[Op]:
    """One round trip per scaling-grid cell."""
    return [_embed_op(cell, gen.nilpotent_field(_rng(seed, r, slot), m, order,
                                                fill, depth))
            for slot, (cell, (m, order, fill, depth))
            in enumerate(gen.EMBED_CELLS.items())]


# ---------------------------------------------------------------------------
# spec_analysis


def _read_csv(text: str) -> list[list[str]]:
    """Data rows of a ReportTable CSV; a cell written as a numpy repr is
    read by its inner value (the repr itself is reported as a defect)."""
    rows = [NUMPY_REPR.sub(r"\1", ln).split(",") for ln in text.splitlines()
            if ln and not ln.startswith("#")]
    return rows[1:]  # drop the column header


def _cli_op(label: str, argv: list[str], out: str | None,
            verify: Callable[[int, str, str, str], tuple[bool, str]],
            map_steps: Callable[[], int] | None = None) -> Op:
    """One in-process ``execute_command`` call with stdout/stderr captured;
    the ``--out`` file, when given, is read back by the check."""
    def call():
        if out is not None and os.path.exists(out):
            os.remove(out)
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                code = C.execute_command(argv)
            except SystemExit as exc:  # argparse refusal
                code = exc.code if isinstance(exc.code, int) else 2
        return code, so.getvalue(), se.getvalue()

    def check(res):
        code, stdout, stderr = res
        text = ""
        if out is not None and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        ok, detail = verify(code, stdout, stderr, text)
        fp = f"exit={code}\n--stdout\n{stdout}--stderr\n{stderr}--file\n{text}"
        defects = tuple(sorted({f"{label}: numpy repr {m.group(0).split('(')[0]}(...) "
                                "in a CSV cell or stdout"
                                for m in NUMPY_REPR.finditer(stdout + text)}))
        return Outcome(ok, detail, fp, defects)

    return Op(label, call, check, map_steps)


def _expect_exit0(code, stderr) -> str | None:
    if code != 0:
        return f"exit {code}: {stderr.strip()[:200]}"
    return None


def _verify_classify(expected: str):
    def verify(code, stdout, stderr, _text):
        bad = _expect_exit0(code, stderr)
        if bad:
            return False, bad
        got = stdout.strip()
        return got == expected, f"tag {got!r} (expected {expected!r})"
    return verify


def _verify_reduce(spec, z):
    n = spec.n

    def verify(code, stdout, stderr, text):
        bad = _expect_exit0(code, stderr)
        if bad:
            return False, bad
        P = np.zeros((n, n))
        red = np.zeros(n)
        valid = 0.0
        for q, i, j, v in _read_csv(text):
            if q == "valid":
                valid = float(v)
            elif q == "projection":
                P[int(i) - 1, int(j) - 1] = float(v)
            elif q == "reduced_field":
                red[int(i) - 1] = float(v)
        N, Df, g = spec.N_at(z), spec.Df_at(z), spec.G_at(z, 0.0)
        worst = max(np.max(np.abs(P @ P - P)), np.max(np.abs(P @ N)),
                    np.max(np.abs(Df @ P)), np.max(np.abs(red - P @ g)))
        return (valid == 1.0 and worst <= STRUCTURE,
                f"valid {valid}, projection identities {worst:.2e}")
    return verify


def _verify_embed_planar(case: str):
    head = re.compile(r"case (\w+) -> (\w+)  K0=(\S+)  factor_residual=(\S+)")
    tail = re.compile(r"residual=(\S+) order=(\d+)")

    def verify(code, stdout, stderr, text):
        bad = _expect_exit0(code, stderr)
        if bad:
            return False, bad
        h, t = head.search(stdout), tail.search(stdout)
        if not (h and t):
            return False, f"unparsed stdout {stdout[:200]!r}"
        k0, fres, res = float(h.group(3)), float(h.group(4)), float(t.group(1))
        field = F.parse_jetvector(text)
        ok = (h.group(1) == h.group(2) == case and abs(k0 - 1.0) <= STRUCTURE
              and fres <= STRUCTURE and res <= EMBED_RESIDUAL
              and len(field) == 3)
        return ok, (f"{h.group(1)}->{h.group(2)} K0-1 {k0 - 1.0:.2e} "
                    f"factor {fres:.2e} residual {res:.2e}")
    return verify


def _verify_refusal(code, stdout, stderr, _text):
    lines = stderr.splitlines()
    ok = code == 2 and len(lines) == 1 and bool(ERROR_LINE.match(lines[0]))
    return ok, f"exit {code}, stderr {stderr.strip()[:200]!r}"


def _verify_reduced_table(code, stdout, stderr, text):
    bad = _expect_exit0(code, stderr)
    if bad:
        return False, bad
    worst = {"j1_diff": 0.0, "eps01_diff": 0.0, "eps2_diff": 0.0,
             "embedding_residual": 0.0}
    for q, _deg, v in _read_csv(text):
        if q in worst:
            worst[q] = max(worst[q], abs(float(v)))
    ok = (worst["j1_diff"] <= J1_DIFF and worst["eps01_diff"] <= EPS_ORDER
          and worst["eps2_diff"] <= EPS_ORDER
          and worst["embedding_residual"] <= EMBED_RESIDUAL)
    return ok, " ".join(f"{k} {v:.2e}" for k, v in worst.items())


def _verify_contact(code, stdout, stderr, text):
    bad = _expect_exit0(code, stderr)
    if bad:
        return False, bad
    vals = {q: float(v) for q, v in _read_csv(text)}
    ok = (stdout.strip() == "contact" and vals.get("verdict") == 1.0
          and vals.get("rank_ok") == 1.0 and vals.get("transversality_ok") == 1.0)
    return ok, f"verdict {vals.get('verdict')}"


_CM_BANDS = {
    "rectification_residual": STRUCTURE, "pure_x_residual": STRUCTURE,
    "jacobian_residual": STRUCTURE, "restricted_multiplier_minus_1": MULTIPLIER_ONE,
    "linear_match": STRUCTURE, "factor_residual": STRUCTURE,
    "partials_diff": STRUCTURE, "quad_closed_diff": STRUCTURE,
}
# absolute coefficient gaps of the graph and restricted-map jets; their
# bands scale with the largest of those coefficients (at least 1)
_CM_SCALED_BANDS = {"invariance_residual": INVARIANCE,
                    "embedding_residual": EMBED_RESIDUAL}


def _cm_scale(spec) -> float:
    """Largest coefficient of the center-manifold graph and restricted map.
    On random contact specs the graph coefficients reach 1e7 at order 5,
    where an absolute gap of 1e-8 is a relative error of 1e-16."""
    nf = S.cm_normal_form_transform(spec)
    cm = S.center_manifold_restricted_map(nf, order=spec.order - 1)
    return max([1.0] + [c.max_abs() for c in cm.W]
               + [c.max_abs() for c in cm.restricted_map])


def _verify_center_manifold(spec):
    def verify(code, stdout, stderr, text):
        bad = _expect_exit0(code, stderr)
        if bad:
            return False, bad
        vals = {q: float(v) for q, v in _read_csv(text)}
        # the scale is at least 1, so it is recomputed only for a gap over
        # its unscaled band; the verdict is the same either way
        scale = 1.0
        if any(not abs(vals.get(q, math.inf)) <= band
               for q, band in _CM_SCALED_BANDS.items()):
            scale = _cm_scale(spec)
        bands = dict(_CM_BANDS)
        bands.update({q: band * scale for q, band in _CM_SCALED_BANDS.items()})
        over = [f"{q} {vals.get(q, math.inf):.2e} (band {band:.1e})"
                for q, band in bands.items()
                if not abs(vals.get(q, math.inf)) <= band]
        ok = not over and vals.get("contact_ok") == 1.0 \
            and stdout.strip() == "center-manifold pipeline ok"
        return ok, (f"residuals within bands (coefficient scale {scale:.2g})"
                    if not over else "over band: " + ", ".join(over))
    return verify


def _verify_fold_exit(code, stdout, stderr, text):
    bad = _expect_exit0(code, stderr)
    if bad:
        return False, bad
    r2 = re.search(r"r_squared=(\S+)", stdout)
    if not r2:
        return False, f"unparsed stdout {stdout[:200]!r}"
    excluded = "# excluded: none" in text.splitlines()
    ok = float(r2.group(1)) >= FOLD_R2 and excluded
    return ok, f"r^2 {float(r2.group(1)):.6f}, no eps excluded: {excluded}"


def _verify_branch_select(expected: str):
    def verify(code, stdout, stderr, _text):
        bad = _expect_exit0(code, stderr)
        if bad:
            return False, bad
        label = stdout.split(" ", 1)[0]
        return label == expected, f"{label} (expected {expected})"
    return verify


def _write_spec(spec, path: str, name: str) -> None:
    text = F.emit_mapspec(F.MapSpecFile(spec=spec, name=name))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def spec_analysis_round(seed: int, r: int, workdir: str) -> list[Op]:
    """Planar normal forms (order 6), a quadratic-G spec (order 5) and a
    3-D contact spec (order 6), each written with ``emit_mapspec`` and
    analysed through ``execute_command``; the planar specs also go through
    ``fold-exit`` or ``branch-select``."""
    ops: list[Op] = []

    def path(tag: str) -> str:
        return os.path.join(workdir, f"r{r}-{tag}")

    planar = [("fold", "Fold", gen.fold_spec),
              ("transcritical", "Transcritical", gen.transcritical_spec),
              ("pitchfork", "Pitchfork", gen.pitchfork_spec)]
    for slot, (tag, case, make) in enumerate(planar):
        rng = _rng(seed, r, slot)
        spec = make(rng)
        spec_path = path(f"{tag}.map")
        _write_spec(spec, spec_path, tag)
        # an off-base manifold point on a normally hyperbolic branch
        x0 = -float(rng.uniform(0.2, 0.5))
        if tag == "fold":
            a, b = spec.f[0].coefficient((2, 0)), -spec.f[0].coefficient((0, 1))
            z = np.array([x0, a * x0 * x0 / b])
        elif tag == "transcritical":
            z = np.array([x0, -x0])
        else:
            z = np.array([x0, x0 * x0])
        ops.append(_cli_op("cli:classify",
                           ["classify", "--spec", spec_path, "--point=0,0"],
                           None, _verify_classify("FoldContact unipotent_index=1")))
        out = path(f"{tag}-reduce.csv")
        ops.append(_cli_op("cli:reduce",
                           ["reduce", "--spec", spec_path, _point_arg(z),
                            "--out", out], out, _verify_reduce(spec, z)))
        out = path(f"{tag}-field.txt")
        ops.append(_cli_op("cli:embed",
                           ["embed", "--spec", spec_path, "--out", out],
                           out, _verify_embed_planar(case)))
        if tag == "fold":
            out = path("fold-exit.csv")
            ops.append(_cli_op("cli:fold-exit",
                               ["fold-exit", "--spec", spec_path, "--eps",
                                "{!r}:{!r}:log:{}".format(*CLI_FOLD_GRID),
                                "--out", out], out, _verify_fold_exit,
                               _fold_steps(spec, np.logspace(
                                   np.log10(CLI_FOLD_GRID[0]),
                                   np.log10(CLI_FOLD_GRID[1]), CLI_FOLD_GRID[2]))))
        else:
            ops.append(_cli_op("cli:branch-select",
                               ["branch-select", "--spec", spec_path,
                                f"--eps={CLI_BRANCH_EPS!r}"], None,
                               _verify_branch_select(_expected_label(case, spec))))

    rng = _rng(seed, r, 3)
    spec = gen.quadratic_g_spec(rng)
    spec_path = path("quadg.map")
    _write_spec(spec, spec_path, "quadratic-g")
    z = np.array([0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4))])
    ops.append(_cli_op("cli:classify",
                       ["classify", "--spec", spec_path, _point_arg(z)],
                       None, _verify_classify("NH_attracting superstable")))
    out = path("quadg-reduce.csv")
    ops.append(_cli_op("cli:reduce",
                       ["reduce", "--spec", spec_path, _point_arg(z),
                        "--out", out], out, _verify_reduce(spec, z)))
    out = path("quadg-verify.csv")
    ops.append(_cli_op("cli:verify-reduced",
                       ["verify-reduced", "--spec", spec_path, _point_arg(z),
                        "--out", out], out,
                       _verify_reduced_table))
    ops.append(_cli_op("cli:embed-refusal",
                       ["embed", "--spec", spec_path], None, _verify_refusal))

    spec, _ = gen.contact3d_spec(_rng(seed, r, 4))
    spec_path = path("contact.map")
    _write_spec(spec, spec_path, "contact3d")
    out = path("contact.csv")
    ops.append(_cli_op("cli:contact",
                       ["contact", "--spec", spec_path, "--point=0,0,0",
                        "--out", out], out, _verify_contact))
    out = path("cm.csv")
    ops.append(_cli_op("cli:center-manifold",
                       ["center-manifold", "--spec", spec_path, "--out", out],
                       out, _verify_center_manifold(spec)))
    return ops


# ---------------------------------------------------------------------------
# orbit_experiments


def _fit_fp(fit) -> str:
    return repr((fit.eps_values, fit.observables, fit.slope, fit.intercept,
                 fit.r_squared, fit.excluded))


def _fold_steps(spec, grid) -> Callable[[], int]:
    """Steps the fold experiment makes on this spec and eps grid: both
    observables run the same orbits, so the count is taken once."""
    memo: list[int] = []

    def count() -> int:
        if not memo:
            stop = float(spec.base_point[0]) + FOLD_RHO
            memo.append(sum(len(D.track_slow_manifold(spec, float(eps), -0.5,
                                                      stop_x=stop)) - 1
                            for eps in grid))
        return memo[0]
    return count


def _fold_op(spec, observable: str, steps: Callable[[], int]) -> Op:
    def call():
        return D.fold_exit_experiment(spec, FOLD_RHO, FOLD_GRID,
                                      observable=observable)

    def check(fit):
        ok = not fit.excluded and fit.r_squared >= FOLD_R2
        return Outcome(ok, f"slope {fit.slope:.4f} (recorded, not gated), "
                           f"r^2 {fit.r_squared:.6f}, excluded "
                           f"{len(fit.excluded)}", _fit_fp(fit))

    return Op(f"fold_exit:{observable}", call, check, steps)


def _expected_label(case: str, spec) -> str:
    """Label the threshold rule predicts (acceptance criteria 6 and 7)."""
    coeffs = S.classify_planar_singularity(spec).coefficients
    lam = S.threshold_lambda(coeffs)
    if case == "Transcritical":
        return "FastEscape" if lam > 1.0 else "ExchangeOfStability"
    if coeffs.g0 < 0:
        return "BothToCenter"
    return "BranchPlus" if lam > 0.0 else "BranchMinus"


def _branch_op(spec, case: str, eps: float, side: str) -> Op:
    expected = _expected_label(case, spec)

    def call():
        return D.branch_selection_experiment(spec, case, eps, side=side)

    def check(sel):
        fp = repr((sel.label, tuple(sel.exit_point), sel.exit_edge,
                   sel.distance, sel.d_match, sel.lam))
        return Outcome(sel.label == expected,
                       f"{sel.label} (expected {expected})", fp)

    return Op(f"branch:{case}", call, check)


def orbit_round(seed: int, r: int, workdir: str) -> list[Op]:
    """Fold exit law on both observables, then branch selections: half on
    transcritical specs (threshold below and above 1 in turn), half on
    pitchfork specs (g0 > 0 with lam > 0 and lam < 0, g0 < 0 from either
    side), each at a stratified log-uniform eps.  Slot i always gets the
    i-th stratum, so every seed pairs each kind of selection with the same
    range of eps."""
    rng = _rng(seed, r, 0)
    fold = gen.fold_spec(rng, order=5)
    steps = _fold_steps(fold, FOLD_GRID)
    ops = [_fold_op(fold, "exit", steps), _fold_op(fold, "fiber", steps)]
    half = BRANCH_PER_ROUND // 2
    tc_eps = gen.stratified_log_uniform(rng, *BRANCH_EPS, half)
    pf_eps = gen.stratified_log_uniform(rng, *BRANCH_EPS, half)
    pitchfork_modes = [(1.0, 1.0, "plus"), (1.0, -1.0, "plus"),
                       (-1.0, 1.0, "plus"), (-1.0, 1.0, "minus")]
    for i in range(half):
        spec = gen.transcritical_spec(rng, order=5, escape=i % 2 == 1)
        ops.append(_branch_op(spec, "Transcritical", tc_eps[i], "plus"))
        g0_sign, lam_sign, side = pitchfork_modes[i % 4]
        spec = gen.pitchfork_spec(rng, order=5, g0_sign=g0_sign, lam_sign=lam_sign)
        ops.append(_branch_op(spec, "Pitchfork", pf_eps[i], side))
    return ops


WORKLOADS = {
    "formal_embed": formal_embed_round,
    "spec_analysis": spec_analysis_round,
    "orbit_experiments": orbit_round,
}
