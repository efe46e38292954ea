"""Batch command-line surface.

Subcommands: classify, reduce, embed, verify-reduced, fold-exit,
branch-select, contact, center-manifold, selftest.  All pipelines are
reachable from files alone; identical invocations produce byte-identical
output (no timestamps in provenance headers).

Exit status: 0 on success, 2 on assumption/precondition violations
(including malformed inputs), 1 on internal/runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (AssumptionViolationError, DegenerateCaseError, DomainError,
                     FastSlowError, ParseError, PreconditionError,
                     UnsupportedCaseError)
from .jets import Jet, JetVector, jet_mul, max_coeff_diff
from .model import (classify_point, extended_map_jets, nontrivial_multipliers,
                    reduced_data, standard_form_2d)
from .embedding import (flow_time1_jet, takens_embed_unipotent,
                        verify_reduced_embedding)
from .singularities import (center_manifold_restricted_map,
                            check_regular_contact, classify_planar_singularity,
                            cm_normal_form_transform, embed_2d,
                            embed_on_center_manifold, is_standard_2d)
from .dynamics import (branch_selection_experiment, fold_exit_experiment,
                       integrate_time1)
from .specfiles import emit_jetvector, emit_mapspec, parse_jetvector, parse_mapspec
from .tols import DEFAULT_TOLS, Tolerances, with_overrides

__all__ = ["ReportTable", "execute_command", "main"]

_USER_ERRORS = (PreconditionError, AssumptionViolationError, DegenerateCaseError,
                DomainError, ParseError, UnsupportedCaseError)


@dataclass
class ReportTable:
    """Comma-separated table with a '#'-prefixed provenance header.

    Numeric cells are written with full shortest-round-trip precision."""
    columns: list[str]
    rows: list[tuple]
    provenance: dict[str, str]

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    def to_csv(self) -> str:
        lines = [f"# {key}: {value}" for key, value in self.provenance.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(self._cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _provenance(args, loaded, tols: Tolerances) -> dict[str, str]:
    prov = {"tool": f"fastslow {__version__}"}
    if loaded is not None:
        prov["spec"] = loaded.name or args.spec
    prov["tolerances"] = " ".join(
        f"{k}={v!r}" for k, v in sorted(vars(tols).items()))
    return prov


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_point(text: str, n: int) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ParseError(f"bad --point value {text!r}") from None
    if not np.all(np.isfinite(vals)):
        raise ParseError(f"non-finite --point value {text!r}")
    if vals.shape != (n,):
        raise ParseError(f"--point needs {n} comma-separated coordinates")
    return vals


def _parse_eps_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4 or parts[2] != "log":
        raise ParseError(f"bad --eps grid {text!r}, expected A:B:log:N")
    try:
        a, b, count = float(parts[0]), float(parts[1]), int(parts[3])
    except ValueError:
        raise ParseError(f"bad --eps grid {text!r}") from None
    if not (0 < a < b < np.inf) or count < 2:
        raise ParseError("eps grid needs 0 < A < B < inf and N >= 2")
    return np.logspace(np.log10(a), np.log10(b), count)


def _finite_option(value: float, name: str) -> float:
    if not np.isfinite(value):
        raise ParseError(f"non-finite {name} value {value!r}")
    return value


def _load(args, tols: Tolerances, least_order: int = 1):
    with open(args.spec, encoding="utf-8") as fh:
        loaded = parse_mapspec(fh.read(), tols=tols)
    order = getattr(args, "order", None)
    if order is not None and not least_order <= order <= loaded.spec.order:
        raise ParseError(
            f"--order must lie in {least_order}..{loaded.spec.order} "
            "(the spec's jet order)")
    return loaded


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Parsing leaves it
    unchanged: argparse copies the ``--tol`` list default before appending."""
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="analysis of discrete fast-slow maps from map-spec files")
    parser.add_argument("--version", action="version",
                        version=f"fastslow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=False, order=False, out=False):
        p.add_argument("--spec", required=True, help="map-spec file")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
        if point:
            p.add_argument("--point", required=True,
                           help="comma-separated coordinates")
        if order:
            p.add_argument("--order", type=int, default=None,
                           help="jet order for the computation (default: spec order)")
        if out:
            p.add_argument("--out", default=None, help="output file (default stdout)")

    common(sub.add_parser("classify", help="classify a critical-manifold point"),
           point=True)
    common(sub.add_parser("reduce", help="projection and reduced field at a point"),
           point=True, out=True)
    common(sub.add_parser("embed", help="embed the map into a formal flow"),
           order=True, out=True)
    p = sub.add_parser("verify-reduced",
                       help="slow map vs reduced flow coefficient comparison")
    common(p, point=True, order=True, out=True)
    p = sub.add_parser("fold-exit", help="fold exit-level scaling experiment")
    common(p, out=True)
    p.add_argument("--rho", type=float, default=0.1, help="exit face offset")
    p.add_argument("--eps", required=True, metavar="A:B:log:N",
                   help="log-spaced eps grid")
    p.add_argument("--observable", choices=("exit", "fiber"), default="exit")
    p = sub.add_parser("branch-select", help="branch selection at a singularity")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--case", default="auto",
                   choices=("auto", "Transcritical", "Pitchfork"))
    p.add_argument("--side", default="plus", choices=("plus", "minus"),
                   help="outer seed branch for the pitchfork g0 < 0 case")
    common(sub.add_parser("contact", help="regular contact-point report"),
           point=True, out=True)
    p = sub.add_parser("center-manifold",
                       help="contact chart, graph solve, restricted embedding")
    p.add_argument("--spec", required=True, help="map-spec file")
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")
    p.add_argument("--order", type=int, default=None,
                   help="verification order (default: one below the spec order, "
                        "so every composed coefficient is inside the truncation)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_parser("selftest", help="run built-in consistency checks")
    return parser


def _cmd_classify(args, tols) -> int:
    loaded = _load(args, tols)
    spec = loaded.spec
    z = _parse_point(args.point, spec.n)
    cls = classify_point(spec, z)
    parts = [cls.tag]
    if cls.unipotent_index is not None:
        parts.append(f"unipotent_index={cls.unipotent_index}")
    if cls.superstable:
        parts.append("superstable")
    print(" ".join(parts))
    return 0


def _cmd_reduce(args, tols) -> int:
    loaded = _load(args, tols)
    spec = loaded.spec
    z = _parse_point(args.point, spec.n)
    rd = reduced_data(spec, z)
    rows = [("valid", 0, 0, float(rd.valid))]
    for i in range(spec.n):
        for j in range(spec.n):
            rows.append(("projection", i + 1, j + 1, float(rd.projection[i, j])))
    for i in range(spec.n):
        rows.append(("reduced_field", i + 1, 0, float(rd.reduced_field[i])))
    table = ReportTable(columns=["quantity", "i", "j", "value"], rows=rows,
                        provenance=_provenance(args, loaded, tols))
    _write_or_print(table.to_csv(), args.out)
    return 0


def _cmd_embed(args, tols) -> int:
    loaded = _load(args, tols)
    spec = loaded.spec
    order = args.order or spec.order
    if is_standard_2d(spec):
        result = embed_2d(spec, order=order, tols=tols)
        emb = result.embedding
        print(f"case {result.case_in} -> {result.case_out}  K0={result.K0!r}  "
              f"factor_residual={result.factor_residual!r}")
    else:
        emb = takens_embed_unipotent(extended_map_jets(spec), order, tols)
    print(f"residual={emb.residual!r} order={emb.matched_order}")
    if args.out:
        _write_or_print(emit_jetvector(
            emb.V, comment=f"embedded field, order {emb.matched_order}, "
                           f"residual {emb.residual!r}"), args.out)
    return 0


def _cmd_verify_reduced(args, tols) -> int:
    loaded = _load(args, tols)
    spec = loaded.spec
    z = _parse_point(args.point, spec.n)
    order = args.order or spec.order
    rep = verify_reduced_embedding(spec, z, order, tols)
    rows = [("j1_diff", 1, rep.j1_diff)]
    for l, v in sorted(rep.eps01_diffs.items()):
        rows.append(("eps01_diff", l, v))
    rows.append(("eps2_diff", 2, rep.eps2_diff))
    for i, (s, c) in enumerate(zip(rep.eps2_solver, rep.eps2_closed), start=1):
        rows.append((f"eps2_solver_{i}", 2, float(s)))
        rows.append((f"eps2_closed_{i}", 2, float(c)))
    rows.append(("embedding_residual", rep.order, rep.residual))
    table = ReportTable(columns=["quantity", "degree", "value"], rows=rows,
                        provenance=_provenance(args, loaded, tols))
    _write_or_print(table.to_csv(), args.out)
    return 0


def _cmd_fold_exit(args, tols) -> int:
    loaded = _load(args, tols)
    grid = _parse_eps_grid(args.eps)
    rho = _finite_option(args.rho, "--rho")
    fit = fold_exit_experiment(loaded.spec, rho, grid,
                               observable=args.observable)
    prov = _provenance(args, loaded, tols)
    prov.update({"rho": repr(rho), "observable": args.observable,
                 "slope": repr(fit.slope), "intercept": repr(fit.intercept),
                 "r_squared": repr(fit.r_squared),
                 "excluded": " ".join(repr(e) for e in fit.excluded) or "none"})
    rows = [(e, y) for e, y in zip(fit.eps_values, fit.observables)]
    table = ReportTable(columns=["eps", "Y_out"], rows=rows, provenance=prov)
    _write_or_print(table.to_csv(), args.out)
    print(f"slope={fit.slope!r} intercept={fit.intercept!r} "
          f"r_squared={fit.r_squared!r}")
    return 0


def _cmd_branch_select(args, tols) -> int:
    loaded = _load(args, tols)
    spec = loaded.spec
    eps = _finite_option(args.eps, "--eps")
    case = args.case
    if case == "auto":
        cls = classify_planar_singularity(spec)
        if cls.case is None:
            raise PreconditionError(
                "spec does not classify; failed: " + "; ".join(cls.failed))
        case = cls.case
    sel = branch_selection_experiment(spec, case, eps, side=args.side)
    exit_pt = ",".join(repr(float(v)) for v in sel.exit_point)
    print(f"{sel.label} lambda={sel.lam!r} exit={exit_pt} edge={sel.exit_edge} "
          f"distance={sel.distance!r} d_match={sel.d_match!r}")
    return 0


def _cmd_contact(args, tols) -> int:
    loaded = _load(args, tols)
    spec = loaded.spec
    z = _parse_point(args.point, spec.n)
    rep = check_regular_contact(spec, z, tols)
    rows = [
        ("rank", float(rep.rank)),
        ("rank_ok", float(rep.rank_ok)),
        ("transversality_rank", float(rep.transversality_rank)),
        ("transversality_ok", float(rep.transversality_ok)),
        ("nondegeneracy", float(rep.nondegeneracy)),
        ("nondegeneracy_ok", float(rep.nondegeneracy_ok)),
        ("slow_regularity_norm", float(np.linalg.norm(rep.slow_regularity))),
        ("slow_regularity_ok", float(rep.slow_regularity_ok)),
        ("verdict", float(rep.verdict)),
    ]
    for i, mu in enumerate(rep.multipliers, start=1):
        rows.append((f"multiplier_{i}_re", float(mu.real)))
        rows.append((f"multiplier_{i}_im", float(mu.imag)))
    table = ReportTable(columns=["quantity", "value"], rows=rows,
                        provenance=_provenance(args, loaded, tols))
    _write_or_print(table.to_csv(), args.out)
    print("contact" if rep.verdict else "not-a-contact-point")
    return 0


def _cmd_center_manifold(args, tols) -> int:
    # the embedding's structure checks read quadratic coefficients
    loaded = _load(args, tols, least_order=2)
    spec = loaded.spec
    order = args.order or spec.order - 1
    nf = cm_normal_form_transform(spec, tols)
    cm = center_manifold_restricted_map(nf, order=order, tols=tols)
    emb = embed_on_center_manifold(cm, order=order, tols=tols)
    rows = [
        ("rectification_residual", nf.rectification_residual),
        ("pure_x_residual", nf.pure_x_residual),
        ("jacobian_residual", nf.jacobian_residual),
        ("invariance_residual", cm.invariance_residual),
        ("restricted_multiplier_minus_1", cm.mu1 - 1.0),
        ("embedding_residual", emb.embedding.residual),
        ("linear_match", emb.linear_match),
        ("factor_residual", emb.factor_residual),
        ("partials_diff", emb.partials_diff),
        ("quad_closed_diff", emb.quad_closed_diff),
        ("contact_ok", float(emb.contact_ok)),
    ]
    table = ReportTable(columns=["quantity", "value"], rows=rows,
                        provenance=_provenance(args, loaded, tols))
    _write_or_print(table.to_csv(), args.out)
    print("center-manifold pipeline " + ("ok" if emb.contact_ok else "FAILED"))
    return 0


def _cmd_selftest(args, tols) -> int:
    checks: list[tuple[str, bool]] = []

    x = Jet.variable(1, 4, 0)
    one = Jet.constant(1, 4, 1.0)
    prod = jet_mul(one + x, one - x)
    checks.append(("jet ring identity",
                   prod == one - jet_mul(x, x)))

    V = JetVector([x ** 2])
    flow = flow_time1_jet(V, 4)
    expect = x + x ** 2 + x ** 3 + x ** 4
    checks.append(("quadratic flow jet", max_coeff_diff(flow[0], expect) < 1e-14))

    emb = takens_embed_unipotent(JetVector([expect]), 4)
    checks.append(("embedding round trip",
                   max_coeff_diff(emb.V[0], x ** 2) < 1e-12 and emb.residual < 1e-12))

    num = integrate_time1(V, [0.05])
    checks.append(("reference integrator",
                   abs(num[0] - 0.05 / 0.95) < 1e-9))

    fold = standard_form_2d({(2, 0): 1.0, (0, 1): -1.0}, {}, {(0, 0, 0): -1.0},
                            order=4)
    cls = classify_point(fold, [0.0, 0.0])
    checks.append(("fold classification",
                   cls.tag == "FoldContact" and cls.unipotent_index == 1))
    mu = nontrivial_multipliers(fold, [0.1, 0.01]).values
    checks.append(("multiplier evaluation", abs(mu[0] - 1.2) < 1e-12))

    text = emit_mapspec(fold)
    reparsed = parse_mapspec(text)
    checks.append(("map-spec round trip",
                   reparsed.spec.f == fold.f and reparsed.spec.G == fold.G))
    field_text = emit_jetvector(emb.V)
    checks.append(("field-file round trip",
                   parse_jetvector(field_text) == emb.V))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'} {name}")
    print(f"selftest: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


_DISPATCH = {
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "embed": _cmd_embed,
    "verify-reduced": _cmd_verify_reduced,
    "fold-exit": _cmd_fold_exit,
    "branch-select": _cmd_branch_select,
    "contact": _cmd_contact,
    "center-manifold": _cmd_center_manifold,
    "selftest": _cmd_selftest,
}


def execute_command(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tols = with_overrides(DEFAULT_TOLS, getattr(args, "tol", []) or [])
        return _DISPATCH[args.command](args, tols)
    except _USER_ERRORS as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except FastSlowError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[OSError]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
