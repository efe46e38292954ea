"""Plain-text map-spec and jet-field file formats.

Map-spec files (UTF-8, line oriented):

    dims <n> <k>
    order <r>
    base <x1> ... <xn>
    [N i j]            # matrix entry, i in 1..n, j in 1..n-k
    <e1> ... <em> : <coefficient>
    [f i]              # i in 1..n-k
    [G i]              # i in 1..n; exponent lines carry n+1 exponents (eps last)

Every section header must be present, even for zero entries; zero
coefficient lines are accepted and dropped.  Lines starting with ``#`` are
comments; the keys ``# name:``, ``# description:`` and ``# case:`` are
recognized as metadata.  Emission is canonical (graded-lex term order,
shortest round-tripping float repr), so parse(emit(spec)) reproduces every
coefficient exactly.

Field files hold one jet vector (``fieldvars m`` / ``order r`` / ``[V i]``
sections) and are used to store embedded vector fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, StructuralError
from .jets import Jet, JetVector, _jet_terms
from .model import FastSlowMapSpec
from .tols import DEFAULT_TOLS, Tolerances

__all__ = ["MapSpecFile", "parse_mapspec", "emit_mapspec",
           "parse_jetvector", "emit_jetvector"]

_META_KEYS = ("name", "description", "case")


@dataclass
class MapSpecFile:
    spec: FastSlowMapSpec
    name: str = ""
    description: str = ""
    declared_case: str = ""


def _parse_terms(lines: list[tuple[int, str]], arity: int, order: int,
                 section: str) -> dict[tuple[int, ...], float]:
    terms: dict[tuple[int, ...], float] = {}
    for lineno, text in lines:
        head, sep, coeff_text = text.partition(":")
        if not sep:
            raise ParseError(f"expected '<exponents> : <coefficient>' in {section}",
                             lineno)
        try:
            exps = tuple(int(tok) for tok in head.split())
        except ValueError:
            raise ParseError(f"bad exponent list {head.strip()!r} in {section}",
                             lineno) from None
        if len(exps) != arity:
            raise ParseError(
                f"{section} needs {arity} exponents, got {len(exps)}", lineno)
        if any(e < 0 for e in exps):
            raise ParseError(f"negative exponent in {section}", lineno)
        if sum(exps) > order:
            raise ParseError(f"term of degree {sum(exps)} exceeds order {order} "
                             f"in {section}", lineno)
        try:
            coeff = float(coeff_text.strip())
        except ValueError:
            raise ParseError(f"bad coefficient {coeff_text.strip()!r}", lineno) from None
        if not math.isfinite(coeff):
            raise ParseError(f"non-finite coefficient {coeff_text.strip()!r} in {section}",
                             lineno)
        if exps in terms:
            raise ParseError(f"duplicate term {' '.join(map(str, exps))} in {section}",
                             lineno)
        terms[exps] = coeff
    return {e: c for e, c in terms.items() if c != 0.0}


def parse_mapspec(text: str, tols: Tolerances = DEFAULT_TOLS) -> MapSpecFile:
    meta = {key: "" for key in _META_KEYS}
    headers: dict[str, tuple[int, str]] = {}
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition(":")
            if sep and key.strip() in _META_KEYS:
                meta[key.strip()] = value.strip()
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = " ".join(line[1:-1].split())
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        first = line.split()[0]
        if first in ("dims", "order", "base"):
            if first in headers:
                raise ParseError(f"duplicate {first} line", lineno)
            headers[first] = (lineno, line)
            current = None
            continue
        if current is None:
            raise ParseError(f"unexpected line {line!r} outside any section", lineno)
        sections[current].append((lineno, line))

    for key in ("dims", "order", "base"):
        if key not in headers:
            raise ParseError(f"missing {key} line")
    lineno, line = headers["dims"]
    toks = line.split()[1:]
    if len(toks) != 2:
        raise ParseError("dims needs exactly '<n> <k>'", lineno)
    try:
        n, k = int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError(f"bad dims {toks}", lineno) from None
    lineno, line = headers["order"]
    try:
        order = int(line.split()[1])
    except (IndexError, ValueError):
        raise ParseError("order needs one integer", lineno) from None
    lineno, line = headers["base"]
    toks = line.split()[1:]
    if len(toks) != n:
        raise ParseError(f"base needs {n} coordinates, got {len(toks)}", lineno)
    try:
        base = np.array([float(t) for t in toks])
    except ValueError:
        raise ParseError(f"bad base coordinates {toks}", lineno) from None
    if not np.all(np.isfinite(base)):
        raise ParseError(f"non-finite base coordinates {toks}", lineno)

    def section(name: str, arity: int) -> Jet:
        if name not in sections:
            raise ParseError(f"missing section {name}")
        return Jet.from_terms(arity, order, _parse_terms(sections.pop(name), arity,
                                                         order, f"[{name}]"))

    p = n - k
    # shape errors of the jets and the spec (dims, order) are input errors
    try:
        N_rows = [tuple(section(f"N {i} {j}", n) for j in range(1, p + 1))
                  for i in range(1, n + 1)]
        f_comps = [section(f"f {i}", n) for i in range(1, p + 1)]
        G_comps = [section(f"G {i}", n + 1) for i in range(1, n + 1)]
        if sections:
            raise ParseError(f"unknown section [{next(iter(sections))}]")
        spec = FastSlowMapSpec(n=n, k=k, order=order, N=tuple(N_rows),
                               f=JetVector(f_comps, n, order),
                               G=JetVector(G_comps, n + 1, order),
                               base_point=base, tols=tols)
    except StructuralError as exc:
        raise ParseError(str(exc)) from None
    return MapSpecFile(spec=spec, name=meta["name"],
                       description=meta["description"],
                       declared_case=meta["case"])


def _emit_terms(jet: Jet, lines: list[str]) -> None:
    for coeff, exponents in _jet_terms(jet):
        lines.append(f"{' '.join(map(str, exponents))} : {coeff!r}")


def emit_mapspec(m: MapSpecFile | FastSlowMapSpec) -> str:
    if isinstance(m, FastSlowMapSpec):
        m = MapSpecFile(spec=m)
    spec = m.spec
    lines: list[str] = []
    if m.name:
        lines.append(f"# name: {m.name}")
    if m.description:
        lines.append(f"# description: {m.description}")
    if m.declared_case:
        lines.append(f"# case: {m.declared_case}")
    lines.append(f"dims {spec.n} {spec.k}")
    lines.append(f"order {spec.order}")
    lines.append("base " + " ".join(repr(float(v)) for v in spec.base_point))
    for i in range(spec.n):
        for j in range(spec.n - spec.k):
            lines.append(f"[N {i + 1} {j + 1}]")
            _emit_terms(spec.N[i][j], lines)
    for i in range(spec.n - spec.k):
        lines.append(f"[f {i + 1}]")
        _emit_terms(spec.f[i], lines)
    for i in range(spec.n):
        lines.append(f"[G {i + 1}]")
        _emit_terms(spec.G[i], lines)
    return "\n".join(lines) + "\n"


def parse_jetvector(text: str) -> JetVector:
    headers: dict[str, tuple[int, str]] = {}
    sections: dict[int, list[tuple[int, str]]] = {}
    current: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            toks = line[1:-1].split()
            if len(toks) != 2 or toks[0] != "V" or not line.endswith("]"):
                raise ParseError(f"bad field section header {line!r}", lineno)
            try:
                current = int(toks[1])
            except ValueError:
                raise ParseError(f"bad field section header {line!r}", lineno) from None
            if current < 1:
                raise ParseError(f"field components are numbered from 1, got {current}",
                                 lineno)
            if current in sections:
                raise ParseError(f"duplicate section [V {current}]", lineno)
            sections[current] = []
            continue
        first = line.split()[0]
        if first in ("fieldvars", "order"):
            if first in headers:
                raise ParseError(f"duplicate {first} line", lineno)
            headers[first] = (lineno, line)
            current = None
            continue
        if current is None:
            raise ParseError(f"unexpected line {line!r}", lineno)
        sections[current].append((lineno, line))
    sizes = {}
    for key in ("fieldvars", "order"):
        if key not in headers:
            raise ParseError(f"missing {key} line")
        lineno, line = headers[key]
        try:
            sizes[key] = int(line.split()[1])
        except (IndexError, ValueError):
            raise ParseError(f"{key} needs one integer", lineno) from None
        if sizes[key] < 1:
            raise ParseError(f"{key} must be >= 1, got {sizes[key]}", lineno)
    m, order = sizes["fieldvars"], sizes["order"]
    ncomp = max(sections) if sections else 0
    comps = []
    for i in range(1, ncomp + 1):
        if i not in sections:
            raise ParseError(f"missing section V {i}")
        comps.append(Jet.from_terms(m, order,
                                    _parse_terms(sections[i], m, order, f"[V {i}]")))
    return JetVector(comps, m, order)


def emit_jetvector(v: JetVector, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"fieldvars {v.num_vars}")
    lines.append(f"order {v.order}")
    for i, comp in enumerate(v, start=1):
        lines.append(f"[V {i}]")
        _emit_terms(comp, lines)
    return "\n".join(lines) + "\n"
