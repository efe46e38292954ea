"""Numerical tolerances shared across the package.

All bands are pinned here so the CLI can override any of them by name
(``--tol unit=1e-8``).  Defaults assume well-conditioned desk-scale inputs
in double precision.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Tolerances:
    # distance of |mu| (or mu itself) from the unit circle / from 1
    unit: float = 1e-9
    # superstability threshold on |mu|
    zero: float = 1e-9
    # relative cutoff for declaring a matrix power zero
    nilp: float = 1e-9
    # |f(z)| band for "on the critical manifold"
    manifold: float = 1e-11
    # condition-number cap before a matrix counts as singular
    cond_cap: float = 1e12
    # relative singular-value cutoff for numerical rank
    rank: float = 1e-9
    # "= 0" band for defining conditions of the planar classifier
    eq_zero: float = 1e-8
    # "!= 0" floor for genericity conditions
    genericity_floor: float = 1e-4
    # coefficient residual for a successful formal embedding
    embed_residual: float = 1e-9
    # post-check band for factorization / structural identities
    structure: float = 1e-8
    # radius of validity of local jet expansions around the base point
    trust_radius: float = 1.0


DEFAULT_TOLS = Tolerances()


def with_overrides(tols: Tolerances, pairs: list[str]) -> Tolerances:
    """Apply ``name=value`` override strings (CLI ``--tol`` flags).  A value
    that is not a finite, non-negative number is refused."""
    updates: dict[str, float] = {}
    names = {f.name for f in dataclasses.fields(Tolerances)}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"bad tolerance override {item!r}, expected NAME=VALUE")
        if name not in names:
            raise ParseError(f"unknown tolerance {name!r}; known: {sorted(names)}")
        try:
            updates[name] = float(value)
        except ValueError:
            raise ParseError(f"bad tolerance value {value!r} for {name}") from None
        if not math.isfinite(updates[name]) or updates[name] < 0.0:
            raise ParseError(f"bad tolerance override {item!r}: the value must be "
                             f"finite and non-negative")
    return dataclasses.replace(tols, **updates)
