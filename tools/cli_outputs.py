"""Run the command-line tool over a fixed set of invocations and print one
sha256 line per run, so that two checkouts compare with one ``diff``.

    python3 tools/cli_outputs.py > outputs.txt

Each run is ``python -m fastslow.cli`` in a subprocess on the ``src/`` of
the checkout this file sits in, with one BLAS thread, from one work
directory and with relative paths only, so the provenance header that
names the spec file is the same wherever the work directory lies.  A line
reads ``<sha256> <exit> <argv>``; the digest covers argv, the exit code,
stdout, stderr and the ``--out`` file when one is written.

The specs are the ``make_*_spec`` builders of ``tests/conftest.py``, each
emitted at its default order to ``<name>.map``: classify, reduce, embed
(default and ``--order 3``), verify-reduced, contact, center-manifold
(default and ``--order 3``), fold-exit and branch-select run on every one,
at its base point where a point is needed.  A few more runs take a point
off the fold, the other fold-exit observable and branch-select options,
``--tol`` overrides, and the fold with two coefficients of 1e200, whose
Lie series overflows.  The builders are read
out of ``conftest.py`` with ``ast``, so the script needs the standard
library and fastslow only.
"""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from fastslow.jets import Jet, JetVector  # noqa: E402
from fastslow.model import FastSlowMapSpec, standard_form_2d  # noqa: E402
from fastslow.specfiles import emit_mapspec  # noqa: E402

EXTRA_RUNS = [
    ["classify", "--spec", "fold.map", "--point=-0.2,0.04"],
    ["reduce", "--spec", "fold.map", "--point=-0.2,0.04", "--out", "fold.nh.csv"],
    ["verify-reduced", "--spec", "fold.map", "--point=-0.2,0.04"],
    ["fold-exit", "--spec", "fold.map", "--eps", "1e-3:1e-2:log:3",
     "--observable", "fiber"],
    ["branch-select", "--spec", "pitchfork.map", "--eps", "1e-2", "--side", "minus"],
    ["branch-select", "--spec", "transcritical.map", "--eps", "1e-2",
     "--case", "Transcritical"],
    ["classify", "--spec", "fold.map", "--point", "0.1,0.01", "--tol", "unit=0.5"],
    ["embed", "--spec", "fold.map", "--tol", "embed_residual=1e-20"],
    ["embed", "--spec", "fold.map", "--tol", "genericity_floor=10"],
    ["contact", "--spec", "contact3d.map", "--point", "0,0,0",
     "--tol", "genericity_floor=10"],
    ["center-manifold", "--spec", "contact3d.map", "--tol", "embed_residual=1e-20"],
    ["center-manifold", "--spec", "contact4d_k1.map", "--tol", "structure=1e-30"],
    ["embed", "--spec", "overflow.map", "--out", "overflow.field"],
]


def conftest_specs() -> dict[str, FastSlowMapSpec]:
    """name -> spec for every ``make_<name>_spec`` of ``tests/conftest.py``."""
    path = os.path.join(ROOT, "tests", "conftest.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    makers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("make_") and node.name.endswith("_spec")]
    scope = {"np": np, "Jet": Jet, "JetVector": JetVector,
             "FastSlowMapSpec": FastSlowMapSpec, "standard_form_2d": standard_form_2d}
    exec(compile(ast.Module(makers, []), path, "exec"), scope)
    return {node.name[5:-5]: scope[node.name]() for node in makers}


def runs(specs: dict[str, FastSlowMapSpec]) -> list[list[str]]:
    out = []
    for name, spec in specs.items():
        spec_arg = ["--spec", f"{name}.map"]
        point = ["--point", ",".join(repr(float(v)) for v in spec.base_point)]
        out += [
            ["classify", *spec_arg, *point],
            ["reduce", *spec_arg, *point, "--out", f"{name}.reduce.csv"],
            ["embed", *spec_arg, "--out", f"{name}.field"],
            ["embed", *spec_arg, "--order", "3", "--out", f"{name}.o3.field"],
            ["verify-reduced", *spec_arg, *point],
            ["contact", *spec_arg, *point, "--out", f"{name}.contact.csv"],
            ["center-manifold", *spec_arg, "--out", f"{name}.cm.csv"],
            ["center-manifold", *spec_arg, "--order", "3"],
            ["fold-exit", *spec_arg, "--eps", "1e-3:1e-2:log:3",
             "--out", f"{name}.fold.csv"],
            ["branch-select", *spec_arg, "--eps", "1e-2"],
        ]
    return out + EXTRA_RUNS


def digest(argv: list[str], workdir: str, env: dict[str, str]) -> tuple[str, int]:
    """sha256 of one run and its exit code; every run names its own --out file."""
    proc = subprocess.run([sys.executable, "-m", "fastslow.cli", *argv], cwd=workdir,
                          env=env, capture_output=True)
    h = hashlib.sha256()
    for part in ("\0".join(argv).encode(), str(proc.returncode).encode(),
                 proc.stdout, proc.stderr):
        h.update(len(part).to_bytes(8, "little") + part)
    if "--out" in argv:
        out_path = os.path.join(workdir, argv[argv.index("--out") + 1])
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                h.update(b"out" + fh.read())
    return h.hexdigest(), proc.returncode


def main() -> None:
    specs = conftest_specs()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as workdir:
        texts = {name: emit_mapspec(spec) for name, spec in specs.items()}
        texts["overflow"] = texts["fold"].replace("2 0 : 1.0\n",
                                                  "2 0 : 1e200\n0 4 : 1e200\n")
        for name, text in texts.items():
            with open(os.path.join(workdir, f"{name}.map"), "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in runs(specs):
            sha, code = digest(argv, workdir, env)
            print(f"{sha} {code} {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
