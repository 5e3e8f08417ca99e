"""Module ownership: no module reaches into a sibling's private names.

Each module owns its underscore-prefixed helpers; a sibling that needs
one should call the owner's public (or array-level) entry point instead.
Every exported name resolves, and so does every module attribute the
traced benchmark run (``perfbench/traced.py``) swaps from outside. The
package and its CLI import without scipy or the process-pool machinery,
which would take most of the import time: the KS p-value, the Beta fit
and the Beta model load ``scipy.special`` on first use, and the UF
evaluations, the samplers, the moments and the UF and Kumaraswamy fits'
Newton loops need none of it. No fit loads ``scipy.optimize``. The
bivariate sampler takes from ``core`` only what keeps it independent
of the UF kernel, so the ratio cross-check stays a cross-check. Each
argument rule (a positive parameter, rho in [0, 1], the sampler's
uniform clip) is written once, in ``core``. Each public name is written
once, in its module's ``__all__``: the package re-exports the modules
by ``*`` and joins their lists.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitfrechet

PACKAGE = Path(unitfrechet.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def module_of(path: Path):
    if path.stem == "__init__":
        return unitfrechet
    return importlib.import_module(f"unitfrechet.{path.stem}")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    offenders = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            offenders.extend(
                f"line {node.lineno}: {node.module}.{alias.name}"
                for alias in node.names
                if is_private(alias.name)
            )
    assert not offenders, f"{path.name} imports private names: {offenders}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_resolve(path):
    module = module_of(path)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name} exports undefined names: {missing}"


EXPORTING = ("bivariate", "core", "datasets", "errors", "inference", "moments", "simulation")


def test_public_names_written_once():
    joined = [
        name
        for stem in EXPORTING
        for name in importlib.import_module(f"unitfrechet.{stem}").__all__
    ]
    assert len(set(unitfrechet.__all__)) == len(unitfrechet.__all__)
    assert unitfrechet.__all__ == joined
    # no hand-kept list of names in the package: each relative import is
    # a * import or imports modules
    stems = {path.stem for path in MODULES}
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = [alias.name for alias in node.names]
            if node.module is None:
                assert set(names) <= stems, f"line {node.lineno} imports {names}"
            else:
                assert names == ["*"], f"line {node.lineno} imports {names}"


def test_traced_attributes_exist():
    # the traced run imports package modules under aliases and swaps
    # their attributes, as (alias, "name", ...) tuples or by assignment
    tree = ast.parse(TRACED.read_text())
    aliases = {
        alias.asname: importlib.import_module(alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("unitfrechet.") and alias.asname
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, attr = node.elts[:2]
            if (isinstance(owner, ast.Name) and owner.id in aliases
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                used.add((owner.id, attr.value))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            used.add((node.value.id, node.attr))
    assert {"_run_cell", "fit_uf", "loglik_uf", "estimate_cov"} <= {a for _, a in used}
    missing = sorted(f"{owner}.{attr}" for owner, attr in used
                     if not hasattr(aliases[owner], attr))
    assert not missing, f"perfbench/traced.py swaps missing attributes: {missing}"


def test_import_leaves_out_scipy_stats():
    # a fresh interpreter: this one has imported scipy.stats elsewhere
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    code = "import sys, unitfrechet; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_out_scipy():
    # a fresh interpreter, as above; scipy.special may load with a fit
    # report's KS p-value and with the Beta fit, scipy.optimize never
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    code = """
import sys
def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")
import unitfrechet, unitfrechet.cli
print(loaded())
unitfrechet.frechet_moments((1, 1, 6, 0.5))
w = unitfrechet.uf_sample((1, 2, 0.5), 30, 1)
unitfrechet.uf_cdf(w, (1, 2, 0.5))
print(loaded())
unitfrechet.fit_uf(unitfrechet.DataSeries(tuple(w)))
print("scipy.optimize" in sys.modules)
uefa = unitfrechet.load_uefa()
unitfrechet.fit_beta(uefa)
unitfrechet.fit_kumaraswamy(uefa)
print("scipy.optimize" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "[]", "False", "False"]


def test_bivariate_independent_of_uf_kernel():
    # bivariate.biv_sample checks uf_cdf through ratio_transform; routing
    # the sampler through the UF code would make that check circular
    tree = ast.parse((PACKAGE / "bivariate.py").read_text())
    from_core = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module in ("core", "unitfrechet.core"):
                from_core |= names
            assert not (module in ("", "unitfrechet") and "core" in names)
        elif isinstance(node, ast.Import):
            assert "unitfrechet.core" not in {alias.name for alias in node.names}
    # the array helpers and, beside them, only the argument rules
    assert from_core == {"LOG_GUARD", "UfParams", "blockwise", "sample_stream"} | {
        "NONNEGATIVE", "POSITIVE", "check_positive", "check_rho", "evaluate",
        "params_of", "prepare", "uniforms",
    }


@pytest.mark.parametrize(
    "text",
    (
        "must be finite and > 0",
        "must lie in [0, 1], got",
        "1e-300, 1.0 - 1e-16",
        "has no finite variance",
        "must be a number within the double range",
        "must be a double or a regular array of doubles",
        "do not broadcast",
    ),
)
def test_argument_rule_written_once(text):
    # each argument rule has one definition, in core, that every module calls
    count = sum(path.read_text().count(text) for path in PACKAGE.rglob("*.py"))
    assert count == 1
