"""Module ownership: no module reaches into a sibling's private names.

Each module owns its underscore-prefixed helpers; a sibling that needs
one should call the owner's public (or array-level) entry point instead.
Every exported name resolves, and so does every module attribute the
traced benchmark run (``perfbench/traced.py``) swaps from outside. The
package and its CLI import without scipy or the process-pool machinery,
which would take most of the import time. Only the Beta fit and the
Beta model load ``scipy.special``, on first use, and a source-level test
keeps every scipy import there: the UF evaluations, the samplers, the
moments, the UF and Kumaraswamy fits, their KS p-values and residuals,
a study on one or more workers and ``fit --models uf`` load no scipy.
No fit loads ``scipy.optimize``. The
bivariate sampler takes from ``core`` only what keeps it independent
of the UF kernel, so the ratio cross-check stays a cross-check. Each
argument rule (a positive parameter, rho in [0, 1], the sampler's
uniform clip) is written once, in ``core``, and each model rule (an
unknown name, the minimum sample size) once, in ``inference``, as is
each fit-report text (an ill-posed fit, one that did not converge), and
each sample rule (a flat, nonempty sequence of numbers), in
``DataSeries``. Each
public name is written once, in its module's ``__all__``: the package
re-exports the modules by ``*`` and joins their lists. Each long flag of
the CLI is written once, where it is declared, and the CLI writes every
output file through one writer.
"""

import ast
import importlib
import multiprocessing
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


def fresh_interpreter(code: str, *args: str) -> list[str]:
    """The lines a fresh interpreter prints running ``code``: this one
    has imported scipy elsewhere."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_import_leaves_out_scipy_stats():
    code = "import sys, unitfrechet; print('scipy.stats' in sys.modules)"
    assert fresh_interpreter(code) == ["False"]


LOADED = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
def pool():
    return "concurrent.futures.process" in sys.modules
import unitfrechet, unitfrechet.cli
config = dict(thetas=((1, 2, 0.5),), sample_sizes=(30, 50), replications=4)
"""


def test_import_leaves_out_scipy():
    # no UF evaluation, fit, report or serial study loads scipy or the
    # process pool; the Beta fit loads scipy.special, and nothing loads
    # scipy.optimize
    code = LOADED + """
print(loaded(), pool())
unitfrechet.frechet_moments((1, 1, 6, 0.5))
w = unitfrechet.uf_sample((1, 2, 0.5), 30, 1)
unitfrechet.uf_cdf(w, (1, 2, 0.5))
print(loaded(), pool())
d = unitfrechet.DataSeries(w)
uf = unitfrechet.model_handle("uf", unitfrechet.fit_uf(d).theta_hat)
unitfrechet.ks_test(d, uf)
unitfrechet.residuals(d, uf)
unitfrechet.run_study(unitfrechet.SimConfig(**config))
print(loaded(), pool())
uefa = unitfrechet.load_uefa()
unitfrechet.fit_beta(uefa)
unitfrechet.fit_kumaraswamy(uefa)
print("scipy.special" in sys.modules, "scipy.optimize" in sys.modules)
"""
    assert fresh_interpreter(code) == ["[] False", "[] False", "[] False", "True False"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or multiprocessing.get_all_start_methods()[0] != "fork",
    reason="needs two CPUs and forked workers, which inherit the parent's modules",
)
def test_study_workers_leave_out_scipy():
    # forked workers inherit the block, so a worker that imports scipy
    # fails the study; the pool must really have run
    code = LOADED + """
sys.modules["scipy"] = None
unitfrechet.run_study(unitfrechet.SimConfig(**config, parallelism=2))
del sys.modules["scipy"]
print(loaded(), pool())
"""
    assert fresh_interpreter(code) == ["[] True"]


def test_uf_fit_command_leaves_out_scipy(tmp_path):
    code = """
import sys
from unitfrechet import cli
status = cli.main(["fit", "bundled:uefa", "--models", "uf", "--outdir", sys.argv[1]])
print(status, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    # the command prints its report first
    assert fresh_interpreter(code, str(tmp_path))[-1] == "0 []"
    assert (tmp_path / "manifest.json").is_file()


def imported_modules(node) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names] if isinstance(node, ast.Import) else []


def test_scipy_imported_only_by_the_beta_model():
    # every scipy import under src/ sits inside fit_beta or inside
    # model_handle's Beta branch, so no other path can load scipy
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE.parent.rglob("*.py")}
    defs = {node.name: node for node in trees[PACKAGE / "inference.py"].body
            if isinstance(node, ast.FunctionDef)}
    (beta,) = [
        node for node in ast.walk(defs["model_handle"])
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and [getattr(c, "value", None) for c in node.test.comparators] == ["beta"]
    ]
    allowed = {id(node) for node in ast.walk(defs["fit_beta"])}
    allowed |= {id(node) for stmt in beta.body for node in ast.walk(stmt)}
    found = [
        (path.name, node.lineno, id(node) in allowed)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if any(m.split(".")[0] == "scipy" for m in imported_modules(node))
    ]
    assert found and all(ok for *_, ok in found), found


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
        "must be an integer",
        "must be a double or a regular array of doubles",
        "do not broadcast",
        "unknown model",
        "fitting needs at least",
        "ill-posed: all observations are identical",
        "Newton run stalled, hit its step cap or went non-finite",
        "data series must be a flat sequence of numbers",
        "data series is empty",
        "outside the open interval (0, 1)",
    ),
)
def test_argument_rule_written_once(text):
    # each argument rule has one definition that every module calls: in
    # core (counts and seeds included), or in inference's model table for a model's name and the
    # fewest observations its fit takes, or in inference's report owner
    # for the texts of an ill-posed fit and of one that did not converge,
    # or in DataSeries for what a sample must be, its range included,
    # which the CLI maps to a file row
    count = sum(path.read_text().count(text) for path in PACKAGE.rglob("*.py"))
    assert count == 1


def test_cli_flag_declared_once():
    # each long flag of the CLI is written once, where it is declared;
    # the commands that share a flag, and the check of each input mode's
    # flags, read that one declaration
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    flags = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("--") and " " not in node.value
    ]
    assert {"--alpha", "--rho", "--sigma1", "--seed", "--outdir"} <= set(flags)
    assert sorted(flags) == sorted(set(flags))


def test_cli_writes_files_in_one_place():
    # every output file goes through one writer, which makes a file that
    # cannot be written a usage error naming the file
    assert (PACKAGE / "cli.py").read_text().count("write_text") == 1
