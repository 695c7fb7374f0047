"""Package-level checks: import footprint and module boundaries."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pmsdist

PACKAGE_DIR = Path(pmsdist.__file__).resolve().parent
BENCHMARK_DIR = PACKAGE_DIR.parent.parent / "benchmarks"

# (importing module, private name) pairs still allowed.  Entries may only be
# removed: both names are patched by the benchmark tracer in the importing
# module, so they stay until the tracer patches them where they are defined.
ALLOWED_PRIVATE_IMPORTS = {
    ("cdf_estimators", "_cdf_limit_rows"),
    ("experiments", "_draw_errors"),
}

# Public names nothing reads yet.  Entries may only be removed:
# full_model_gaussian_cdf is the reference law of acceptance criterion 5.
UNREAD_PUBLIC = {"full_model_gaussian_cdf"}


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs start-up time and memory; nothing in the package
    # needs it, so a fresh interpreter must not load it with pmsdist
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = "import sys, pmsdist; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _private_imports():
    """(module, name) for every private name a package module imports from
    another package module, at any depth of the module's syntax tree."""
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("pmsdist"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.add((path.stem, alias.name))
    return found


def test_no_new_cross_module_private_imports():
    found = _private_imports()
    assert found <= ALLOWED_PRIVATE_IMPORTS, \
        f"private names imported across modules: {sorted(found - ALLOWED_PRIVATE_IMPORTS)}"
    assert ALLOWED_PRIVATE_IMPORTS <= found, \
        f"stale allow-list entries, remove them: {sorted(ALLOWED_PRIVATE_IMPORTS - found)}"


def _names_read(path: Path) -> set[str]:
    """Names a module reads (as a name or an attribute), outside the
    top-level function or class that defines the same name."""
    read = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                read.add(name)
    return read


def test_every_public_gauss_function_has_a_caller():
    # a public helper of _gauss that nothing in the package calls is dead
    # code: every one must be named somewhere outside its own definition
    gauss = ast.parse((PACKAGE_DIR / "_gauss.py").read_text())
    public = {node.name for node in gauss.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(_names_read(p) for p in sorted(PACKAGE_DIR.glob("*.py"))))
    assert public <= used, f"_gauss functions without a caller: {sorted(public - used)}"


def test_cdf_modules_draw_through_gauss():
    # every Gaussian draw of the cdf evaluators is `_gauss.gauss_draws`:
    # no other cdf module calls a generator's standard_normal itself
    callers = set()
    for stem in ("dist_exact", "dist_limit", "cdf_estimators"):
        path = PACKAGE_DIR / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "standard_normal"):
                callers.add(stem)
    assert not callers, f"standard_normal called outside _gauss: {sorted(callers)}"


def test_refinement_policy_lives_in_gauss():
    # every refinement loop is `_gauss.refine`: no other module may read the
    # refinement cap, by import or by attribute
    users = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if "MAX_REFINEMENTS" in names:
                users.add(path.stem)
    assert users == {"_gauss"}, f"MAX_REFINEMENTS referenced outside _gauss: {sorted(users)}"


def test_every_imported_name_is_used():
    # a name a module imports but never reads is a stale dependency; the
    # package __init__ is exempt, since importing is how it re-exports
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert not unused, f"imported but unused: {unused}"


def test_every_public_name_is_read():
    # a name exported only for the tests is dead weight in the public API:
    # each must be read by the package (its __init__ aside) or the benchmark
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.stem != "__init__"]
    read = set().union(*(_names_read(p) for p in paths + sorted(BENCHMARK_DIR.glob("*.py"))))
    unread = set(pmsdist.__all__) - read
    assert unread <= UNREAD_PUBLIC, f"public names nothing reads: {sorted(unread - UNREAD_PUBLIC)}"
    assert UNREAD_PUBLIC <= unread, \
        f"stale allow-list entries, remove them: {sorted(UNREAD_PUBLIC - unread)}"


def _calls_of(tree, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_cdf_results_are_formed_in_one_function():
    # `dist_exact.cdf_result` is the one error budget and warning policy:
    # no other code builds a CdfResult
    built = sum(len(_calls_of(ast.parse(path.read_text(), filename=str(path)), "CdfResult"))
                for path in sorted(PACKAGE_DIR.glob("*.py")))
    exact = ast.parse((PACKAGE_DIR / "dist_exact.py").read_text())
    former = [fn for fn in exact.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "cdf_result"]
    assert len(former) == 1 and len(_calls_of(former[0], "CdfResult")) == 1
    assert built == 1, f"CdfResult is built in {built} places"
