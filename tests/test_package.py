"""Package-level checks: import footprint and module boundaries."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pmsdist

PACKAGE_DIR = Path(pmsdist.__file__).resolve().parent

# (importing module, private name) pairs still allowed.  Entries may only be
# removed: both names are patched by the benchmark tracer in the importing
# module, so they stay until the tracer patches them where they are defined.
ALLOWED_PRIVATE_IMPORTS = {
    ("cdf_estimators", "_cdf_limit_rows"),
    ("experiments", "_draw_errors"),
}


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


def test_every_public_gauss_function_has_a_caller():
    # a public helper of _gauss that nothing in the package calls is dead
    # code: every one must be named somewhere outside its own definition
    gauss = ast.parse((PACKAGE_DIR / "_gauss.py").read_text())
    public = {node.name for node in gauss.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = top.name if path.stem == "_gauss" and isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    assert public <= used, f"_gauss functions without a caller: {sorted(public - used)}"


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
