"""numpy is the only third-party package that ``import trisemi`` loads,
and no module of the package imports a name it never reads."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import trisemi

# Runs in a fresh interpreter: the top-level packages that importing
# trisemi adds to sys.modules, split into those installed as third-party
# packages (under site-packages) and the rest.
_CHILD = """
import json, sys, sysconfig
from pathlib import Path

before = set(sys.modules)
import trisemi
site = {Path(sysconfig.get_paths()[k]).resolve() for k in ("purelib", "platlib")}

def third_party(mod):
    path = getattr(mod, "__file__", None)
    return path is not None and any(p in Path(path).resolve().parents for p in site)

loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "trisemi": trisemi.__file__,
    "loaded": sorted(loaded),
    "third_party": sorted(n for n in loaded if third_party(sys.modules[n])),
}))
"""


def test_import_loads_no_third_party_package_but_numpy(tmp_path):
    src = Path(trisemi.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD],
        cwd=tmp_path,
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert Path(report["trisemi"]).resolve() == Path(trisemi.__file__).resolve()
    assert "numpy" in report["loaded"]
    assert set(report["third_party"]) <= {"numpy"}
    assert not {"scipy", "mpmath", "sympy", "hypothesis", "numba"} & set(report["loaded"])


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, by an ast scan: a name
    counts as read when it occurs as a name anywhere else in the module,
    the root of an attribute chain included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # __init__ imports only to re-export: its imports are the public API
    package = Path(trisemi.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            unused += _unused_imports(path)
    assert not unused, "imported but never read:\n" + "\n".join(unused)
