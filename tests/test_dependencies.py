"""``import trisemi`` loads no third-party package, the exact commands
load no numpy and the analysis names resolve on first use, no module
of the package imports a name it never reads or defines a private name
that nothing in it reads, and the test extra declares every third-party
module the tests import."""

import ast
import dataclasses
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trisemi

# Runs in a fresh interpreter: the code in argv[1], then a report of what
# it added to sys.modules (as the last line of stdout): the trisemi
# modules, the top-level packages, and those of them installed as
# third-party packages (under site-packages).
_CHILD = """
import json, sys, sysconfig
from pathlib import Path

before = set(sys.modules)
exec(sys.argv[1])
site = {Path(sysconfig.get_paths()[k]).resolve() for k in ("purelib", "platlib")}

def third_party(mod):
    path = getattr(mod, "__file__", None)
    return path is not None and any(p in Path(path).resolve().parents for p in site)

added = set(sys.modules) - before
loaded = {name.partition(".")[0] for name in added}
print(json.dumps({
    "trisemi": sys.modules["trisemi"].__file__,
    "modules": sorted(n for n in added if n.partition(".")[0] == "trisemi"),
    "loaded": sorted(loaded),
    "third_party": sorted(n for n in loaded if third_party(sys.modules[n])),
}))
"""

# the modules an exact command needs; the analysis layer stays unloaded
_EXACT_CORE = {
    "trisemi",
    "trisemi.errors",
    "trisemi.exactnum",
    "trisemi.algebra",
    "trisemi.exprs",
    "trisemi.config",
    "trisemi.cli",
}
_FLOAT_PATH = {"numpy", "trisemi.approx", "trisemi.l2sim", "trisemi._kernels"}

# every name the package exported before its analysis layer became lazy,
# by defining module
_EXPORTS = {
    "errors": """AtomCollisionWarning AxisMismatch BasisTooShort DegeneratePhase
        DivergentPacket DivisionByZero EmptyElement EngineError GroupModeError
        IndeterminateSign InvalidParameter InvalidScale
        NotFound NotInAmbient NotInDomain
        NumericOverflow ParseError ScheduleTooShort UntrustedCharacterWarning""",
    "exactnum": """AtomTable BohrCharacter DilationIndex Frequency FrequencyAtom
        PhaseExponent PhaseMonomial PhaseSum QI Scalar index_sign""",
    "algebra": """AlgebraId AutomorphismSpec Axis AxisMap CompressionMode D Element
        FlipReport M Sc V adjoint apply_automorphism check_flip_contradiction
        coeff_map compress conjugate first_coeff mul side_sums
        support_predicate""",
    "exprs": """dil_text element_text freq_text parse_dilation parse_element
        parse_frequency scalar_text""",
    "config": "RunConfig load_config",
    "approx": """BFSpec RationalBasis bf_report bochner_fejer
        cesaro_mean gauge rational_basis recurrence_schedule recurrence_search
        section_weights support_basis""",
    "characters": """APPoint DiscPoint TripleCharacter
        composite_eval eval_character vanishing_point""",
    "ideals": """CommutatorCertificate IdealId TelescopeCertificate
        certificate_dict certificate_residual commutator_certificate in_ideal
        jt_reduce quotient_defect verify_certificate""",
    "l2sim": """ConvergenceReport GaussianPacket PacketSum
        apply_element apply_word column_norms fourier_conjugation_check
        norm_lower_bound relation_residual wot_compression_demo
        wot_limit""",
}
_LAZY_MODULES = ("approx", "characters", "ideals", "l2sim")


def _child_report(code: str, tmp_path) -> dict:
    src = Path(trisemi.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, code],
        cwd=tmp_path,
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_third_party_package(tmp_path):
    report = _child_report("import trisemi", tmp_path)
    assert Path(report["trisemi"]).resolve() == Path(trisemi.__file__).resolve()
    assert "numpy" not in report["loaded"]
    assert report["third_party"] == []
    assert not {"scipy", "mpmath", "sympy", "hypothesis", "numba"} & set(report["loaded"])


@pytest.mark.parametrize("module", ["trisemi", "trisemi.cli", "trisemi.ideals", "trisemi.characters"])
def test_exact_modules_load_no_float_path(tmp_path, module):
    report = _child_report(f"import {module}", tmp_path)
    assert not _FLOAT_PATH & {*report["loaded"], *report["modules"]}


def test_an_exact_command_loads_the_exact_core_only(tmp_path):
    code = 'from trisemi.cli import run; run(["--json", "normalize", "M(1)*D(1)"])'
    report = _child_report(code, tmp_path)
    assert set(report["modules"]) == _EXACT_CORE
    assert "numpy" not in report["loaded"]


def test_a_numeric_command_loads_numpy(tmp_path):
    code = 'from trisemi.cli import run; run(["--json", "recurrence", "--eps", "0.5", "--limit", "10"])'
    report = _child_report(code, tmp_path)
    assert "numpy" in report["loaded"]
    assert {"trisemi.approx", "trisemi._kernels"} <= set(report["modules"])


def test_exported_names_resolve_to_their_module_objects():
    for module, names in _EXPORTS.items():
        defining = importlib.import_module(f"trisemi.{module}")
        for name in names.split():
            assert getattr(trisemi, name) is getattr(defining, name), name


def test_lazy_names_are_listed_and_unknown_names_raise():
    listed = dir(trisemi)
    for module in _LAZY_MODULES:
        assert module in listed
        assert getattr(trisemi, module) is importlib.import_module(f"trisemi.{module}")
        assert set(_EXPORTS[module].split()) <= set(listed)
    with pytest.raises(AttributeError, match="nosuch"):
        trisemi.nosuch


def _benchmark_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) for every name a benchmark module imports
    from trisemi or one of its modules, by an ast scan of perfbench/*.py
    (the benchmark's own tests excluded)."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    found = []
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.partition(".")[0] == "trisemi"
            ):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_benchmark_imports_resolve():
    # the benchmark runs the library of its own checkout: every name it
    # imports stays importable, lazy names and submodules included
    found = _benchmark_imports()
    assert {name for _, _, name in found} >= {"FrequencyAtom", "Frequency", "rational_basis"}
    missing = []
    for file, module, name in found:
        if not hasattr(importlib.import_module(module), name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{file}: from {module} import {name}")
    assert not missing, "benchmark imports that do not resolve:\n" + "\n".join(missing)


def _identifiers(path: Path) -> set[str]:
    """The identifiers a module reads or imports: names, attribute names
    and the names of import aliases, by an ast scan."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a public name that only the tests read is dead API: the package
    # itself, the benchmark (its own tests excluded) or the README's
    # code, a fenced block or an inline span, must read it
    root = Path(__file__).resolve().parent.parent
    package = Path(trisemi.__file__).resolve().parent
    read = set().union(
        *(_identifiers(path) for path in package.glob("*.py") if path.name != "__init__.py"),
        *(_identifiers(path) for path in (root / "perfbench").glob("*.py")),
    )
    for span in re.findall(r"```.*?```|`[^`]+`", (root / "README.md").read_text(), re.S):
        read.update(re.findall(r"[A-Za-z_]\w*", span))
    unread = sorted(
        name for names in _EXPORTS.values() for name in names.split() if name not in read
    )
    assert not unread, f"exported names that nothing outside the tests reads: {unread}"


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


def _private_names(tree: ast.Module) -> dict[str, int]:
    """Private names a module binds at module level (functions, classes
    and assignment targets that start with one underscore), with their
    lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def test_every_private_module_name_is_read():
    # a private helper or constant that nothing in the package reads is
    # dead code: delete it instead
    package = Path(trisemi.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(package.glob("*.py"))}
    read = {
        n.id for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unread = [
        f"{name}:{line}: {private}"
        for name, tree in trees.items()
        for private, line in _private_names(tree).items()
        if private not in read
    ]
    assert not unread, "defined but never read:\n" + "\n".join(unread)


# the exact core's hot path, where sums are integer numerators over one
# denominator: a Fraction named here would be built again on every product.
# Sort keys (`_Sum.key`) stay Fractions over a denominator above 1, so that
# order is unchanged; they are built once per object, on its first sort.
_INTEGER_HOT_PATH = (
    "_Sum.__add__", "_Sum.__neg__", "_Sum.__eq__", "_Sum.__hash__", "_Sum._canonical",
    "_merge_sorted", "_key_order", "Frequency.scale_exp", "PhaseExponent.product",
    "PhaseMonomial.__new__", "PhaseMonomial._canonical", "PhaseMonomial.product",
    "PhaseMonomial.scaled", "_monomial_product", "_monomial_scaled", "_divide_binomial",
    "_reduced",
)


def test_the_integer_hot_path_names_no_fraction():
    path = Path(trisemi.__file__).resolve().parent / "exactnum.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bodies[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    bodies[f"{node.name}.{item.name}"] = item
    named = {}
    for name in _INTEGER_HOT_PATH:
        words = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(bodies[name])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if words & {"Fraction", "_frac"}:
            named[name] = sorted(words & {"Fraction", "_frac"})
    assert not named, f"Fraction on the integer hot path: {named}"


def test_an_axis_map_takes_no_product():
    # every AxisMap is one closed form per term: no method names mul or
    # a generator, or builds an Element by the merging constructor
    path = Path(trisemi.__file__).resolve().parent / "algebra.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (axis_map,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "AxisMap"]
    named = {}
    for method in axis_map.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        words = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(method)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        builds = any(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Element"
            for n in ast.walk(method)
        )
        bad = sorted(words & {"mul", "__mul__", "from_word", "M", "D", "V", "m", "d", "v"})
        if bad or builds:
            named[method.name] = bad + ["Element(...)"] * builds
    assert not named, f"AxisMap methods that take a product: {named}"


def test_atom_values_are_read_only_by_evaluate():
    # a declared atom value reaches the exact layer through one door,
    # exactnum._evaluate: no twist, sign test or exact ratio reads one.
    # The table's memo of monomial values is read and written there too;
    # the table's constructor and ``with_guard`` only create it empty
    package = Path(trisemi.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "exactnum.py":
            (evaluate,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_evaluate"]
            allowed = {id(n) for n in ast.walk(evaluate)}
            (table,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "AtomTable"]
            for name, owner in (("__init__", "self"), ("with_guard", "table")):
                (method,) = [n for n in table.body if isinstance(n, ast.FunctionDef) and n.name == name]
                created = [
                    n for n in ast.walk(method)
                    if isinstance(n, ast.Assign) and getattr(n.targets[0], "attr", None) == "_monomial_values"
                ]
                assert [ast.unparse(n) for n in created] == [f"{owner}._monomial_values = {{}}"]
                allowed.add(id(created[0].targets[0]))
        found += [
            f"{path.name}:{node.lineno}: {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("atom_value", "_monomial_values")
            and id(node) not in allowed
        ]
    assert not found, "atom values or the memo read outside exactnum._evaluate:\n" + "\n".join(found)


def test_the_sign_guard_is_read_from_the_atom_table():
    # the guard travels with the values it guards: no function takes one
    # beside a table, so index_sign's two inputs cannot come apart
    package = Path(trisemi.__file__).resolve().parent
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {
            id(m): f"{c.name}.{m.name}"
            for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for m in c.body if isinstance(m, functions)
        }
        found += [
            f"{path.name}:{node.lineno}: {methods.get(id(node), getattr(node, 'name', 'lambda'))}"
            for node in ast.walk(tree)
            if isinstance(node, functions)
            and "guard" in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            and methods.get(id(node)) != "AtomTable.with_guard"
        ]
    assert not found, "functions that take a guard beside the table:\n" + "\n".join(found)


def _is_fresh_table_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AtomTable"


def test_each_default_table_and_name_set_has_one_owner():
    # a table parameter defaults to the one shared table instead of
    # building a fresh one per call, and the CLI keeps no copy of a name
    # set that its library owner already validates
    package = Path(trisemi.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(package.glob("*.py"))}
    fresh = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.BoolOp)
        and isinstance(node.op, ast.Or)
        and any(_is_fresh_table_call(v) for v in node.values)
    ]
    assert not fresh, "table or AtomTable():\n" + "\n".join(fresh)
    build = next(
        node for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_build_parser"
    )
    choices = [
        f"cli.py:{node.value.lineno}"
        for node in ast.walk(build)
        if isinstance(node, ast.keyword) and node.arg == "choices"
    ]
    assert not choices, "argparse choices in _build_parser:\n" + "\n".join(choices)


def _denominator_names(func: ast.FunctionDef) -> set[str]:
    """The local names a function binds to a ``._d`` attribute, one by
    one or in a tuple assignment."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {
                    t.id for t, v in pairs
                    if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr == "_d"
                }
    return names


def test_exact_ratios_become_doubles_only_in_ratio():
    # exactnum._ratio is the one place where an exact ratio becomes a
    # double: no other function divides by a ``._d`` denominator, read
    # directly or through a local, or takes float() of a field such as a
    # Fraction decay
    package = Path(trisemi.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or func.name == "_ratio":
                continue
            dens = _denominator_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    right = node.right
                    if getattr(right, "attr", None) == "_d" or getattr(right, "id", None) in dens:
                        found.add(f"{path.name}:{node.lineno}")
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "float"
                    and any(isinstance(a, ast.Attribute) for a in node.args)
                ):
                    found.add(f"{path.name}:{node.lineno}")
    assert not found, "exact-to-double conversions outside _ratio:\n" + "\n".join(sorted(found))


def test_the_cli_reads_analysis_names_through_the_package():
    # the package's lazy table is the one name -> module map: no CLI
    # function imports an analysis module itself; and a character
    # stores its family and point only, its trust is derived from them
    tree = ast.parse((Path(trisemi.__file__).resolve().parent / "cli.py").read_text())
    local = [
        f"cli.py:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("approx", "characters", "ideals", "l2sim")
    ]
    assert not local, "function-local analysis imports:\n" + "\n".join(local)
    fields = tuple(f.name for f in dataclasses.fields(trisemi.TripleCharacter))
    assert fields == ("family", "point")


def _raised_names(path: Path) -> set[str]:
    """Names a module raises: ``raise X`` and ``raise X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    # an error class with no raise site is dead API: delete it instead
    errors = importlib.import_module("trisemi.errors")
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.EngineError)
        and obj is not errors.EngineError
    }
    package = Path(trisemi.__file__).resolve().parent
    raised = set().union(*(_raised_names(path) for path in package.glob("*.py")))
    assert not defined - raised, f"never raised: {sorted(defined - raised)}"


def _raise_sites(path: Path):
    """(line, class name) of every ``raise X``, ``raise X(...)`` and
    ``raise helper(...)``; a helper stands for its return annotation."""
    tree = ast.parse(path.read_text(), filename=str(path))
    returns = {
        node.name: ast.unparse(node.returns)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.returns is not None
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if isinstance(node.exc, ast.Call) and name in returns:
                name = returns[name]
            yield node.lineno, name


# outside the EngineError tree: TypeError for an argument of the wrong type
# (_frac, Element.from_word, apply_word), the AttributeError of the module
# __getattr__ protocol, the ArgumentTypeError of argparse's type-function
# protocol (argparse turns it into a usage error, an InvalidParameter), and
# the entry point's process exit
_PLAIN_RAISES = {
    ("__init__.py", "AttributeError"),
    ("cli.py", "ArgumentTypeError"),
    ("__main__.py", "SystemExit"),
}


def test_every_raise_names_an_engine_error():
    errors = importlib.import_module("trisemi.errors")
    engine = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.EngineError)
    }
    package = Path(trisemi.__file__).resolve().parent
    bad = [
        f"{path.name}:{line}: {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _raise_sites(path)
        if name not in engine and name != "TypeError" and (path.name, name) not in _PLAIN_RAISES
    ]
    assert not bad, "raise outside the EngineError tree:\n" + "\n".join(bad)


def _test_imports() -> set[str]:
    """Top-level modules the tests import: import statements and
    ``pytest.importorskip`` strings, by an ast scan of tests/*.py."""
    names = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "importorskip"
                and isinstance(node.args[0], ast.Constant)
            ):
                names.add(node.args[0].value)
    return {name.partition(".")[0] for name in names}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_script_entry_point_resolves_to_a_callable():
    import tomllib

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert module.partition(".")[0] == "trisemi", name
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_test_extra_declares_every_third_party_test_import():
    # `pip install .[test]` must bring every package a test imports, or
    # the test fails to collect or silently skips
    import tomllib

    tests = Path(__file__).resolve().parent
    project = tomllib.loads((tests.parent / "pyproject.toml").read_text())["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in requirements}
    local = {"trisemi", *(path.stem for path in tests.glob("*.py"))}
    third_party = _test_imports() - set(sys.stdlib_module_names) - local
    assert third_party <= declared, f"not in the test extra: {sorted(third_party - declared)}"
