"""Export hygiene: every name a module lists in `__all__` exists, and every
name the package re-exports is listed in its module's `__all__`, so that
deleting code cannot leave a stale export behind.  The functions the
benchmark's tracer wraps by name still exist, so that a refactor cannot
silently turn their per-layer metrics into absent ones, and every
`st.<name>` the benchmark scripts read resolves on the package."""

import ast
import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import stlinfer

MODULES = sorted(m.name for m in pkgutil.iter_modules(stlinfer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"stlinfer.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_listed_names():
    tree = ast.parse(Path(stlinfer.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = []
    for node in imports:
        assert node.level == 1, f"stlinfer/__init__.py imports from outside the package: {node.module}"
        module = importlib.import_module(f"stlinfer.{node.module}")
        unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__]
    assert unlisted == []


# what perfbench/layers.py wraps in the trainer and, for score-naval, in
# the evaluator, as "module.qualname"
TRACED = [
    "stlinfer.trainer.train",
    "stlinfer.trainer._Optimizer.step",
    "stlinfer.trainer.project_params",
    "stlinfer.trainer.extract_formula",
    "stlinfer.trainer.simplify",
    "stlinfer.evaluate.load_model",
    "stlinfer.evaluate.network_mcr",
    "stlinfer.evaluate.sign_agreement",
    "stlinfer.evaluate.emit_report",
]


def test_perfbench_targets_resolve():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = {f"{module}.{qualname}": (module, qualname) for module, qualname, *_ in layers.TARGETS}
    assert set(TRACED) <= set(targets)
    for name in TRACED:
        module, qualname = targets[name]
        target = functools.reduce(getattr, qualname.split("."), importlib.import_module(module))
        assert callable(target), name


def test_perfbench_reads_only_package_names():
    # the scripts name the package `st`: make_fixture imports it so, and
    # the workloads receive it as a parameter of that name
    root = Path(__file__).resolve().parent.parent / "perfbench"
    read = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {
            (path.name, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "st"
        }
    # the scan must see the calls the workloads make, or it checks nothing
    assert {"gen_naval", "gen_driving_pair", "train", "load_model"} <= {name for _, name in read}
    missing = sorted(f"{script}: st.{name}" for script, name in read if not hasattr(stlinfer, name))
    assert missing == []


def test_every_private_module_name_is_used_in_the_package():
    # a private function, class or constant that nothing in the package
    # reads besides its own definition is dead code (tests do not count)
    src = Path(stlinfer.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            for private in (d for d in defined if d.startswith("_") and not d.startswith("__")):
                used = any(
                    (isinstance(ref, ast.Name) and ref.id == private)
                    or (isinstance(ref, ast.Attribute) and ref.attr == private)
                    for other_name, other in trees.items()
                    for statement in other.body
                    if not (other_name == name and statement is node)
                    for ref in ast.walk(statement)
                )
                if not used:
                    unused.append(f"{name}: {private}")
    assert unused == []
