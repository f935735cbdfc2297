"""Source layout rules for the package."""

import ast
import inspect
import re
import textwrap
from collections import Counter
from pathlib import Path

import notouch

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "notouch"
MAX_COLUMNS = 99


def test_every_source_line_fits_in_99_columns():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long_lines, long_lines


def _numpy_imports(node, scope=()):
    """The scope of each numpy import under ``node``: the names of its enclosing
    classes and functions, and ``<if>``, ``<try>`` and the like for other blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            if any(alias.name.split(".")[0] == "numpy" for alias in child.names):
                yield scope
        elif isinstance(child, ast.ImportFrom):
            if (child.module or "").split(".")[0] == "numpy":
                yield scope
        elif isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _numpy_imports(child, scope + (child.name,))
        else:
            block = (f"<{type(child).__name__.lower()}>",) if hasattr(child, "body") else ()
            yield from _numpy_imports(child, scope + block)


def test_numpy_is_imported_only_at_the_two_boundaries():
    # analysis imports it once at module top; the register's ndarray view
    # imports it on first read, so run, verify and synthesize never load it
    found = sorted(
        (path.name,) + scope
        for path in PACKAGE.glob("*.py")
        for scope in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == [
        ("analysis.py",),
        ("qubits.py", "QubitState", "amplitudes"),
    ]


def _references(node):
    """Each name ``node`` reads: ``ast.Name`` ids, ``ast.Attribute`` attrs and
    the names of import aliases."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper whose only callers are tests is dead code kept for its oracles
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    everywhere = Counter(name for tree in trees for name in _references(tree))
    unused = sorted(
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == Counter(_references(node))[node.name]
    )
    assert not unused, unused


def test_every_exported_class_and_function_has_its_own_docstring():
    # read from the source: a dataclass without one gets its generated
    # signature as ``__doc__``
    exported = [getattr(notouch, name) for name in notouch.__all__]
    undocumented = sorted(
        obj.__name__
        for obj in exported
        if (inspect.isclass(obj) or inspect.isfunction(obj))
        and not ast.get_docstring(ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0])
    )
    assert not undocumented, undocumented


def test_the_readme_layout_lists_every_module():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `src/notouch/(\w+\.py)`", layout, re.MULTILINE))
    modules = {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py"}
    assert listed == modules, sorted(listed ^ modules)
