"""Source layout rules for the package."""

import ast
from pathlib import Path

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


def test_numpy_is_imported_only_at_the_three_boundaries():
    # analysis imports it once at module top; the two ndarray views import it
    # on first read, so run, verify and synthesize never load it
    found = sorted(
        (path.name,) + scope
        for path in PACKAGE.glob("*.py")
        for scope in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == [
        ("analysis.py",),
        ("circuit.py", "LocalUnitary", "matrix"),
        ("qubits.py", "QubitState", "amplitudes"),
    ]
