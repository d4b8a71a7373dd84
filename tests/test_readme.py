"""The README's library tour runs as written, and the public API is what
the package, the benchmark and the tour use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "moranrec"


def library_tour() -> str:
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    start = tour.index("```python\n") + len("```python\n")
    return tour[start:tour.index("```", start)]


def test_library_tour_runs():
    namespace: dict = {}
    exec(compile(library_tour(), "README.md (Library tour)", "exec"), namespace)
    assert namespace["lde"].values.shape == (2, 2, 4)  # times, partitions of {1, 2}, types


def test_every_export_is_reached():
    # a name exported by the package must be loaded by another of its
    # modules, read as an attribute by the benchmark, or used in the tour;
    # helpers that only tests call belong in tests/
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    loaded = {node.id for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read = {node.attr for path in (ROOT / "perfbench").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    toured = {node.attr for node in ast.walk(ast.parse(library_tour()))
              if isinstance(node, ast.Attribute)}
    assert [name for name in exported if name not in loaded | read | toured] == []
