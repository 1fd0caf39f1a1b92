"""One bit representation in the library: packed ``BitMatrix`` rows.

``repro.hamming.bitvector`` (a vector held as a Python int) remains only
because the benchmark suite's tracing module imports it: no library module
imports it and neither ``repro`` nor ``repro.hamming`` exports it.  Once
that import is gone, the module and this test are deleted together.
"""

import ast
from pathlib import Path

import repro
import repro.hamming

SRC = Path(repro.__file__).parent
BITVECTOR = "repro.hamming.bitvector"


def imported_modules(path: Path) -> set[str]:
    """Every module and ``from``-imported name of ``path``, relative imports resolved."""
    package = path.relative_to(SRC.parent).with_suffix("").parts[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *filter(None, [node.module])))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_library_module_imports_bitvector():
    # The walk sees ``from a.b import c`` as ``a.b.c`` (not a vacuous pass).
    assert "repro.hamming.bitmatrix.BitMatrix" in imported_modules(SRC / "hamming" / "lsh.py")
    importers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "hamming" / "bitvector.py" and BITVECTOR in imported_modules(path)
    ]
    assert importers == []


def test_bitvector_is_not_exported():
    assert "BitVector" not in repro.__all__
    assert "BitVector" not in repro.hamming.__all__
