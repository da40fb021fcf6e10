"""The oracles in _oracles.py must not reach the package: a check against an
oracle built on the package's own kernels would agree with a broken kernel.

The scan follows imports of sibling test modules (such as _helpers, which
imports reviewaudit) and flags relative imports as well.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _imports(module: str) -> list[str]:
    """Every module name that tests/<module>.py imports, and the names its
    sibling test modules import in turn ("." for a relative import)."""
    found, pending, seen = [], [module], set()
    while pending:
        name = pending.pop()
        seen.add(name)
        for node in ast.walk(ast.parse((TESTS / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." if node.level else node.module]
            else:
                continue
            found.extend(names)
            pending.extend(n for n in names
                           if n not in seen and (TESTS / f"{n}.py").is_file())
    return found


def test_oracles_import_no_package_module():
    imported = _imports("_oracles")
    assert "math" in imported  # the scan sees the module's imports
    assert [name for name in imported
            if name == "." or name.split(".")[0] == "reviewaudit"] == []


def test_scan_sees_through_test_helpers():
    assert "reviewaudit" in _imports("_helpers")
