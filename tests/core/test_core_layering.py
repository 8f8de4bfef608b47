"""Static layering check: the coordination core stays off the event loop.

The WM has one synchronous round whose barrier is ``adapter.wait_all()``;
nothing under ``repro.core`` may import ``asyncio`` or the NetKV
event-loop transport (``repro.datastore.aio``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.core

CORE = Path(repro.core.__file__).parent
FORBIDDEN = ("asyncio", "repro.datastore.aio")


def _imported_names(path: Path):
    """Every dotted name a module imports, ``from x import y`` as ``x.y``."""
    package = "repro.core"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_core_imports_no_event_loop_modules():
    offenders = sorted(
        f"{path.name}: {name}"
        for path in CORE.rglob("*.py")
        for name in _imported_names(path)
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    )
    assert offenders == []
