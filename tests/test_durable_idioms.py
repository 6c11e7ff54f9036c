"""The durable-file idioms live in one module, ``repro.guard.durable``.

A hand-rolled fsync, temp-file rename or torn-tail cut elsewhere in
``src/repro`` is a copy that can drift from the one the fault-injection
tests cover, so this scan fails on any new one.  An exemption would
have to give its reason in ``EXEMPT``; there is none.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: the idioms that belong in guard/durable.py
IDIOMS = ("os.fsync(", "tempfile.mkstemp(", "os.replace(", 'rfind(b"\\n")')

#: (module path, function) -> why it may keep its own copy; empty, so
#: every copy outside guard/durable.py fails the scan
EXEMPT: dict[tuple[str, str], str] = {}


def _enclosing_functions(source: str) -> dict[int, str]:
    """Line number -> name of the innermost function containing it."""
    owner: dict[int, str] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line in range(node.lineno, node.end_lineno + 1):
                if line not in owner or node.lineno > owner[line][0]:
                    owner[line] = (node.lineno, node.name)
    return {line: name for line, (_, name) in owner.items()}


def _idiom_sites() -> list[tuple[str, str, int, str]]:
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel == "guard/durable.py":
            continue
        source = path.read_text(encoding="utf-8")
        owners = None
        for lineno, line in enumerate(source.splitlines(), 1):
            for idiom in IDIOMS:
                if idiom in line:
                    owners = owners or _enclosing_functions(source)
                    sites.append((rel, owners.get(lineno, "<module>"), lineno, idiom))
    return sites


def test_durable_idioms_live_only_in_guard_durable():
    stray = [
        f"{rel}:{lineno} in {func}: {idiom}"
        for rel, func, lineno, idiom in _idiom_sites()
        if (rel, func) not in EXEMPT
    ]
    assert stray == [], "use repro.guard.durable instead of: " + "; ".join(stray)


def test_every_exemption_is_still_needed():
    used = {(rel, func) for rel, func, _, _ in _idiom_sites()}
    assert set(EXEMPT) <= used
