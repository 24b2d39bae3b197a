"""Every ``repro`` module must be reachable from a production entry point.

The test parses ``src/repro/**/*.py`` with :mod:`ast` (nothing is
imported), follows ``import`` and ``from ... import`` edges — relative
ones and those inside functions included — and fails listing every
module no root reaches.  A module that only its own tests import is
dead weight: delete it, or wire it into a command.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Entry points.  ``repro.serve.smoke`` is a root because CI runs it
#: with ``python -m`` rather than through a ``repro`` verb.
ROOTS = ("repro.__main__", "repro.serve.smoke")


def module_files():
    """Map each ``repro.*`` module name to its source file."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def with_parents(name):
    """``a.b.c`` and the packages importing it executes: ``a``, ``a.b``."""
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def imported_modules(name, path, modules):
    """Modules the file at ``path`` (module ``name``) imports."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.update(with_parents(alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module
            found.update(with_parents(base))
            # ``from pkg import sub`` imports the submodule ``pkg.sub``.
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found & modules.keys()


def unreachable_modules():
    modules = module_files()
    seen = set()
    stack = [m for root in ROOTS for m in with_parents(root)]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(imported_modules(name, modules[name], modules) - seen)
    return sorted(modules.keys() - seen)


def test_every_module_is_reachable_from_a_root():
    orphans = unreachable_modules()
    assert not orphans, (
        "modules no production entry point imports: " + ", ".join(orphans)
    )
