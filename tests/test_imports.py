"""Every module-level import under ``src/repro`` is used by its own module.

A name counts as used when it appears as an ``ast.Name`` anywhere in the
module, inside a string annotation, or in ``__all__``.  Package
``__init__`` modules re-export by design and are not scanned; a
deliberate re-export elsewhere carries ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _module_imports(tree):
    """``(bound name, line)`` for each import in the module's own body."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody"):
                pending.extend(getattr(node, field, ()))
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = (
                arguments.posonlyargs
                + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            )
            yield node.returns
            yield from (arg.annotation for arg in every if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


def _used_names(tree):
    names = _names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    return sorted(
        (line, name)
        for name, line in _module_imports(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    )


def test_every_module_level_import_is_used():
    unused = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
