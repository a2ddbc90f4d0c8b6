"""Checks on the package's source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedspeech"


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _uses(tree):
    """Each name read in ``tree``: a name loaded, an attribute, an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_top_level_name_is_used():
    # a name defined at the top of a module is read somewhere in ``src/``;
    # the ``cmd_*`` handlers are looked up by name in ``main``
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _uses(tree))
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _top_level_names(tree)
              if not uses[name] and not name.startswith("cmd_")]
    assert unused == []
