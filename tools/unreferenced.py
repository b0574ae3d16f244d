"""List the definitions of a Python package that nothing in the package
references: its module-level functions and classes and the methods of its
module-level classes.

A definition counts as referenced when its name appears as a name or as an
attribute anywhere in the package outside its own body (`ast.Name` and
`ast.Attribute` nodes; an import alone is not a use).  Dunder methods, which
Python calls itself, are skipped.  So are the public names in the package's
`__all__` and the names in EXEMPT, which serve readers outside the package.
Prints one `module.name` or `module.Class.method` line per definition left
over, and exits 1 if there is any.

    python tools/unreferenced.py [package_dir]      # default: src/qpkam
"""

import ast
import sys
from pathlib import Path

# used outside src/qpkam: CI and the README read curve.json with
# shell_from_dict, the tests read the accepted draws, and argparse calls
# the parser's error hook
EXEMPT = {"serialize.shell_from_dict", "diophantine.AdmissibleSample.accepted",
          "cli._Parser.error"}


def _public_names(root: Path) -> set:
    """The strings of the package's `__all__` list."""
    for node in ast.parse((root / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each module-level function and
    class and each method of a module-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def unreferenced(root: Path) -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    refs = {}          # name -> (module, line) of each name or attribute node
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((module, node.lineno))
    public = _public_names(root)
    orphans = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            if (name in public or qualname in EXEMPT
                    or (name.startswith("__") and name.endswith("__"))):
                continue
            # a use inside the definition's own body does not count
            own = range(node.lineno, node.end_lineno + 1)
            if not any(other != module or line not in own
                       for other, line in refs.get(name, ())):
                orphans.append(qualname)
    return orphans


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qpkam"
    orphans = unreferenced(root)
    for qualname in orphans:
        print(qualname)
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
