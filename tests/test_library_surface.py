"""Everything the library defines is used by the library or the benchmark.

Every top-level function, class and UPPER_CASE constant in `src/ringbreak`,
and every public method, must be referenced from `src/ringbreak` or `bench/`
outside its own definition. Test oracles and fixtures live in
`tests/support.py` instead. A reference is a name, an attribute or an
identifier string (`bench/spans.py` names its shim targets as strings);
`__init__.py` is skipped, because its imports are the public re-exports.
Stdlib `ast` only, so the check runs wherever the suite does.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UPPER = re.compile(r"^[A-Z][A-Z0-9_]*$")


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each definition the rule covers."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets
                    if isinstance(t, ast.Name) and UPPER.match(t.id)]
    return out


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """(identifier, line) of each name, attribute and identifier string."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            refs.append((node.value, node.lineno))
    return refs


def unused_definitions(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """`module.name` of each definition in `library` (module -> source) that
    neither `library` nor `users` references outside the definition itself."""
    trees = {m: ast.parse(src) for m, src in {**users, **library}.items()}
    refs = [(m, name, line) for m, tree in trees.items() for name, line in references(tree)]
    unused = []
    for module in library:
        for qual, node in definitions(trees[module]):
            name = qual.rsplit(".", 1)[-1]
            if not any(n == name and not (m == module and node.lineno <= line <= node.end_lineno)
                       for m, n, line in refs):
                unused.append(f"{module}.{qual}")
    return unused


def test_every_library_definition_is_used_outside_the_tests():
    library = {p.stem: p.read_text() for p in (ROOT / "src" / "ringbreak").glob("*.py")
               if p.name != "__init__.py"}
    users = {f"bench/{p.stem}": p.read_text() for p in (ROOT / "bench").glob("*.py")}
    assert unused_definitions(library, users) == []


def test_detects_an_unused_definition():
    library = {"lib": ("LIMIT = 3\nTOTAL = 4\n\n"
                       "def used():\n    return LIMIT\n\n"
                       "def recursive(k):\n    return recursive(k - 1)\n\n"
                       "class Box:\n    def open(self):\n        return used()\n"
                       "    def close(self):\n        pass\n"),
               "other": "def helper():\n    return 'Box'\n"}
    users = {"bench": "import lib\nlib.Box().open()\n"}
    assert unused_definitions(library, users) == [
        "lib.TOTAL", "lib.recursive", "lib.Box.close", "other.helper"]
