"""Every imported name is read in its module, every definition of
`ctrend` is read in `ctrend` or exported, and `ctrend.cli` loads no package
beyond what the program needs.

A stdlib-only stand-in for a linter's unused-import rule: each module of
`src/ctrend` and `tests` is parsed with `ast`, and every name an import
binds must be loaded somewhere in that module or listed in its `__all__`.
Likewise every function and class that `src/ctrend` defines, methods
included and dunders excepted, must be read somewhere in `src/ctrend`, a
method as an attribute and any other definition as a name, or be listed in
`ctrend.__all__`: what only the tests read belongs beside them.

Every CLI run pays for the imports of `ctrend.cli`, so a fresh interpreter
that imports it may load the standard library, numpy and only the parts
of scipy that the program uses (`linalg`, `special`, `sparse`), with what
they load in turn: not `scipy.stats`, say.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ctrend").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import, with the line of its first binding."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    return bound


def read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, plus the strings of its `__all__`."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def unread_imports(tree: ast.Module) -> dict[str, int]:
    read = read_names(tree)
    return {name: line for name, line in imported_names(tree).items() if name not in read}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = unread_imports(tree)
    assert unread == {}, f"{path.relative_to(ROOT)}: imported and never read: {unread}"


def test_an_unread_import_is_found():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nimport x.y\nprint(e, x)\n")
    assert unread_imports(tree) == {"os": 1, "d": 2}


def unread_definitions(trees: list[ast.Module]) -> dict[str, int]:
    """Each function and class the modules define, dunders excepted, that no
    module reads by its kind, with the line of its first definition.

    A method, a definition in a class body, is read only through an
    attribute load; any other definition only through a name load or a
    module's `__all__`.  So a local variable or an attribute that shares a
    module-level name does not read it, nor does a name that shares a
    method's.
    """
    methods: dict[str, int] = {}
    others: dict[str, int] = {}
    names: set[str] = set()
    attributes: set[str] = set()
    for tree in trees:
        names |= read_names(tree)
        in_class = {id(d) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for d in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    kind = methods if id(node) in in_class else others
                    kind.setdefault(node.name, node.lineno)
    unread = {name: line for name, line in others.items() if name not in names}
    unread.update((name, line) for name, line in methods.items() if name not in attributes)
    return unread


def test_every_definition_is_read_or_exported():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    assert unread_definitions(trees) == {}, "defined in src/ctrend, read only outside it"


def test_an_unread_definition_is_found():
    exporting = ast.parse('__all__ = ["exported"]\n')
    tree = ast.parse(
        "def exported(): pass\n"
        "def called(): pass\n"
        "def unread(): pass\n"
        "class Model:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def used(self): pass\n"
        "called(Model().used)\n"
    )
    assert unread_definitions([exporting, tree]) == {"unread": 3, "method": 6}


def test_a_definition_is_read_only_by_its_kind():
    tree = ast.parse(
        "class Grid:\n"
        "    def flat(self): pass\n"
        "    def size(self): pass\n"
        "def helper(): pass\n"
        "def order(grid):\n"
        "    flat = grid.size()\n"
        "    return flat, grid.helper\n"
        "order(Grid())\n"
    )
    # the local `flat` does not read the method, nor `grid.helper` the function
    assert unread_definitions([tree]) == {"flat": 2, "helper": 4}


# What a bare interpreter loads with the libraries the program may use.
ALLOWED_IMPORTS = "import numpy, scipy.linalg, scipy.special, scipy.sparse"


def loaded_modules(statement: str) -> set[str]:
    """The modules in `sys.modules` of a fresh interpreter after `statement`."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout))


def foreign_modules(statement: str, allowed: set[str]) -> set[str]:
    """Modules loaded by `statement` outside the standard library, numpy,
    `ctrend` and `allowed`."""
    own = set(sys.stdlib_module_names) | {"numpy", "ctrend"}
    return {
        m for m in loaded_modules(statement) - allowed if m.partition(".")[0] not in own
    }


def test_cli_imports_no_package_it_does_not_need():
    allowed = loaded_modules(ALLOWED_IMPORTS)
    assert "scipy.stats" not in allowed
    assert foreign_modules("import ctrend.cli", allowed) == set()
    # the check sees a package the program does not use
    assert "scipy.stats" in foreign_modules("import ctrend.cli, scipy.stats", allowed)
