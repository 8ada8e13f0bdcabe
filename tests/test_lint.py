"""Source-level checks over the package modules."""

from __future__ import annotations

import ast
import collections
import importlib
import inspect
import sys
from pathlib import Path

import unionstab

# pyproject.toml declares numpy as the only dependency
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "unionstab"}


def _modules() -> list[tuple[Path, ast.Module]]:
    root = Path(unionstab.__file__).parent
    paths = sorted(root.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_no_assert_statements_in_package():
    """Checks must raise: ``python -O`` strips every assert statement."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Assert))
    assert not found, "assert statements in unionstab: " + ", ".join(
        f"{name}:{line}" for name, line in found)


def _imported_names(node: ast.AST) -> list[str]:
    """Top-level package names an import statement loads; none for a
    relative import, which stays inside unionstab."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_imports_are_stdlib_numpy_or_unionstab():
    """Every import, at any depth, loads the standard library, numpy or
    unionstab itself, so numpy stays the package's one dependency."""
    found = sorted((path.name, node.lineno, name)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   for name in _imported_names(node)
                   if name.partition(".")[0] not in ALLOWED_IMPORTS)
    assert not found, "imports outside stdlib, numpy and unionstab: " + \
        ", ".join(f"{name}:{line} ({mod})" for name, line, mod in found)


def test_no_object_setattr_in_package():
    """Caches on frozen dataclasses are functools.cached_property, not
    writes that go round the frozen check through object.__setattr__."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "__setattr__"
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "object")
    assert not found, "object.__setattr__ in unionstab: " + ", ".join(
        f"{name}:{line}" for name, line in found)


def test_no_np_unique_in_package():
    """Row and value dedupe goes through gf2.distinct_rows or a sort:
    np.unique(axis=0) is slow on bit rows, and any np.unique imports
    numpy.ma on first use."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "unique"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
    assert not found, "np.unique in unionstab: " + ", ".join(
        f"{name}:{line}" for name, line in found)


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_reads_in_package():
    """Configuration never silently overrides what the user typed: no
    module reads os.environ or os.getenv, so no option or speed switch
    can hide in an environment variable."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in _ENVIRONMENT
                   or isinstance(node, ast.ImportFrom)
                   and node.module == "os"
                   and _ENVIRONMENT & {a.name for a in node.names})
    assert not found, "environment reads in unionstab: " + ", ".join(
        f"{name}:{line}" for name, line in found)


def test_packed_word_format_only_in_gf2():
    """np.unpackbits and the "<u8" word dtype appear only in gf2.py: the
    packed-word format lives behind gf2.pack_words and gf2.unpack_rows."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules() if path.name != "gf2.py"
                   for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute)
                       and node.attr == "unpackbits")
                   or (isinstance(node, ast.Constant) and node.value == "<u8"))
    assert not found, "packed-word format outside gf2.py: " + ", ".join(
        f"{name}:{line}" for name, line in found)


# the functions that may call gf2.fwht: the shared character step every
# weight enumerator reads, and the clique order's degree autocorrelation
FWHT_CALLERS = {("gf2.py", "character_squares"),
                ("clique.py", "_min_width_order")}


def test_fwht_only_in_the_shared_character_step():
    """fwht( is called only by gf2.character_squares and
    clique._min_width_order, so no weight enumerator carries its own
    histogram, transform and square."""
    found = sorted((path.name, node.lineno, fn.name)
                   for path, tree in _modules()
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and _names(node.func)[-1:] == ["fwht"]
                   and (path.name, fn.name) not in FWHT_CALLERS)
    assert not found, "fwht called outside the shared character step: " + \
        ", ".join(f"{name}:{line} ({fn})" for name, line, fn in found)


# the functions outside gf2.py that may call gf2.rref: each reads the
# pivots themselves, which right-hand sides are consistent or which
# syndrome columns lead
RREF_CALLERS = {("classical.py", "_power_sum_translations"),
                ("classical.py", "_pair_weights")}


def test_rref_only_where_pivots_are_read():
    """Outside gf2.py, rref( is called only by
    classical._power_sum_translations and classical._pair_weights: every
    other GF(2) system, an inverse or the pure errors included, goes
    through gf2.solve, gf2.rank or gf2.kernel_basis."""
    found = sorted((path.name, node.lineno, fn.name)
                   for path, tree in _modules() if path.name != "gf2.py"
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and _names(node.func)[-1:] == ["rref"]
                   and (path.name, fn.name) not in RREF_CALLERS)
    assert not found, "rref called outside gf2.py: " + \
        ", ".join(f"{name}:{line} ({fn})" for name, line, fn in found)


def test_rank_not_read_off_rref():
    """No package code subscripts an rref(...) result for its rank, as
    rref(m)[2]: gf2.rank reads it off the XOR basis alone, with no
    back-substitution."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Subscript)
                   and isinstance(node.value, ast.Call)
                   and _names(node.value.func)[-1:] == ["rref"]
                   and isinstance(node.slice, ast.Constant)
                   and node.slice.value in (2, -1))
    assert not found, "rank read off rref: " + ", ".join(
        f"{name}:{line}" for name, line in found)


def _reads_cap(node: ast.AST) -> bool:
    """Whether node's subtree reads a name or attribute called cap."""
    return any((isinstance(sub, ast.Name) and sub.id == "cap")
               or (isinstance(sub, ast.Attribute) and sub.attr == "cap")
               for sub in ast.walk(node))


def test_cap_policy_only_in_gf2():
    """No module but gf2.py constructs CapExceeded or compares a count
    with a cap: every other module charges through gf2.charge, so what a
    cap counts is decided in one place."""
    found = sorted((path.name, node.lineno)
                   for path, tree in _modules() if path.name != "gf2.py"
                   for node in ast.walk(tree)
                   if (isinstance(node, ast.Call)
                       and "CapExceeded" in _names(node.func))
                   or (isinstance(node, ast.Compare)
                       and any(map(_reads_cap,
                                   [node.left, *node.comparators]))))
    assert not found, "cap checks outside gf2.py: " + ", ".join(
        f"{name}:{line}" for name, line in found)


def _names(node: ast.AST | None) -> list[str]:
    """Class names an exception expression refers to: a name, an
    attribute (errors.X), a call of either, or a tuple of them."""
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_every_error_class_is_used():
    """Each class in errors.py is raised, caught or subclassed somewhere
    in the package, so no error class outlives its last raiser."""
    modules = _modules()
    errors = next(tree for path, tree in modules if path.name == "errors.py")
    defined = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)}
    used = set()
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                used.update(_names(node.exc))
            elif isinstance(node, ast.ExceptHandler):
                used.update(_names(node.type))
            elif isinstance(node, ast.ClassDef):
                used.update(name for base in node.bases
                            for name in _names(base))
    assert defined, "no classes found in errors.py"
    assert not defined - used, "error classes never raised, caught or " \
        "subclassed: " + ", ".join(sorted(defined - used))


def _import_bindings(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each name a top-level import binds; a
    ``from __future__`` import binds none."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            found += [(alias.asname or alias.name.partition(".")[0],
                       node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(alias.asname or alias.name, node.lineno)
                      for alias in node.names]
    return found


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in a module's top-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    """Every name a module binds by a top-level import is used in that
    module or listed in its __all__; __init__.py only re-exports."""
    found = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        used = _exported(tree) | {node.id for node in ast.walk(tree)
                                  if isinstance(node, ast.Name)}
        found += [(path.name, line, name)
                  for name, line in _import_bindings(tree)
                  if name not in used]
    assert not found, "unused imports in unionstab: " + ", ".join(
        f"{name}:{line} ({what})" for name, line, what in sorted(found))


def _private_defs(tree: ast.Module) -> list[ast.AST]:
    """The top-level defs and classes, and the methods of top-level
    classes, whose names start with one underscore."""
    nodes = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body]
    return [node for node in tree.body + nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _references(node: ast.AST) -> list[str]:
    """The names and attribute names that node's subtree reads."""
    return [sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))]


def test_every_private_function_is_used():
    """Each private function, class and method is referenced somewhere
    in the package outside its own body, so no helper outlives its last
    caller."""
    modules = _modules()
    everywhere = collections.Counter(
        name for _, tree in modules for name in _references(tree))
    defs = [(path.name, node) for path, tree in modules
            for node in _private_defs(tree)]
    assert defs, "no private definitions found"
    found = sorted((name, node.lineno, node.name) for name, node in defs
                   if everywhere[node.name]
                   <= _references(node).count(node.name))
    assert not found, "private definitions never referenced: " + ", ".join(
        f"{name}:{line} ({what})" for name, line, what in found)


def test_trace_entry_points_resolve():
    """Every name in perfbench/tracing.py's ENTRY_POINTS is a function of
    its unionstab module, so a rename fails here, not only under
    ``perfbench/run.py --trace 1``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    entry_points = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)]
        == ["ENTRY_POINTS"])
    assert entry_points
    found = sorted(
        f"{mod}.{name}" for mod, names in entry_points.items()
        for name in names
        if not inspect.isfunction(getattr(
            importlib.import_module(f"unionstab.{mod}"), name, None)))
    assert not found, "ENTRY_POINTS names no unionstab function: " + \
        ", ".join(found)


def test_krawtchouk_rows_come_from_one_table():
    """z4._krawtchouk_row is the one table of Krawtchouk rows: it is
    defined under functools.cache, and everywhere else in the package it
    is only called, so no reader keeps a cache of its own."""
    modules = _modules()
    defs = [node for _, tree in modules for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "_krawtchouk_row"]
    assert [[ast.unparse(d) for d in node.decorator_list]
            for node in defs] == [["functools.cache"]]
    called = {id(node.func) for _, tree in modules for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    found = sorted((path.name, node.lineno)
                   for path, tree in modules for node in ast.walk(tree)
                   if _names(node) == ["_krawtchouk_row"]
                   and isinstance(node, (ast.Name, ast.Attribute))
                   and id(node) not in called)
    assert not found, "_krawtchouk_row read other than by a call: " + \
        ", ".join(f"{name}:{line}" for name, line in found)
