"""Guards against code that only tests reach, and against a drifting public API.

Every single-underscore function, method or class in the package must be
named somewhere in the package outside its own definition; a private helper
that nothing in ``src/affsphere`` calls serves only tests and is deleted.
Every public function, method, class and module constant must be named by
package code, ``perfbench/``, ``demos/`` or ``affsphere.__all__``; a public
method only counts as named where it appears as an attribute or in a string.
Every optional parameter of a private function or method must be left at its
default by some package call; a knob that every caller sets is a required
parameter.
"""

import ast
import re
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import affsphere

SRC = Path(affsphere.__file__).parent
# the benchmark and the demos are the package's in-repo users
ROOT = Path(__file__).resolve().parents[1]
USER_TREES = (ROOT / "perfbench", ROOT / "demos")

# private definitions kept although no package code names them, with the reason
ALLOWED_UNREFERENCED = {
    "_bracket_root": "one-lane harness of the brentq-equality tests of the lane solver",
}


# public definitions kept although no code names them (fnmatch patterns), with the reason
ALLOWED_UNREFERENCED_PUBLIC = {
    "cmd_*": "main dispatches the subcommands by name, as cmd_<command>",
    "extras": "Surface.extras, the exact F' and G' components that acceptance criteria 5 and 9 read",
}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _names(node):
    """Identifiers that node and its children name, as Name ids and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _private_definitions_and_uses():
    defs = {}  # name -> "file:line" of its first definition
    uses = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses.update(_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defs.setdefault(node.name, f"{path.name}:{node.lineno}")
                    # a definition's own body naming it (recursion) is not a use
                    uses[node.name] -= sum(n == node.name for n in _names(node))
    return defs, uses


def test_every_private_definition_is_named_in_the_package():
    defs, uses = _private_definitions_and_uses()
    unused = sorted(
        f"{name} ({where})"
        for name, where in defs.items()
        if uses[name] <= 0 and name not in ALLOWED_UNREFERENCED
    )
    assert not unused, f"private definitions no package code names: {unused}"
    stale = [name for name in ALLOWED_UNREFERENCED if name not in defs or uses[name] > 0]
    assert not stale, f"allowlisted names that are gone or now named in the package: {stale}"


def test_public_names_sorted_unique_and_resolvable():
    names = affsphere.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(affsphere, name)]
    assert not missing, f"__all__ names missing from the package: {missing}"


def _attribute_names(node):
    """Identifiers that node and its children name as attributes, or as a
    string that is a dotted identifier path ("surfaces.Surface.sample_grid")."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", sub.value):
                yield from sub.value.split(".")


def _public_definitions(tree):
    """(name, node, is_method) of the module's public functions, classes and
    constants, and of the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, False


def _unreferenced_public_definitions():
    """A function, class or constant counts as used where it is named; a method
    only where it is named as an attribute or in a string, as a local variable
    of the same name does not reach it."""
    defs = {}  # name -> ("file:line" of its first definition, is_method)
    uses, attribute_uses = Counter(), Counter()
    paths = sorted(SRC.glob("*.py"))
    for tree_root in USER_TREES:
        paths += sorted(tree_root.glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        uses.update(_names(tree))
        attribute_uses.update(_attribute_names(tree))
        if path.parent != SRC:
            continue
        for name, node, is_method in _public_definitions(tree):
            if name.startswith("_"):
                continue
            defs.setdefault(name, (f"{path.name}:{node.lineno}", is_method))
            # the definition naming itself (its target, or recursion) is not a use
            uses[name] -= sum(n == name for n in _names(node))
            attribute_uses[name] -= sum(n == name for n in _attribute_names(node))
    return sorted(
        f"{name} ({where})"
        for name, (where, is_method) in defs.items()
        if (attribute_uses if is_method else uses)[name] <= 0 and name not in affsphere.__all__
        and not any(fnmatch(name, pattern) for pattern in ALLOWED_UNREFERENCED_PUBLIC)
    )


def test_every_public_definition_is_named_by_its_users():
    unused = _unreferenced_public_definitions()
    assert not unused, f"public definitions no package, perfbench or demo code names: {unused}"


def _optional_parameters(fn, bound):
    """(call position or None, name) of the parameters of fn that have a
    default; bound: the first positional parameter is self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(i - bound, arg.arg) for i, arg in enumerate(positional) if i >= first_default]
    return out + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def _leaves_default(call, position, name):
    """Whether call leaves the parameter at its default: it passes it neither
    by position nor by keyword, or it unpacks *args or **kwargs."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    by_position = position is not None and position < len(call.args)
    return not by_position and all(kw.arg != name for kw in call.keywords)


def _knobs_always_set():
    functions, calls = [], {}  # calls: name -> the package's calls of that name
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(node.name):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                functions.append((node, f"{path.name}:{node.lineno}", id(node) in methods and not static))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(
        f"{fn.name}({name}=...) ({where})"
        for fn, where, bound in functions
        for position, name in _optional_parameters(fn, bound)
        if not any(_leaves_default(call, position, name) for call in calls.get(fn.name, []))
    )


def test_every_private_knob_is_left_at_its_default_somewhere():
    always_set = _knobs_always_set()
    assert not always_set, f"optional parameters every package call sets: {always_set}"
