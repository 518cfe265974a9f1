"""Every library function is reached, and every defaulted parameter of
one is set by some caller.

Both scans read the source, not the running objects, of the library
`src/branchkit/*.py` and of its callers, the modules of `src/` and
`perfbench/`; tests are not callers.

A module-level function, method or property of the library (dunders aside)
that no call or reference in a caller names, and that `branchkit/__init__.py`
does not export, is dead code. A reference is any name read, as `f` or
`x.f`, so a function handed on as a value (a constructor of `cli.READS`, a
`cli.cmd_*` handler) counts; names are matched without their module, as a
call site does not say which class it reaches.

A keyword default that no call in `src/` or `perfbench/` ever passes is a
setting with one value in use, which belongs in a module constant. The scan
collects every function of the library that has defaulted parameters, then
every call to a function of that name, and marks which parameters each call
passes. A value forwarded from a defaulted parameter of the calling function
counts only if that parameter is itself set somewhere. A function that
nothing calls is left to the first scan. A (parameter names, function) pair,
such as an example of `cli.READS`, counts as a call that passes those
parameters, for `cli.build_fixture` calls the function with them by keyword.

Each scan keeps an exemption table, with the reason for each entry; an entry
that names nothing the scan finds is reported as stale.
"""
import ast
import functools
import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "branchkit").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").rglob("*.py"))

# functions kept although no caller reaches them, and why: only for what
# Python or argparse calls where the scan cannot see it; empty, as
# perfbench's own parser reaches `cli._Parser.error` by name
EXEMPT_FUNCTIONS: dict[str, str] = {}

# defaulted parameters kept although no call sets them, and why
EXEMPT = {
    "branches.irreversibility_check(preparation_cost)":
        "psi0's preparation cost belongs with the caller's psi0",
    "complexity.variational_upper_bound(sweeps)":
        "goes with the coordinate-descent loop it bounds",
}


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _definitions(module: str, tree: ast.Module) -> dict[str, str]:
    """'module.function' or 'module.Class.method' -> its name, for every
    module-level function and every method or property of a module-level
    class, dunders aside."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.update((f"{module}.{node.name}.{fn.name}", fn.name)
                         for fn in node.body if isinstance(fn, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            found[f"{module}.{node.name}"] = node.name
    return {q: name for q, name in found.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _read_names(trees) -> set[str]:
    """Every name that `trees` read, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _exports(init: ast.Module) -> set[str]:
    """'module.name' of every name the package's `from .module import`
    statements bring in."""
    return {f"{node.module}.{alias.name}" for node in init.body
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names}


def unreached_functions(library: dict[str, ast.Module], callers,
                        init: ast.Module) -> list[str]:
    """Sorted qualified names of the functions of `library` (module name ->
    tree) that no tree of `callers` names and `init` does not export."""
    read, exported = _read_names(callers), _exports(init)
    return sorted(q for module, tree in library.items()
                  for q, name in _definitions(module, tree).items()
                  if name not in read and q not in exported)


def _defaulted(a: ast.arguments) -> list[str]:
    positional = a.posonlyargs + a.args
    return ([p.arg for p in positional[len(positional) - len(a.defaults):]]
            + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def _signatures():
    """name -> [(module, positional names, defaulted names)]; a method's
    positional names start after self or cls."""
    found = {}
    for path in LIBRARY:
        tree = _tree(path)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = [p.arg for p in fn.args.posonlyargs + fn.args.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            if id(fn) in methods and not static:
                positional = positional[1:]
            defaulted = _defaulted(fn.args)
            if defaulted:
                found.setdefault(fn.name, []).append(
                    (path.stem, positional, defaulted))
    return found


def _calls(signatures):
    """(called, passes): the names of the functions called, and one
    (callee, parameter, forwarded) per parameter a call passes, where
    forwarded is the (caller, parameter) whose default it hands on, or None
    for any other value."""
    called, out = set(), []

    def visit(node, caller):
        if isinstance(node, ast.FunctionDef):
            caller = node
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in signatures:
                called.add(name)
            for _, positional, defaulted in signatures.get(name, ()):
                plain = itertools.takewhile(
                    lambda a: not isinstance(a, ast.Starred), node.args)
                given = [*zip(positional, plain),
                         *((kw.arg, kw.value) for kw in node.keywords)]
                out.extend((name, param, _forwarded(value, caller))
                           for param, value in given if param in defaulted)
        names = _named_call(node)
        if names:
            name, params = names
            if name in signatures:
                called.add(name)
            out.extend((name, param, None) for _, _, defaulted
                       in signatures.get(name, ()) for param in params
                       if param in defaulted)
        for child in ast.iter_child_nodes(node):
            visit(child, caller)

    for path in CALLERS:
        visit(_tree(path), None)
    return called, out


def _named_call(node):
    """(function name, parameter names) of a (parameter names, function)
    pair, or None."""
    if not (isinstance(node, ast.Tuple) and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Tuple)):
        return None
    params = [getattr(e, "value", None) for e in node.elts[0].elts]
    fn = node.elts[1]
    name = getattr(fn, "id", None) or getattr(fn, "attr", None)
    if name and all(isinstance(p, str) for p in params):
        return name, params
    return None


def _forwarded(value, caller):
    if (caller is not None and isinstance(value, ast.Name)
            and value.id in _defaulted(caller.args)):
        return caller.name, value.id
    return None


def defaulted_parameters(signatures):
    """Every 'module.function(parameter)' with a default, called or not."""
    return {f"{module}.{name}({param})" for name, found in signatures.items()
            for module, _, defaulted in found for param in defaulted}


def unset_parameters(signatures):
    """Sorted 'module.function(parameter)' for every defaulted parameter of
    a called function that no call sets."""
    called, passes = _calls(signatures)
    done = set()
    while True:
        more = {(callee, param) for callee, param, via in passes
                if via is None or via in done} - done
        if not more:
            break
        done |= more
    return sorted(f"{module}.{name}({param})"
                  for name in called for module, _, defaulted in signatures[name]
                  for param in defaulted if (name, param) not in done)


def test_every_defaulted_parameter_is_set_by_a_caller():
    signatures = _signatures()
    unset = unset_parameters(signatures)
    stale = set(EXEMPT) - defaulted_parameters(signatures)
    assert unset == sorted(EXEMPT), (
        f"set by no call: {sorted(set(unset) - set(EXEMPT))}; "
        f"exempt but set: {sorted(set(EXEMPT) - set(unset) - stale)}; "
        f"stale, no such defaulted parameter: {sorted(stale)}")


def test_every_library_function_is_reached():
    library = {path.stem: _tree(path) for path in LIBRARY}
    unreached = unreached_functions(library, map(_tree, CALLERS),
                                    library["__init__"])
    stale = set(EXEMPT_FUNCTIONS) - {q for module, tree in library.items()
                                     for q in _definitions(module, tree)}
    assert unreached == sorted(EXEMPT_FUNCTIONS), (
        f"reached by no caller: {sorted(set(unreached) - set(EXEMPT_FUNCTIONS))}; "
        f"exempt but reached: {sorted(set(EXEMPT_FUNCTIONS) - set(unreached) - stale)}; "
        f"stale, no such function: {sorted(stale)}")


def test_the_function_scan_reports_only_the_unreached():
    planted = ast.parse(
        "def dead():\n    pass\n"
        "def api():\n    return helper\n"
        "def helper():\n    pass\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def used(self):\n        return self.size\n")
    caller = ast.parse("Box().used()\n")
    init = ast.parse("from .planted import api, Box\n")
    assert unreached_functions({"planted": planted}, [planted, caller],
                               init) == ["planted.dead"]
    # the same scan without the export, or without the caller
    assert unreached_functions({"planted": planted}, [planted],
                               ast.parse("")) == [
        "planted.Box.used", "planted.api", "planted.dead"]
