"""Every defaulted parameter of the library is set by some caller.

A keyword default that no call in `src/` or `perfbench/` ever passes is a
setting with one value in use, which belongs in a module constant. The scan
reads the source, not the running objects: it collects every function of
`src/branchkit/*.py` that has defaulted parameters, then every call in
`src/` and `perfbench/` to a function of that name, and marks which
parameters each call passes. A value forwarded from a defaulted parameter of
the calling function counts only if that parameter is itself set somewhere.
A function that nothing calls is dead code rather than a setting, and is not
checked here. A (parameter names, function) pair, such as an example of
`cli.READS`, counts as a call that passes those parameters, for
`cli.build_fixture` calls the function with them by keyword.
"""
import ast
import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "branchkit").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").rglob("*.py"))

# defaulted parameters kept although no call sets them, and why
EXEMPT = {
    "branches.irreversibility_check(preparation_cost)":
        "psi0's preparation cost belongs with the caller's psi0",
    "complexity.variational_upper_bound(sweeps)":
        "goes with the coordinate-descent loop it bounds",
}


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
        tree = ast.parse(path.read_text())
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
        visit(ast.parse(path.read_text()), None)
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
