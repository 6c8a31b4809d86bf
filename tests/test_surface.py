"""Every public name of the library has a reader, and every option a caller.

A public module-level function or class, or a public method, of
``src/acecolor`` must be named (as an identifier, an attribute or an
imported name) outside its own definition, in the library itself (the
package ``__init__`` re-exports count), the benchmark (``pipebench/``,
``benchmarks/``) or the acceptance tests. A name only other tests read
is surface nothing runs. The same readers must pass each parameter with
a default of such a function, method or class constructor (its
``__init__``, or a dataclass or NamedTuple field with a default).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "acecolor"

# public names kept without a reader, each with its reason
EXCEPTIONS = {
    ("generate.py", "DrawingBuilder.attach_square"):
        "the builder API the test fixtures build their drawings with",
}


def _definitions(path):
    """(qualified name, node) of each public module-level function and
    class and each public method in the file."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _names_read(path):
    """Each name the file reads, with the lines it is read on."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        out.setdefault(name, []).append(node.lineno)
    return out


def _readers():
    return (
        sorted(LIBRARY.glob("*.py"))
        + sorted((ROOT / "pipebench").rglob("*.py"))
        + sorted((ROOT / "benchmarks").rglob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
    )


def unread_public_names():
    reads = {path: _names_read(path) for path in _readers()}
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qualified, node in _definitions(path):
            name = qualified.rsplit(".", 1)[-1]
            if not any(
                not (reader == path and node.lineno <= line <= node.end_lineno)
                for reader, names in reads.items()
                for line in names.get(name, ())
            ):
                unread.append((path.name, qualified))
    return unread


def test_every_public_name_has_a_reader():
    unread = [key for key in unread_public_names() if key not in EXCEPTIONS]
    assert unread == [], f"public names no library, benchmark or acceptance code reads: {unread}"


def test_each_exception_is_still_unread():
    # an exception whose name gained a reader, or went, is dropped from the list
    assert set(EXCEPTIONS) <= set(unread_public_names())


# -- options ----------------------------------------------------------------------
#
# A default of a public function, method or class constructor is an
# option some caller sets: library, benchmark or acceptance code must pass
# it, by keyword or by position. An option only tests set is a knob
# nothing runs. A constructor's options are its __init__'s parameters, or
# a dataclass's or NamedTuple's fields, which a call passes by the class
# name; one set through dataclasses.replace goes in the exceptions.

# options kept without a caller, each with its reason
OPTION_EXCEPTIONS = {
    ("cli.py", "main", "argv"):
        "the argument list a caller may give in place of sys.argv; the console script gives none",
    ("solver.py", "SolveOutcome", "moves"):
        "always empty; the pipeline benchmark still reads it, and it goes with the repair moves",
}


def _defaults(fn, skip):
    """(parameter, position) of each parameter of fn with a default. The
    position counts what a call passes by position, so the first skip
    parameters (a method's self or cls) take none; a keyword-only
    parameter has None."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    out.extend((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return out


def _constructor_defaults(cls):
    """_defaults of a class's constructor, which a call names by the
    class: its __init__, or else, for a dataclass or NamedTuple, the
    fields with a default, placed among all its fields."""
    for sub in cls.body:
        if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
            return _defaults(sub, 1)
    kinds = [ast.unparse(d).split("(")[0] for d in cls.decorator_list] + [ast.unparse(b) for b in cls.bases]
    if not {"dataclass", "NamedTuple"} & set(kinds):
        return []
    fields = [
        f for f in cls.body
        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name) and "ClassVar" not in ast.unparse(f.annotation)
    ]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def _options(path):
    """(qualified name, parameter, position) of each parameter with a
    default of each public function, method and class constructor in the
    file."""
    out = []
    for qualified, node in _definitions(path):
        if isinstance(node, ast.ClassDef):
            found = _constructor_defaults(node)
        else:
            bound = "." in qualified and "staticmethod" not in [ast.unparse(d) for d in node.decorator_list]
            found = _defaults(node, int(bound))
        out.extend((qualified, param, position) for param, position in found)
    return out


def _calls(path, out):
    """Add to out, under each name the file calls as a function or an
    attribute, the (positional count, keywords) of each call. Only the
    arguments before a *args count, and a **kwargs passes no keyword: a
    caller that passes an option that way is listed in the exceptions."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            count = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            out.setdefault(name, []).append((count, {k.arg for k in node.keywords}))


def unpassed_options():
    calls = {}
    for path in _readers():
        _calls(path, calls)
    unpassed = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qualified, param, position in _options(path):
            if not any(
                param in keywords or (position is not None and position < count)
                for count, keywords in calls.get(qualified.rsplit(".", 1)[-1], ())
            ):
                unpassed.append((path.name, qualified, param))
    return unpassed


def test_every_option_has_a_caller():
    unpassed = [key for key in unpassed_options() if key not in OPTION_EXCEPTIONS]
    assert unpassed == [], f"options no library, benchmark or acceptance code passes: {unpassed}"


def test_each_option_exception_is_still_unpassed():
    # an exception whose option gained a caller, or went, is dropped from the list
    assert set(OPTION_EXCEPTIONS) <= set(unpassed_options())
