"""Every public name of the library has a reader.

A public module-level function or class, or a public method, of
``src/acecolor`` must be named (as an identifier, an attribute or an
imported name) outside its own definition, in the library itself (the
package ``__init__`` re-exports count), the benchmark (``pipebench/``,
``benchmarks/``) or the acceptance tests. A name only other tests read
is surface nothing runs.
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


def _public_definitions(path):
    """(qualified name, first line, last line) of each public module-level
    function and class and each public method in the file."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_"):
                    out.append((f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno))
    return out


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
        for qualified, first, last in _public_definitions(path):
            name = qualified.rsplit(".", 1)[-1]
            if not any(
                not (reader == path and first <= line <= last)
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
