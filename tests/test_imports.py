"""Import hygiene of the package and the tests.

Every top-level import is used: a name counts as used when the module reads
it anywhere, or lists it in __all__. An import statement marked
`# noqa: F401` is exempt, for a binding kept on purpose for outside readers.

The CLI imports no underscore-prefixed name from the package, so it stays a
client of the public API and the mathematics stays in the library.

Every underscore-prefixed top-level function or class of the package is read
by the package itself: tests alone do not keep a private helper alive.

The package writes only the formats it reads back: no `to_csv_text`, and a
class with `to_json_obj` also has `from_json_obj`. The layout of a printed
table belongs to the CLI.

Only `precision.py`, which holds the accumulation kernels, reaches into
`mpmath.libmp`: every other module computes with the mpc operators, so the
second arithmetic idiom stays in one place.

Only `precision.py`, which holds `fork_map`, calls `os.fork`: every other
module that deals work to forked workers goes through that one helper, with
its reaping, failure order and thread check.

Primary output leaves the package only through `cli._emit`, which writes a
table piece by piece: no `print` call, no `sys.stdout.write`, and
`click.echo` without `err=True` only inside `_emit`. Error messages go to
stderr through `click.echo(..., err=True)`.

No package module calls a one-point edge of the interpolant (`eval_EN`,
`eval_RN_lagrange`, `eval_RN_newton`, `identity_report`, `eval2`): each call
builds a whole LinePlan for one point, so the library evaluates through plans
and leaves the edges to outside callers. Binding such a name is not a call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lineinterp").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    """(line, name) of each top-level imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                out.append((node.lineno, name))
    return out


def test_no_unused_top_level_imports():
    sample = (
        "from __future__ import annotations\n"
        "import os\n"
        "import re as regex\n"
        "from math import pi, tau\n"
        "from json import dumps  # noqa: F401\n"
        "__all__ = ['tau']\n"
        "print(regex, pi)\n"
    )
    assert unused_imports(sample) == [(2, "os")]  # the checker itself
    found = {}
    for path in MODULES:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def private_package_imports(source):
    """(line, name) of each underscore-prefixed name imported from lineinterp."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.partition(".")[0] != "lineinterp":
            continue
        out += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return out


def test_cli_imports_no_private_package_names():
    sample = (
        "from os import _exit\n"
        "from .mobius import _coherence_residual, make_context\n"
        "from lineinterp.divdiff import _near\n"
        "from . import _private\n"
        "from lineinterp import ApComplex\n"
    )
    # the checker itself
    assert private_package_imports(sample) == [
        (2, "_coherence_residual"),
        (3, "_near"),
        (4, "_private"),
    ]
    cli = ROOT / "src" / "lineinterp" / "cli.py"
    assert private_package_imports(cli.read_text(encoding="utf-8")) == []


def _read_names(tree):
    """Every name a subtree reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def dead_private_helpers(sources):
    """(module, name) of each private top-level function or class nobody reads.

    sources is a list of (module, source text). A helper counts as read when
    any of the modules reads its name outside the helper's own definition,
    so recursion does not keep it alive.
    """
    defined, read = [], set()
    for module, source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    own = node.name
                    defined.append((module, own))
            read.update(name for name in _read_names(node) if name != own)
    return [(module, name) for module, name in defined if name not in read]


def test_no_dead_private_helpers():
    sample = [
        (
            "a",
            "def _used():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Orphan:\n"
            "    pass\n"
            "def public():\n"
            "    return 2\n",
        ),
        ("b", "from a import _used\nprint(_used())\n"),
    ]
    # the checker itself
    assert dead_private_helpers(sample) == [("a", "_recursive"), ("a", "_Orphan")]
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in PACKAGE]
    assert dead_private_helpers(sources) == []


def one_way_formats(source):
    """Each to_csv_text, and each to_json_obj without a from_json_obj beside it.

    Module-level functions are named bare, methods as Class.method.
    """
    tree = ast.parse(source)
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    scopes = [("", tree.body)] + [(c.name + ".", c.body) for c in classes]
    out = []
    for prefix, body in scopes:
        defined = {n.name for n in body if isinstance(n, ast.FunctionDef)}
        if "to_csv_text" in defined:
            out.append(prefix + "to_csv_text")
        if "to_json_obj" in defined and "from_json_obj" not in defined:
            out.append(prefix + "to_json_obj")
    return out


def test_package_writes_only_formats_it_reads_back():
    sample = (
        "def to_csv_text(rows):\n"
        "    pass\n"
        "class Table:\n"
        "    def to_csv_text(self):\n"
        "        pass\n"
        "class Dump:\n"
        "    def to_json_obj(self):\n"
        "        pass\n"
        "class Both:\n"
        "    def to_json_obj(self):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def from_json_obj(cls, obj):\n"
        "        pass\n"
    )
    # the checker itself
    assert one_way_formats(sample) == [
        "to_csv_text",
        "Table.to_csv_text",
        "Dump.to_json_obj",
    ]
    found = {}
    for path in PACKAGE:
        one_way = one_way_formats(path.read_text(encoding="utf-8"))
        if one_way:
            found[path.name] = one_way
    assert found == {}


def libmp_uses(source):
    """Lines that import from mpmath.libmp or read it as mpmath.libmp."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [node.module + "." + a.name for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.value.id + "." + node.attr]
        else:
            continue
        if any(n == "mpmath.libmp" or n.startswith("mpmath.libmp.") for n in names):
            out.append(node.lineno)
    return out


def test_only_the_kernel_module_uses_libmp():
    sample = (
        "import mpmath\n"
        "import mpmath.libmp\n"
        "from mpmath import libmp, mpc\n"
        "from mpmath.libmp import mpf_add\n"
        "from mpmath.libmp.libmpf import fzero\n"
        "x = mpmath.libmp.BACKEND\n"
        "y = mpmath.mpc(0)\n"
    )
    assert libmp_uses(sample) == [2, 3, 4, 5, 6]  # the checker itself
    found = sorted(path.name for path in PACKAGE if libmp_uses(path.read_text(encoding="utf-8")))
    assert found == ["precision.py"]


def fork_uses(source):
    """Lines that read os.fork or import fork from os, in order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "os":
            if any(a.name == "fork" for a in node.names):
                out.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "fork"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            out.append(node.lineno)
    return sorted(out)


def test_only_the_fork_helper_module_forks():
    sample = (
        "import os\n"
        "from os import fork, pipe\n"
        "pid = os.fork()\n"
        "spawn = os.fork\n"
        "ok = hasattr(os, 'fork')\n"
        "other = os.forkpty\n"
    )
    assert fork_uses(sample) == [2, 3, 4]  # the checker itself
    found = sorted(path.name for path in PACKAGE if fork_uses(path.read_text(encoding="utf-8")))
    assert found == ["precision.py"]


ONE_POINT_EDGES = {"eval_EN", "eval_RN_lagrange", "eval_RN_newton", "identity_report", "eval2"}


def one_point_edge_calls(source):
    """(line, name) of each call of a one-point edge, bare or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ONE_POINT_EDGES:
            out.append((node.lineno, name))
    return sorted(out)


def test_package_calls_no_one_point_edge():
    sample = (
        "from .funcmodel import eval2  # noqa: F401\n"
        "from . import interpolate\n"
        "x = interpolate.eval_EN(f, nodes, 2, z1, z2)\n"
        "y = abs(identity_report(f, nodes, 2, z1, z2).identity_residual)\n"
        "edge = eval_RN_newton\n"
        "z = LinePlan(f, nodes, 2).at(z1, z2).en(2)\n"
    )
    # the checker itself
    assert one_point_edge_calls(sample) == [(3, "eval_EN"), (4, "identity_report")]
    found = {}
    for path in PACKAGE:
        calls = one_point_edge_calls(path.read_text(encoding="utf-8"))
        if calls:
            found[path.name] = calls
    assert found == {}


def _dotted(node):
    """a.b.c of an attribute chain over a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def primary_output_calls(source):
    """(line, call) of each write to stdout outside a function named _emit."""
    out = []

    def visit(node, in_emit):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_emit = in_emit or node.name == "_emit"
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            to_stderr = any(
                kw.arg == "err" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in node.keywords
            )
            if name in ("print", "sys.stdout.write"):
                out.append((node.lineno, name))
            elif name in ("click.echo", "echo") and not to_stderr and not in_emit:
                out.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, in_emit)

    visit(ast.parse(source), False)
    return sorted(out)


def test_primary_output_leaves_only_through_emit():
    sample = (
        "import sys\n"
        "import click\n"
        "from click import echo\n"
        "def _emit(pieces):\n"
        "    for piece in pieces:\n"
        "        click.echo(piece, nl=False)\n"
        "def report(text):\n"
        "    print(text)\n"
        "    sys.stdout.write(text)\n"
        "    click.echo(text)\n"
        "    echo(text, err=False)\n"
        "    click.echo('warning: ' + text, err=True)\n"
        "    sys.stderr.write(text)\n"
        "    print(text, file=sys.stderr)\n"
    )
    # the checker itself
    assert primary_output_calls(sample) == [
        (8, "print"),
        (9, "sys.stdout.write"),
        (10, "click.echo"),
        (11, "echo"),
        (14, "print"),
    ]
    found = {}
    for path in PACKAGE:
        calls = primary_output_calls(path.read_text(encoding="utf-8"))
        if calls:
            found[path.name] = calls
    assert found == {}
