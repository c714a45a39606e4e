"""Import hygiene of the package and the tests.

Every top-level import is used: a name counts as used when the module reads
it anywhere, or lists it in __all__. An import statement marked
`# noqa: F401` is exempt, for a binding kept on purpose for outside readers.

The CLI imports no underscore-prefixed name from the package, so it stays a
client of the public API and the mathematics stays in the library.

Every underscore-prefixed top-level function or class of the package is read
by the package itself: tests alone do not keep a private helper alive. In the
same way every class of `errors.py` is raised by the package, or is the base
of another class there: an error type nothing raises is dead API. Every
public top-level function and public method is read by the package too, or
is on a short allowlist whose groups each say why they stay: the identity
oracles, the click commands, the one-point edges the benchmark imports, and
two helpers kept for their planned callers. This rule matches reads by name
alone, so a member stays unseen behind any attribute of the same name;
tests/test_reachability.py sees through names by running a CLI corpus and
listing the functions it never enters. Every group of this allowlist, but
the click commands, which every run enters, sits in that test's allowlist
under the same name, and that test checks it.

The package writes only the formats it reads back: no `to_csv_text`, and a
class with `to_json_obj` also has `from_json_obj`. The layout of a printed
table belongs to the CLI.

Only `precision.py`, which owns the complex-point format, reads a point
payload: no other module subscripts a payload by "re" or "im", or gets
either key, so every file format parses its complex values through
`_point_from_json`. Building a `{"re": ..., "im": ...}` row, as the CLI's dd
table does, is layout and not a read.

Only `precision.py`, which holds the accumulation kernels, reaches into
`mpmath.libmp`: every other module computes with the mpc operators, so the
second arithmetic idiom stays in one place.

Inside `precision.py` the kernels round through the integer-mantissa core
alone: no libmp arithmetic function (`mpf_add`, `mpf_sub`, `mpf_mul`,
`mpf_div`, `mpc_add`, `mpc_sub`, `mpc_mul`, `mpc_div`) is read there, so
there is one rounding path. In the same way no module writes the two-point
division `(a - b) / (c - d)` of the divided-difference recursion: every such
quotient goes through the core's division step. That step, `precision._div`,
is the one place that calls `divmod`, so parsing a decimal and dividing two
values round through one division routine.

Only `precision.py`, which holds `fork_spool`, calls `os.fork`: every other
module that deals work to forked workers goes through that one helper, with
its spool, reaping, failure order and thread check.

Primary output leaves the package only through `cli._emit`, which writes a
table piece by piece: no `print` call, no `sys.stdout.write`, and
`click.echo` without `err=True` only inside `_emit`. Error messages go to
stderr through `click.echo(..., err=True)`.

In `cli.py` every table takes one path: `fork_spool` is called only inside
`_emit_table`, and `json.dumps` only inside `_json_text`, so no subcommand
renders its rows or builds a JSON document of its own. And `cli.py` imports
none of `os`, `struct`, `tempfile` or `pickle`: how forked work travels back
is decided in `precision.py` alone, and the CLI makes no file-descriptor call.

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


def unread_public_members(sources):
    """(module, name) of each public top-level function or method no module reads.

    sources is a list of (module, source text); a method is named
    Class.method. A member counts as read when any of the modules reads its
    name, bare or as an attribute, outside a function of that same name, so
    recursion does not keep it alive. Importing a name, or listing it in
    __all__, is not a read. Reads are matched by name alone, so a method
    whose name an unrelated attribute shares, such as a `conjugate` beside
    mpc's, passes unseen.
    """
    defined, read = [], set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for module, source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(node.name + ".", m) for m in node.body]
            else:
                members = [("", node)]
            defined += [
                (module, prefix + m.name)
                for prefix, m in members
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
        visit(tree, frozenset())
    return [(module, name) for module, name in defined if name.rpartition(".")[2] not in read]


# the public members no package code reads, each group kept for the reason beside it
UNREAD_PUBLIC_ALLOWED = {
    # the identity oracles the paper relies on, and the primitives their tests build on
    "oracles": {
        "divdiff.py": {
            "product", "delta", "newton_sum", "lagrange_sum", "leibniz_delta",
            "delta_analytic", "monotone_tuple_count",
        },
    },
    # the subcommands, which click reaches through the decorator, not by name
    "commands": {
        "cli.py": {
            "cmd_converge", "cmd_criterion", "cmd_counterexample", "cmd_identity",
            "cmd_mobius", "cmd_dd",
        },
    },
    # the one-point edges that the benchmark harness imports
    "edges": {
        "funcmodel.py": {"eval2"},
        "interpolate.py": {"eval_EN", "eval_RN_lagrange", "eval_RN_newton", "identity_report"},
        "counterexample.py": {"default_kernel"},
    },
    # kept for their planned callers: the proved criterion bound and scaled tolerances
    "planned": {"criterion.py": {"germ_for_family"}, "precision.py": {"ulp"}},
}


def test_every_public_member_is_read_or_allowed():
    sample = [
        (
            "a",
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def imported():\n"
            "    pass\n"
            "class Box:\n"
            "    def value(self):\n"
            "        return used()\n"
            "    def twin(self):\n"
            "        return self.twin()\n"
            "    def _private(self):\n"
            "        pass\n"
            "__all__ = ['imported']\n",
        ),
        ("b", "from a import imported\nprint(Box().value())\n"),
    ]
    # the checker itself
    assert unread_public_members(sample) == [
        ("a", "recursive"),
        ("a", "imported"),
        ("a", "Box.twin"),
    ]
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in PACKAGE]
    allowed = {
        (module, name)
        for group in UNREAD_PUBLIC_ALLOWED.values()
        for module, names in group.items()
        for name in names
    }
    # an allowed member that gains a reader, or goes, leaves the allowlist too
    assert set(unread_public_members(sources)) == allowed


def unraised_errors(errors_source, sources):
    """Classes of errors_source that no raise of sources names and no class there derives from.

    A raise counts when it names the class, bare or as an attribute, with or
    without a call: `raise X`, `raise X(...)`, `raise errors.X(...)`.
    """
    classes = [n for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    bases = {name for c in classes for b in c.bases for name in _read_names(b)}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return [c.name for c in classes if c.name not in raised | bases]


def test_every_error_class_is_raised_or_derived_from():
    sample_errors = (
        "class Base(Exception):\n"
        "    pass\n"
        "class Derived(Base):\n"
        "    pass\n"
        "class Bare(Exception):\n"
        "    pass\n"
        "class Built(Exception):\n"
        "    pass\n"
        "class Dead(Exception):\n"
        "    pass\n"
    )
    sample = (
        "from . import errors\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise errors.Derived('x')\n"
        "    error = Built('kept, not raised')\n"
        "    raise Bare\n"
    )
    # the checker itself
    assert unraised_errors(sample_errors, [sample]) == ["Built", "Dead"]
    errors = ROOT / "src" / "lineinterp" / "errors.py"
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unraised_errors(errors.read_text(encoding="utf-8"), sources) == []


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


def point_payload_reads(source):
    """Lines that read the "re" or "im" of a payload: a subscript or a .get by that key."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value in ("re", "im"):
            out.append(node.lineno)
    return out


def test_only_the_point_format_owner_reads_a_payload():
    sample = (
        'x = obj["re"]\n'
        'y = obj.get("im", "0")\n'
        'row = {"re": x, "im": y}\n'
        'obj["im"] = "0"\n'
        'z = obj["nodes"], obj.get("k"), "re" in obj\n'
    )
    assert point_payload_reads(sample) == [1, 2]  # the checker itself
    found = sorted(
        path.name for path in PACKAGE if point_payload_reads(path.read_text(encoding="utf-8"))
    )
    assert found == ["precision.py"]


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


LIBMP_ARITHMETIC = {
    "mpf_add", "mpf_sub", "mpf_mul", "mpf_div", "mpc_add", "mpc_sub", "mpc_mul", "mpc_div",
}


def libmp_arithmetic(source):
    """Lines that read a libmp arithmetic function, bare or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in LIBMP_ARITHMETIC:
            out.append(node.lineno)
    return sorted(out)


def test_the_kernels_round_through_the_core_alone():
    sample = (
        "from mpmath import libmp\n"
        "from mpmath.libmp import fzero\n"
        "def kernel(x, y):\n"
        "    try:\n"
        "        return core(x, y)\n"
        "    except ValueError:\n"
        "        return mpf_add(x, y, 64), mpc_mul(x, y, 64)\n"
        "def other(x):\n"
        "    return libmp.mpf_mul(x, x, 64), fzero\n"
    )
    assert libmp_arithmetic(sample) == [7, 7, 9]  # the checker itself
    precision = ROOT / "src" / "lineinterp" / "precision.py"
    assert libmp_arithmetic(precision.read_text(encoding="utf-8")) == []


def _is_difference(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)


def two_point_divisions(source):
    """Lines that divide a difference by a difference."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and _is_difference(node.left)
        and _is_difference(node.right)
    )


def test_no_module_writes_the_two_point_division():
    sample = (
        "def step(x, y, z, w, g):\n"
        "    a = (x - y) / (z - w)\n"
        "    b = (x - y) / g + x / (z - w) + (x + y) / (z - w)\n"
        "    try:\n"
        "        return core(x, y, g)\n"
        "    except ArithmeticError:\n"
        "        return ((x - y) /\n"
        "                (z - w))\n"
    )
    assert two_point_divisions(sample) == [2, 7]  # the checker itself
    found = {}
    for path in PACKAGE:
        lines = two_point_divisions(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}


def divmod_calls(source):
    """(line, top-level function or class around it, or None) of each divmod call."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod":
                out.append((node.lineno, owner))
    return sorted(out)


def test_only_the_division_step_calls_divmod():
    sample = (
        "def _div(a, b):\n"
        "    return divmod(a, b)\n"
        "def ratio(a, b):\n"
        "    q, r = divmod(a, b)\n"
        "    return q, math.divmod\n"
        "x = divmod(7, 2)\n"
    )
    assert divmod_calls(sample) == [(2, "_div"), (4, "ratio"), (6, None)]  # the checker itself
    found = {
        (path.name, owner)
        for path in PACKAGE
        for _, owner in divmod_calls(path.read_text(encoding="utf-8"))
    }
    assert found == {("precision.py", "_div")}


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


# in cli.py each of these calls stays inside the function named beside it
TABLE_PATH = {"fork_spool": "_emit_table", "json.dumps": "_json_text"}


def table_path_calls(source):
    """(line, call) of each call of a TABLE_PATH name outside the function it belongs to."""
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in TABLE_PATH and TABLE_PATH[name] not in inside:
                out.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return sorted(out)


def test_every_table_takes_the_one_writer():
    sample = (
        "import json\n"
        "def _json_text(obj):\n"
        "    return json.dumps(obj, indent=2)\n"
        "def _emit_table(count, row):\n"
        "    def render(i):\n"
        "        with fork_spool(row, [i]) as read:\n"
        "            return read(0)\n"
        "    with fork_spool(render, range(count)) as read:\n"
        "        return read(0)\n"
        "def cmd_dd(rows):\n"
        "    with fork_spool(len, rows) as read:\n"
        "        return json.dumps(read(0))\n"
        "text = json.dumps({})\n"
        "spooler = fork_spool\n"
    )
    # the checker itself
    assert table_path_calls(sample) == [
        (11, "fork_spool"),
        (12, "json.dumps"),
        (13, "json.dumps"),
    ]
    cli = ROOT / "src" / "lineinterp" / "cli.py"
    assert table_path_calls(cli.read_text(encoding="utf-8")) == []


# modules that would let cli.py move forked results itself
FD_MODULES = {"os", "struct", "tempfile", "pickle"}


def fd_module_imports(source):
    """(line, module) of each import of a FD_MODULES module, or of a name from one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names if a.name.partition(".")[0] in FD_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").partition(".")[0] in FD_MODULES:
                out.append((node.lineno, node.module))
    return sorted(out)


def test_cli_moves_no_forked_result_itself():
    sample = (
        "import json\n"
        "import os, sys\n"
        "from struct import Struct\n"
        "def spool():\n"
        "    import tempfile\n"
        "    import pickle as p\n"
        "import os.path\n"
        "from .precision import fork_spool\n"
    )
    # the checker itself
    assert fd_module_imports(sample) == [
        (2, "os"),
        (3, "struct"),
        (5, "tempfile"),
        (6, "pickle"),
        (7, "os.path"),
    ]
    cli = ROOT / "src" / "lineinterp" / "cli.py"
    assert fd_module_imports(cli.read_text(encoding="utf-8")) == []
