"""Batch experiment harness exposing the library as subcommands.

Each subcommand reads a node source (JSON file or generated family), an
optional function source (JSON file or builtin series spec), runs one
experiment, and emits a CSV or JSON table. The layout of every table is
decided here, and every table, CSV or JSON, goes through the one writer
`_emit_table`. Magnitudes are rendered as exact decimal strings, never binary
floats, so outputs written at different working precisions stay comparable.
The writer renders each row to UTF-8 bytes in forked workers through
precision.fork_spool, which decides how they travel back. Once every row is
rendered, the rows are copied out in order, one at a time: no table is ever
held whole, and a failing row still writes nothing. A JSON table is the text
of json.dumps of its document, with each array of rows streamed in its
place. The mobius report and the counterexample artifact are not tables and
are written whole. All primary output leaves through the one streaming
writer `_emit`. Identical flags and seed produce byte-identical output,
whatever the CPU count.

Exit codes: 0 success, 1 property-check failure, 2 configuration error,
3 numeric or construction failure.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import sys

import click
from mpmath import workprec

from .counterexample import EscalationPolicy, build_sequence, verify_growth
from .criterion import (
    circle_family,
    conj_kernel,
    criterion_profile,
    generate_nodes,
    line_family,
)
from .divdiff import NodeSequence, analytic_series, conjugation, delta_table
from .errors import ConfigError, NumericError, ParseError
# eval2 stays bound here: perfbench's tracer checks use this second binding.
from .funcmodel import TaylorSeries2, eval2, series_from_spec  # noqa: F401
from .interpolate import LinePlan, default_zgrid
from .mobius import make_context, theta_bound, theta_infinity, to_bounded
from .precision import (
    DEFAULT_PRECISION,
    ApComplex,
    check_precision,
    fork_spool,
    parse_decimal,
    render_decimal,
)

DEFAULT_GRID = "5x5@0.5+10"

# Largest node count of a family source, checked before any node is made.
MAX_FAMILY_NODES = 4096

# Largest grid, side * side axis points plus the extra draws, checked before
# any point is made.
MAX_GRID_POINTS = 4096

# Largest kernel power, criterion --q-max, checked before any node is made.
MAX_KERNEL_POWER = 256

_GRID_RE = re.compile(r"^(\d+)x(\d+)@([^+]+)(?:\+(\d+))?$")


# -- shared configuration ------------------------------------------------------------


def _check_orders(n_min, n_max):
    if n_min < 1:
        raise ConfigError("N range must start at 1 or above")
    if n_min > n_max:
        raise ConfigError("empty N range: n_min=%d > n_max=%d" % (n_min, n_max))


def _check_max_order(max_order):
    if max_order is not None and max_order < 0:
        raise ConfigError("max order must be nonnegative")


def _parse_grid(spec, bits):
    """Grid spec SIDExSIDE@RADIUS[+EXTRA], e.g. the default 5x5@0.5+10.

    Returns (radius, side, extra), the order default_zgrid takes them in.
    """
    m = _GRID_RE.match(spec)
    if not m:
        raise ConfigError("grid spec must look like 5x5@0.5+10, got %r" % (spec,))
    side_a, side_b = int(m.group(1)), int(m.group(2))
    if side_a != side_b:
        raise ConfigError("grid must be square, got %dx%d" % (side_a, side_b))
    if side_a < 1:
        raise ConfigError("grid side must be at least 1")
    extra = int(m.group(4)) if m.group(4) else 0
    points = side_a * side_a + extra
    if points > MAX_GRID_POINTS:
        raise ConfigError(
            "grid of %d points exceeds the limit of %d points" % (points, MAX_GRID_POINTS)
        )
    radius = parse_decimal(m.group(3), bits)
    if radius <= 0:
        raise ConfigError("grid radius must be positive, got %r" % (spec,))
    return radius, side_a, extra


def _parse_tolerance(flag, text, bits):
    """A residual bound; no residual can meet a negative one."""
    tol = parse_decimal(text, bits)
    if tol < 0:
        raise ConfigError("%s must be nonnegative, got %r" % (flag, text))
    return tol


def _parse_point(text, bits):
    """Complex flag value as RE or RE,IM in decimal notation."""
    parts = text.split(",")
    if len(parts) == 1:
        parts.append("0")
    if len(parts) != 2:
        raise ConfigError("complex value must be RE or RE,IM, got %r" % (text,))
    with workprec(bits):
        return ApComplex(
            parse_decimal(parts[0], bits), parse_decimal(parts[1], bits), bits
        )


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("%s is not valid JSON: %s" % (path, exc)) from exc


def _load_nodes(source, bits, seed):
    """Node source: a JSON file with a "nodes" list, or family:KIND:ARGS:COUNT.

    Families: family:line:A,B,C:COUNT for the line A*Re+B*Im+C=0 and
    family:circle:RE,IM,R:COUNT for the circle of radius R around RE+IM*i.
    The node count COUNT is required.
    """
    if source is None:
        raise ConfigError("a node source is required (--nodes)")
    if source.startswith("family:"):
        parts = source.split(":")
        kind = parts[1] if len(parts) > 1 else ""
        if kind not in ("line", "circle") or len(parts) != 4:
            raise ConfigError(
                "family spec must be family:line:A,B,C:COUNT or "
                "family:circle:RE,IM,R:COUNT, got %r" % (source,)
            )
        coords = parts[2].split(",")
        if len(coords) != 3:
            raise ConfigError("family %r needs three coordinates" % (kind,))
        try:
            fam_count = int(parts[3])
        except ValueError as exc:
            raise ConfigError("bad family count %r" % (parts[3],)) from exc
        if fam_count > MAX_FAMILY_NODES:
            raise ConfigError(
                "family count %d exceeds the limit of %d nodes" % (fam_count, MAX_FAMILY_NODES)
            )
        if kind == "line":
            family = line_family(coords[0], coords[1], coords[2], fam_count)
        else:
            family = circle_family((coords[0], coords[1]), coords[2], fam_count)
        return generate_nodes(family, seed=seed, precision_bits=bits)
    return NodeSequence.from_json_obj(_load_json(source), bits)


def _load_function(source, bits):
    """Function source: builtin:SPEC (poly:, exp_sum:, expcos:) or a JSON file."""
    if source is None:
        raise ConfigError("a function source is required (--function)")
    if source.startswith("builtin:"):
        return series_from_spec(source[len("builtin:") :], bits)
    return TaylorSeries2.from_json_obj(_load_json(source), bits)


def _parse_kernel(spec, bits):
    """Scalar kernel spec for dd and counterexample.

    conjugation          plain zeta -> conj(zeta)
    conj-kernel[:Q[:S]]  conj(zeta)^S / (1+|zeta|^2)^Q, defaults Q=1, S=Q
    identity             zeta -> zeta (holomorphic)
    analytic:C0,C1,...   truncated power series with real decimal coefficients
    """
    parts = spec.split(":")
    name = parts[0]
    if name == "conjugation" and len(parts) == 1:
        return conjugation()
    if name == "conj-kernel" and len(parts) <= 3:
        try:
            q = int(parts[1]) if len(parts) > 1 else 1
            s = int(parts[2]) if len(parts) > 2 else None
        except ValueError as exc:
            raise ConfigError("kernel powers must be integers in %r" % (spec,)) from exc
        return conj_kernel(q, s)
    if name == "identity" and len(parts) == 1:
        return analytic_series([0, 1])
    if name == "analytic" and len(parts) == 2:
        with workprec(bits):
            coeffs = [parse_decimal(c, bits) for c in parts[1].split(",")]
        return analytic_series(coeffs)
    raise ConfigError("unknown kernel spec %r" % (spec,))


def _emit(pieces, out_path):
    """Write text, or an iterable of pieces in order, to out_path or stdout.

    The only way primary output leaves the package. A piece is text, or
    UTF-8 bytes such as a rendered row, which are written as they are; each
    piece is written as it is drawn, so a table is never joined or held whole
    here. A newline follows the last non-empty piece unless it ends with one.
    """
    if isinstance(pieces, str):
        pieces = (pieces,)
    pieces = (p.encode("utf-8") if isinstance(p, str) else p for p in pieces)
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                _write_pieces(pieces, fh.write)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (out_path, exc)) from exc
    else:
        # click.echo writes bytes to stdout's buffer, after flushing its text layer
        _write_pieces(pieces, lambda piece: click.echo(piece, nl=False))


def _write_pieces(pieces, write):
    """Write each non-empty bytes piece, then a newline unless the last one ends with one."""
    last = b""
    for piece in pieces:
        if piece:
            write(piece)
            last = piece
    if not last.endswith(b"\n"):
        write(b"\n")


def _json_text(obj):
    return json.dumps(obj, indent=2)


def _csv_text(lines):
    """One line of comma-separated cells per line of lines; a None cell is empty."""
    return "".join(",".join("" if v is None else str(v) for v in line) + "\n" for line in lines)


# Stands in a table's JSON document for each array of rows, and joins a row's
# items in its rendered bytes; json.dumps writes it only escaped.
_ARRAY = "\0"


def _emit_table(columns, count, row, fmt, out_path, doc):
    """_emit of the rows row(0), ..., row(count - 1): CSV under the columns, or the JSON doc().

    row(i) returns table row i as its CSV lines and its tuple of items, one
    for each array of the document; each array stands in it as _ARRAY, in
    document order. doc is called only for JSON, so CSV renders none of the
    document's other values. Each row is rendered to UTF-8 bytes through
    fork_spool, in a forked worker or in the caller. Nothing is written until
    every row is rendered, so a failing row leaves the output empty; then
    the rows are copied out in order, one row held at a time.
    """
    csv = fmt == "csv"

    def render(i):
        lines, items = row(i)
        return (_csv_text(lines) if csv else _ARRAY.join(map(_json_text, items))).encode("utf-8")

    with fork_spool(render, range(count)) as read:
        if csv:
            pieces = itertools.chain([_csv_text([columns])], map(read, range(count)))
        else:
            pieces = _json_pieces(_json_text(doc()), read, count)
        _emit(pieces, out_path)


def _json_pieces(text, read, count):
    """The JSON text of a doc with its j-th _ARRAY replaced by the j-th items of rows read(0), ....

    With indent set, json.dumps writes a value the same way at a given depth,
    so each item, dumped on its own, is re-indented at its array's depth: the
    pieces join to json.dumps of the doc with its arrays in place. The items
    are split and re-indented as bytes, since neither NUL nor a newline occurs
    inside a UTF-8 multibyte sequence. The rows are read once for each array.
    """
    parts = text.split(_json_text(_ARRAY))
    yield parts[0]
    for j, after in enumerate(parts[1:]):
        line = parts[j].rpartition("\n")[2]
        outer = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        inner = (outer + "  ").encode("utf-8")
        for i in range(count):
            item = read(i).split(_ARRAY.encode("utf-8"))[j]
            yield (b"," if i else b"[") + inner + item.replace(b"\n", inner)
        yield outer + "]" + after


def _one_line(columns, line):
    """A table row of one CSV line, whose JSON item maps the columns to its cells."""
    return [line], (dict(zip(columns, line)),)


def _guarded(fn):
    """Map the shared error branches onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(**kwargs):
        try:
            code = fn(**kwargs)
        except ConfigError as exc:
            click.echo("config error: %s" % (exc,), err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo("numeric failure: %s" % (exc,), err=True)
            sys.exit(3)
        sys.exit(0 if code is None else code)

    return wrapper


# -- command group -------------------------------------------------------------------


@click.group()
def main():
    """Reconstruction-from-lines experiment tables (CSV/JSON)."""


_precision_opt = click.option(
    "--precision", default=DEFAULT_PRECISION, show_default=True, help="Working bits."
)
_seed_opt = click.option(
    "--seed", default=0, show_default=True, help="Deterministic RNG seed."
)
_out_opt = click.option(
    "--out", default=None, help="Write the primary table here instead of stdout."
)
_format_opt = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Output encoding.",
)
_grid_opt = click.option(
    "--grid", default=DEFAULT_GRID, show_default=True, help="Evaluation grid spec."
)
_nodes_opt = click.option(
    "--nodes", "node_source", default=None, help="Node file or family:KIND:ARGS:COUNT."
)
_function_opt = click.option(
    "--function",
    "function_source",
    default=None,
    help="Series file or builtin:SPEC.",
)


# -- converge ------------------------------------------------------------------------


@main.command("converge")
@_precision_opt
@_nodes_opt
@_function_opt
@click.option("--n-min", default=2, show_default=True, help="Smallest line count.")
@click.option("--n-max", default=8, show_default=True, help="Largest line count.")
@_grid_opt
@_seed_opt
@_out_opt
@_format_opt
@_guarded
def cmd_converge(precision, node_source, function_source, n_min, n_max, grid, seed, out, fmt):
    """Sup-grid interpolation error against the line count N."""
    bits = check_precision(precision)
    _check_orders(n_min, n_max)
    grid_args = _parse_grid(grid, bits)
    nodes = _load_nodes(node_source, bits, seed)
    f = _load_function(function_source, bits)
    points = default_zgrid(bits, *grid_args, seed=seed)
    orders = range(n_min, n_max + 1)
    sups = list(LinePlan(f, nodes, n_max, bits).sup_errors(points, orders).items())
    columns = ("n", "sup_error", "ratio")

    def row(i):
        n, sup = sups[i]
        prev = sups[i - 1][1] if i else None
        with workprec(bits):
            ratio = sup / prev if prev is not None and prev > 0 else None
        ratio = None if ratio is None else render_decimal(ratio)
        return _one_line(columns, (n, render_decimal(sup), ratio))

    _emit_table(columns, len(sups), row, fmt, out, lambda: {"precision_bits": bits, "rows": _ARRAY})
    return 0


# -- criterion -----------------------------------------------------------------------


@main.command("criterion")
@_precision_opt
@_nodes_opt
@click.option("--p-max", default=10, show_default=True, help="Largest difference order.")
@click.option("--q-max", default=3, show_default=True, help="Largest kernel power.")
@_seed_opt
@_out_opt
@_format_opt
@_guarded
def cmd_criterion(precision, node_source, p_max, q_max, seed, out, fmt):
    """Normalized conjugate-kernel divided-difference profile."""
    bits = check_precision(precision)
    if q_max > MAX_KERNEL_POWER:
        raise ConfigError("--q-max %d exceeds the limit of %d" % (q_max, MAX_KERNEL_POWER))
    nodes = _load_nodes(node_source, bits, seed)
    prof = criterion_profile(nodes, p_max, q_max, bits)

    def row(p):
        raw = [render_decimal(v) for v in prof.raw[p]]
        norm = [render_decimal(v) for v in prof.normalized[p]]
        return [(p, q, *cells) for q, cells in enumerate(zip(raw, norm))], (raw, norm)

    def doc():
        return {
            "p_max": p_max,
            "q_max": q_max,
            "precision_bits": prof.precision_bits,
            "estimate_kind": "observed-finite-window",
            "r_hat_observed": render_decimal(prof.r_hat_observed),
            "raw": _ARRAY,
            "normalized": _ARRAY,
        }

    _emit_table(("p", "q", "raw", "normalized"), p_max + 1, row, fmt, out, doc)
    return 0


# -- counterexample ------------------------------------------------------------------


@main.command("counterexample")
@_precision_opt
@click.option("--stages", default=3, show_default=True, help="Stages to construct.")
@click.option(
    "--max-bits",
    default=8192,
    show_default=True,
    help="Precision-escalation ceiling.",
)
@click.option(
    "--kernel",
    default="conj-kernel",
    show_default=True,
    help="Scalar kernel spec (see dd --help).",
)
@click.option(
    "--out",
    default=None,
    help="Write the node-sequence artifact (JSON) here; the growth table "
    "still goes to stdout.",
)
@_format_opt
@_guarded
def cmd_counterexample(precision, stages, max_bits, kernel, out, fmt):
    """Adversarial axis nodes plus per-stage growth certificates.

    The growth table goes to stdout; --out receives the node sequence as
    JSON. Exits 0 only when every stage certificate passes.
    """
    bits = check_precision(precision)
    f = _parse_kernel(kernel, bits)
    policy = EscalationPolicy(start_bits=bits, max_bits=max_bits)
    seq = build_sequence(f, stages, policy)
    report = verify_growth(seq, f)
    sequence = seq.to_json_obj()
    if out:
        _emit(_json_text(sequence), out)

    def row(i):
        cert = report.rows[i]
        achieved = render_decimal(cert.achieved)
        item = {
            "stage": cert.stage,
            "achieved": achieved,
            "target": cert.target,
            "passed": cert.passed,
            "note": cert.note,
            "precision_bits": cert.precision_bits,
        }
        return [(cert.stage, achieved, cert.target, cert.precision_bits)], (item,)

    columns = ("p", "achieved", "target", "precision_bits")
    def doc():
        return {"sequence": sequence, "growth": {"rows": _ARRAY, "all_passed": report.all_passed}}

    _emit_table(columns, len(report.rows), row, fmt, None, doc)
    return 0 if report.all_passed else 1


# -- identity ------------------------------------------------------------------------


@main.command("identity")
@_precision_opt
@_nodes_opt
@_function_opt
@click.option("--n-min", default=1, show_default=True, help="Smallest line count.")
@click.option("--n-max", default=4, show_default=True, help="Largest line count.")
@click.option(
    "--max-order",
    default=None,
    type=int,
    help="Cap the tail sum at this total degree (breaks the identity if low).",
)
@click.option(
    "--tolerance",
    default="1e-55",
    show_default=True,
    help="Largest acceptable residual magnitude.",
)
@_grid_opt
@_seed_opt
@_out_opt
@_format_opt
@_guarded
def cmd_identity(precision, node_source, function_source, n_min, n_max, max_order, tolerance, grid, seed, out, fmt):
    """Residual of f = E_N - R_N + tail swept over the grid."""
    bits = check_precision(precision)
    _check_orders(n_min, n_max)
    _check_max_order(max_order)
    grid_args = _parse_grid(grid, bits)
    tol = _parse_tolerance("--tolerance", tolerance, bits)
    nodes = _load_nodes(node_source, bits, seed)
    f = _load_function(function_source, bits)
    points = default_zgrid(bits, *grid_args, seed=seed)
    orders = range(n_min, n_max + 1)
    rows = LinePlan(f, nodes, n_max, bits).identity_residuals(points, orders, max_order)
    worst = max(mag for _, _, mag, _ in rows)
    passed = worst <= tol
    columns = ("n", "point", "residual", "cross_form_gap")

    def row(i):
        n, idx, mag, gap = rows[i]
        return _one_line(columns, (n, idx, render_decimal(mag), render_decimal(gap)))

    def doc():
        return {
            "precision_bits": bits,
            "tolerance": tolerance,
            "max_residual": render_decimal(worst),
            "passed": passed,
            "rows": _ARRAY,
        }

    _emit_table(columns, len(rows), row, fmt, out, doc)
    return 0 if passed else 1


# -- mobius --------------------------------------------------------------------------


@main.command("mobius")
@_precision_opt
@_nodes_opt
@click.option(
    "--eta-inf",
    required=True,
    help="Reduction center RE[,IM], or 'inf' for the rotation variant.",
)
@click.option(
    "--phi",
    default="0",
    show_default=True,
    help="Rotation angle (radians, decimal) for --eta-inf inf.",
)
@click.option(
    "--tolerance",
    default="1e-60",
    show_default=True,
    help="Bound for unitarity, line-factor, and round-trip residuals.",
)
@click.option(
    "--coherence-tolerance",
    default="1e-50",
    show_default=True,
    help="Bound for the small-N reduction-coherence residual.",
)
@_seed_opt
@_out_opt
@_guarded
def cmd_mobius(precision, node_source, eta_inf, phi, tolerance, coherence_tolerance, seed, out):
    """Homography reduction report: theta list, bounds, residuals (JSON)."""
    bits = check_precision(precision)
    tol = _parse_tolerance("--tolerance", tolerance, bits)
    coh_tol = _parse_tolerance("--coherence-tolerance", coherence_tolerance, bits)
    nodes = _load_nodes(node_source, bits, seed)
    if eta_inf == "inf":
        thetas = theta_infinity(nodes, phi, bits)
        _emit(
            _json_text(
                {
                    "mode": "rotation-at-infinity",
                    "phi": phi,
                    "precision_bits": bits,
                    "theta": thetas.to_json_obj()["nodes"],
                }
            ),
            out,
        )
        return 0
    center = _parse_point(eta_inf, bits)
    ctx = make_context(nodes, center, bits)
    thetas = to_bounded(ctx)
    bound = theta_bound(ctx)
    max_mod, round_trip, line_res, coherence = ctx.residuals(thetas, seed)
    unitarity = ctx.unitarity_defect()
    passed = (
        max_mod <= bound
        and unitarity <= tol
        and line_res <= tol
        and round_trip <= tol
        and coherence <= coh_tol
    )
    _emit(
        _json_text(
            {
                "eta_inf": center.to_json_obj(),
                "precision_bits": bits,
                "theta": thetas.to_json_obj()["nodes"],
                "theta_bound": render_decimal(bound),
                "max_theta_modulus": render_decimal(max_mod),
                "unitarity_defect": render_decimal(unitarity),
                "max_line_factor_residual": render_decimal(line_res),
                "max_round_trip_residual": render_decimal(round_trip),
                "reduction_coherence_residual": render_decimal(coherence),
                "passed": passed,
            }
        ),
        out,
    )
    return 0 if passed else 1


# -- dd ------------------------------------------------------------------------------


@main.command("dd")
@_precision_opt
@_nodes_opt
@click.option(
    "--kernel",
    default="conjugation",
    show_default=True,
    help="conjugation | conj-kernel[:Q[:S]] | identity | analytic:C0,C1,...",
)
@click.option(
    "--max-order", default=None, type=int, help="Use only the first MAX_ORDER+1 nodes."
)
@_seed_opt
@_out_opt
@_format_opt
@_guarded
def cmd_dd(precision, node_source, kernel, max_order, seed, out, fmt):
    """Raw divided-difference table of a scalar kernel over the nodes."""
    bits = check_precision(precision)
    _check_max_order(max_order)
    nodes = _load_nodes(node_source, bits, seed)
    if max_order is not None:
        nodes = nodes.first(max_order + 1)
    h = _parse_kernel(kernel, bits)
    table = delta_table(h, nodes, bits)

    def row(p):
        cells = [(render_decimal(v.real), render_decimal(v.imag)) for v in table.rows[p]]
        lines = [(p, k, re, im) for k, (re, im) in enumerate(cells)]
        return lines, ([{"re": re, "im": im} for re, im in cells],)

    def doc():
        return {"precision_bits": bits, "nodes": nodes.to_json_obj()["nodes"], "rows": _ARRAY}

    _emit_table(("p", "k", "re", "im"), len(table.rows), row, fmt, out, doc)
    return 0


if __name__ == "__main__":
    main()
