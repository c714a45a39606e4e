"""Batch experiment harness exposing the library as subcommands.

Each subcommand reads a node source (JSON file or generated family), an
optional function source (JSON file or builtin series spec), runs one
experiment, and emits a CSV or JSON table. The layout of every table is
decided here, and every CSV table goes through the one writer `_csv_text`.
Magnitudes are rendered as exact decimal strings, never binary floats, so
outputs written at different working precisions stay comparable. The
`criterion` and `dd` tables render their rows in forked workers through
precision.fork_map. Identical flags and seed produce byte-identical output,
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
    fork_map,
    parse_decimal,
    render_decimal,
)

DEFAULT_GRID = "5x5@0.5+10"

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
    radius = parse_decimal(m.group(3), bits)
    if radius <= 0:
        raise ConfigError("grid radius must be positive, got %r" % (spec,))
    extra = int(m.group(4)) if m.group(4) else 0
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


def _require_span(nodes, n_max):
    if n_max > len(nodes):
        raise ConfigError(
            "N range reaches %d but only %d nodes are available" % (n_max, len(nodes))
        )


def _emit(text, out_path):
    """Write text, or a list of text pieces in order, to out_path or stdout.

    The only way primary output leaves the package. The pieces are written one
    by one, so a table is never joined or encoded whole; a newline follows the
    last non-empty piece unless it ends with one.
    """
    pieces = [piece for piece in ([text] if isinstance(text, str) else text) if piece]
    if not pieces or not pieces[-1].endswith("\n"):
        pieces.append("\n")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (out_path, exc)) from exc
    else:
        for piece in pieces:
            click.echo(piece, nl=False)


def _json_text(obj):
    return json.dumps(obj, indent=2)


def _csv_text(columns, rows):
    """A header line of the columns, then one line per row; a None cell is empty.

    With columns None there is no header line. rows may be a generator that
    renders its cells as it is drawn: the text is formed before anything is
    written, so a rendering failure leaves the output empty, and the rendered
    cells are dropped once their line is.
    """
    lines = itertools.chain([] if columns is None else [columns], rows)
    return "".join(
        ",".join("" if v is None else str(v) for v in line) + "\n" for line in lines
    )


def _forked_csv(columns, count, row_cells):
    """_csv_text of the rows row_cells(0), ..., row_cells(count - 1), as pieces for _emit.

    Each row_cells(i) yields the CSV rows of table row i and is rendered in a
    forked worker, which returns their text as one string rather than one
    string per cell: that keeps the replies, and peak memory, small. The
    result is the header text, then one text per table row in order; every
    piece is formed before _emit writes the first, and none is joined to
    another, so the table is never held twice.
    """
    return [_csv_text(columns, ())] + fork_map(
        lambda i: _csv_text(None, row_cells(i)), range(count)
    )


def _emit_table(columns, rows, fmt, out_path, **meta):
    """Rows as CSV under a header, or as JSON objects after the meta fields.

    A None cell is empty in CSV and null in JSON.
    """
    if fmt == "csv":
        _emit(_csv_text(columns, rows), out_path)
    else:
        table = {**meta, "rows": [dict(zip(columns, row)) for row in rows]}
        _emit(_json_text(table), out_path)


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
    _require_span(nodes, n_max)
    f = _load_function(function_source, bits)
    points = default_zgrid(bits, *grid_args, seed=seed)
    orders = range(n_min, n_max + 1)
    sups = LinePlan(f, nodes, n_max, bits).sup_errors(points, orders)
    rows = []
    prev = None
    for n, sup in sups.items():
        with workprec(bits):
            ratio = sup / prev if prev is not None and prev > 0 else None
        rows.append((n, render_decimal(sup), None if ratio is None else render_decimal(ratio)))
        prev = sup
    _emit_table(("n", "sup_error", "ratio"), rows, fmt, out, precision_bits=bits)
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
    nodes = _load_nodes(node_source, bits, seed)
    prof = criterion_profile(nodes, p_max, q_max, bits)

    def rendered(p):
        return [
            (render_decimal(raw), render_decimal(norm))
            for raw, norm in zip(prof.raw[p], prof.normalized[p])
        ]

    if fmt == "csv":
        text = _forked_csv(
            ("p", "q", "raw", "normalized"),
            p_max + 1,
            lambda p: ((p, q, raw, norm) for q, (raw, norm) in enumerate(rendered(p))),
        )
    else:
        rows = fork_map(rendered, range(p_max + 1))
        text = _json_text(
            {
                "p_max": p_max,
                "q_max": q_max,
                "precision_bits": prof.precision_bits,
                "estimate_kind": "observed-finite-window",
                "r_hat_observed": render_decimal(prof.r_hat_observed),
                "raw": [[raw for raw, _ in row] for row in rows],
                "normalized": [[norm for _, norm in row] for row in rows],
            }
        )
    _emit(text, out)
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
    if out:
        _emit(_json_text(seq.to_json_obj()), out)
    if fmt == "csv":
        text = _csv_text(
            ("p", "achieved", "target", "precision_bits"),
            (
                (row.stage, render_decimal(row.achieved), row.target, row.precision_bits)
                for row in report.rows
            ),
        )
    else:
        growth = [
            {
                "stage": row.stage,
                "achieved": render_decimal(row.achieved),
                "target": row.target,
                "passed": row.passed,
                "note": row.note,
                "precision_bits": row.precision_bits,
            }
            for row in report.rows
        ]
        text = _json_text(
            {
                "sequence": seq.to_json_obj(),
                "growth": {"rows": growth, "all_passed": report.all_passed},
            }
        )
    _emit(text, None)
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
    _require_span(nodes, n_max)
    f = _load_function(function_source, bits)
    points = default_zgrid(bits, *grid_args, seed=seed)
    orders = range(n_min, n_max + 1)
    rows = LinePlan(f, nodes, n_max, bits).identity_residuals(points, orders, max_order)
    worst = max(mag for _, _, mag, _ in rows)
    passed = worst <= tol
    _emit_table(
        ("n", "point", "residual", "cross_form_gap"),
        [(n, idx, render_decimal(mag), render_decimal(gap)) for n, idx, mag, gap in rows],
        fmt,
        out,
        precision_bits=bits,
        tolerance=tolerance,
        max_residual=render_decimal(worst),
        passed=passed,
    )
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
                    "theta": [t.to_json_obj() for t in thetas],
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
                "theta": [t.to_json_obj() for t in thetas],
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

    def rendered(p):
        return [(render_decimal(v.real), render_decimal(v.imag)) for v in table.rows[p]]

    if fmt == "csv":
        text = _forked_csv(
            ("p", "k", "re", "im"),
            len(table.rows),
            lambda p: ((p, k, re, im) for k, (re, im) in enumerate(rendered(p))),
        )
    else:
        rows = fork_map(
            lambda p: [{"re": re, "im": im} for re, im in rendered(p)],
            range(len(table.rows)),
        )
        text = _json_text(
            {
                "precision_bits": bits,
                "nodes": [z.to_json_obj() for z in nodes],
                "rows": rows,
            }
        )
    _emit(text, out)
    return 0


if __name__ == "__main__":
    main()
