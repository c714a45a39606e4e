"""Constructive axis node sequences whose divided differences grow like p^p.

The builder appends three nodes per stage, all exactly on the real or
imaginary axis, so that after stage s the order 3s-1 divided difference of
the kernel over the first 3s nodes has magnitude at least s^s. The placement
rests on the one-node extension

    G(zeta) = Delta_n(f) over the nodes placed so far, with zeta appended,

whose derivative with respect to conj(zeta) at 0 is, by the product rule,
(df/dconj)(0) / prod(0 - eta_i). Shrinking the stage's leading node pumps
that derivative above the target, and an axis pair whose half-phase matches
d_z / d_zbar makes the final divided difference tend to d_z + e^{i theta}
d_zbar, of magnitude |d_z| + |d_zbar|. Acceptance never trusts the limit:
each candidate pair is checked by recomputing the divided difference
directly, shrinking the pair radius geometrically until the target clears,
and doubling the working precision whenever the shrink loop stalls or the
pairwise node gaps predict more cancellation than the precision absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf, workprec

from .criterion import conj_kernel
from .divdiff import NodeConditioning, NodeSequence, ScalarFunction, _leading_column
from .errors import (
    ConfigError,
    ConstructionFailureError,
    DomainError,
    ParseError,
    UnsuitableKernelError,
)
from .precision import (
    DEFAULT_PRECISION,
    _append,
    _gap_row,
    _point_from_json,
    _point_json,
    _raw,
    check_precision,
    parse_decimal,
    render_decimal,
)

# Halvings of a stage's pair radius before its working precision doubles.
SHRINK_BUDGET = 64


def default_kernel():
    """Bounded conjugation kernel zeta -> conj(zeta) / (1 + |zeta|^2).

    Its derivative with respect to conj(zeta) is 1/(1 + |zeta|^2)^2, equal
    to 1 at the origin, so the kernel suits build_sequence.
    """
    return conj_kernel(1)


def _wirtinger(f, cd_zero, conditioning, diag, bits):
    """Wirtinger derivatives (d_z, d_zbar) at 0 of zeta -> Delta_n(f)(zs, zeta).

    zs, the conditioning's nodes, are the n raw prefix nodes, none at 0 (no
    node: f itself), at the ambient precision, which must be bits and the
    conditioning's; diag is the last diagonal of f's table over zs, and
    cd_zero is (df/dconj)(0) as an mpc at bits. d_zbar comes from the product
    formula cd_zero / prod(0 - eta_i), accurate to rounding. d_z takes central
    differences along both axes at a dyadic step capped a factor of eight
    below the smallest prefix modulus, with one Richardson step at ratio 2,
    and carries about two thirds of the precision. Each probe appends itself
    to diag in O(n).
    """
    zs = conditioning.zs
    denom = mpc(1)
    for z in zs:
        denom = denom * (-z)
    d_zbar = cd_zero / denom

    h_exp = -(bits // 3)
    if zs:
        _, top = mpmath.frexp(min(abs(z) for z in zs))
        h_exp = min(h_exp, top - 4)
    h = mpmath.ldexp(1, h_exp)

    def extended_delta(re, im):
        probe = mpc(re, im)
        return _raw(_append(diag, f.raw(probe), _gap_row(probe, zs))[-1])

    def central(step, along_imag):
        if along_imag:
            upper = extended_delta(0, step)
            lower = extended_delta(0, -step)
        else:
            upper = extended_delta(step, 0)
            lower = extended_delta(-step, 0)
        return (upper - lower) / (2 * step)

    dx = (4 * central(h / 2, False) - central(h, False)) / 3
    dy = (4 * central(h / 2, True) - central(h, True)) / 3
    return (dx - mpc(0, 1) * dy) / 2, d_zbar


def _extended(f, conditioning, diag, more):
    """The conditioning and last diagonal of f's table over zs + more, from those over zs.

    Only the gaps and differences of the new nodes are formed, at the
    conditioning's precision, which must be the ambient one.
    """
    zs, bits = conditioning.zs + tuple(more), conditioning.precision_bits
    conditioning = NodeConditioning(zs, bits, conditioning)
    for z, gaps in zip(more, conditioning.rows[-len(more):]):
        diag = _append(diag, f.raw(z), gaps)
    return conditioning, diag


@dataclass(frozen=True)
class EscalationPolicy:
    """Working-precision schedule for the staged construction.

    Bits start at start_bits and double whenever a stage exhausts
    SHRINK_BUDGET halvings of its pair radius, or the candidate nodes'
    pairwise gaps predict more than bits/2 of cancellation. Doubling past
    max_bits abandons the construction.
    """

    start_bits: int = DEFAULT_PRECISION
    max_bits: int = 8192

    def __post_init__(self):
        check_precision(self.start_bits)
        if self.max_bits < self.start_bits:
            raise ConfigError("max_bits must be at least start_bits")


@dataclass(frozen=True)
class StageRecord:
    """Acceptance record for one three-node stage (1-based stage index).

    The stage's three nodes are raw mpc at precision_bits, as the stage made them.
    """

    stage: int
    eta_first: mpc
    eta_second: mpc
    eta_third: mpc
    achieved: mpf
    target: int
    phase_case: str
    shrink_steps: int
    precision_bits: int

    def to_json_obj(self):
        return {
            "stage": self.stage,
            "eta_first": _point_json(self.eta_first.real, self.eta_first.imag),
            "eta_second": _point_json(self.eta_second.real, self.eta_second.imag),
            "eta_third": _point_json(self.eta_third.real, self.eta_third.imag),
            "achieved": render_decimal(self.achieved),
            "target": self.target,
            "phase_case": self.phase_case,
            "shrink_steps": self.shrink_steps,
            "precision_bits": self.precision_bits,
        }

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ParseError("stage record payload must be an object")
        try:
            bits = check_precision(int(obj["precision_bits"]))
            return cls(
                stage=int(obj["stage"]),
                eta_first=_point_from_json(obj["eta_first"], bits),
                eta_second=_point_from_json(obj["eta_second"], bits),
                eta_third=_point_from_json(obj["eta_third"], bits),
                achieved=parse_decimal(obj["achieved"], bits),
                target=int(obj["target"]),
                phase_case=str(obj["phase_case"]),
                shrink_steps=int(obj["shrink_steps"]),
                precision_bits=bits,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("malformed stage record: %s" % (exc,))


def _axis_of(z):
    if z.imag == 0:
        return "real"
    if z.real == 0:
        return "imaginary"
    return "off-axis"


@dataclass(frozen=True)
class AdversarialSequence:
    """Axis node sequence with one growth certificate per stage.

    Stage s occupies nodes 3s-2, 3s-1, 3s (1-based) and certifies that the
    order 3s-1 divided difference of the kernel over the first 3s nodes has
    magnitude at least s^s. Every node lies exactly on an axis, each
    stage's leading node drops strictly below all earlier moduli and below
    1/(3s-2), and the paired nodes stay strictly inside the leading one.
    """

    nodes: NodeSequence
    stage_log: tuple
    kernel_kind: str
    precision_bits: int

    @property
    def stages(self):
        return len(self.stage_log)

    def to_json_obj(self):
        return {
            "kernel": self.kernel_kind,
            "precision_bits": self.precision_bits,
            "nodes": [dict(_point_json(z.real, z.imag), axis=_axis_of(z)) for z in self.nodes.zs],
            "stage_log": [rec.to_json_obj() for rec in self.stage_log],
        }

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict) or "nodes" not in obj:
            raise ParseError("sequence payload must contain nodes")
        bits = check_precision(int(obj.get("precision_bits", DEFAULT_PRECISION)))
        nodes = NodeSequence.from_json_obj({"nodes": obj["nodes"]}, bits)
        log = tuple(
            StageRecord.from_json_obj(rec) for rec in obj.get("stage_log", ())
        )
        kind = str(obj.get("kernel", "conjugate-kernel"))
        return cls(nodes=nodes, stage_log=log, kernel_kind=kind, precision_bits=bits)


class _NeedMoreBits(Exception):
    """Internal signal: retry the stage at doubled working precision."""


def _power_of_two_below(value):
    """Largest power of two at most value/2; strict bounds stay strict."""
    _, exponent = mpmath.frexp(value)
    return mpmath.ldexp(1, exponent - 2)


def _run_stage(f, conditioning, diag, stage, bits):
    """One stage at fixed working precision; raises _NeedMoreBits on stall.

    conditioning holds the raw mpc nodes prev placed so far, at bits, and
    diag the last diagonal of f's table over them. Returns the record and
    the conditioning and diagonal of prev and the stage's trio, extended from
    these. Bits only grow from stage to stage, so a node made at fewer bits
    is exact at these. f's conjugate derivative at 0 is read once per
    attempt, and UnsuitableKernelError raised when it vanishes; stage 1's
    first attempt runs at the policy's starting bits, before any node is placed.
    """
    p = stage - 1
    target = stage**stage
    prev = conditioning.zs
    with workprec(bits):
        moduli = [abs(z) for z in prev]
        cap = mpf(1) / (3 * p + 1)
        if moduli:
            cap = min(cap, min(moduli))
        lead = _power_of_two_below(cap)
        cd_zero = mpc(f.conj_derivative(mpc(0)))
        if cd_zero == 0:
            raise UnsuitableKernelError(
                "conjugate derivative vanishes at 0, so the one-node "
                "extension has no anti-holomorphic growth to amplify"
            )
        cd_mod = abs(cd_zero)
        scale = mpf(1)
        for m in moduli:
            scale = scale * m
        # |d_zbar| of the one-node extension is cd_mod / (scale * lead) by
        # the product formula; each halving doubles it, so this terminates
        while cd_mod / (scale * lead) < target + 1:
            lead = lead / 2
        eta_first = mpc(lead, 0)
        active, active_diag = _extended(f, conditioning, diag, [eta_first])

        d_z, d_zbar = _wirtinger(f, cd_zero, active, active_diag, bits)
        band = mpmath.ldexp(1, -(bits // 4))
        phase_case = "real-pair"
        theta = mpf(0)
        if d_z != 0:
            ratio = d_z / d_zbar
            unit = ratio / abs(ratio)
            if abs(unit - 1) < band:
                phase_case = "real-pair"
            elif abs(unit + 1) < band:
                phase_case = "imaginary-pair"
            else:
                phase_case = "split-pair"
                theta = mpmath.arg(ratio)
        cos_half = mpmath.cos(theta / 2)
        sin_half = mpmath.sin(theta / 2)

        radius = lead / 2
        for step in range(SHRINK_BUDGET):
            if phase_case == "real-pair":
                second, third = mpc(radius, 0), mpc(-radius, 0)
            elif phase_case == "imaginary-pair":
                second, third = mpc(0, radius), mpc(0, -radius)
            else:
                second, third = mpc(radius * cos_half, 0), mpc(0, radius * sin_half)
            candidate, candidate_diag = _extended(f, active, active_diag, [second, third])
            if candidate.cancellation_exceeds(bits / 2):
                raise _NeedMoreBits
            # the order 3p+2 difference over all 3p+3 nodes, as delta_table forms it
            achieved = abs(_raw(candidate_diag[-1]))
            if achieved >= target:
                record = StageRecord(
                    stage, eta_first, second, third, achieved, target, phase_case, step, bits
                )
                return record, candidate, candidate_diag
            radius = radius / 2
    raise _NeedMoreBits


def build_sequence(f, stages, policy=None):
    """Grow `stages` three-node stages, each verifying its target directly.

    Stage s picks a leading axis node small enough that the closed-form
    anti-holomorphic derivative of the extended divided difference clears
    s^s + 1, classifies the phase of d_z / d_zbar into a real pair, an
    imaginary pair, or a split real/imaginary pair at half the phase, and
    shrinks the pair radius until the order 3s-1 divided difference over
    all nodes so far has magnitude at least s^s. Raises
    UnsuitableKernelError when the kernel's conjugate derivative vanishes
    at 0 and ConstructionFailureError, carrying the completed stage log,
    when precision escalation exhausts policy.max_bits.
    """
    if policy is None:
        policy = EscalationPolicy()
    if not isinstance(policy, EscalationPolicy):
        raise ConfigError("policy must be an EscalationPolicy")
    if not isinstance(stages, int) or isinstance(stages, bool):
        raise DomainError("stages must be an integer")
    if stages < 1:
        raise DomainError("stages must be at least 1")
    if not isinstance(f, ScalarFunction):
        raise ConfigError("build_sequence needs a ScalarFunction kernel")
    if f.conj_derivative is None:
        raise ConfigError("kernel lacks a closed-form conjugate derivative")
    bits = policy.start_bits
    # the nodes so far and f's last diagonal over them, extended stage by
    # stage and formed again only when the bits double
    conditioning, diag = NodeConditioning((), bits), []
    log = []
    for stage in range(1, stages + 1):
        while True:
            try:
                record, conditioning, diag = _run_stage(f, conditioning, diag, stage, bits)
            except _NeedMoreBits:
                bits = bits * 2
                if bits > policy.max_bits:
                    raise ConstructionFailureError(
                        "stage %d stalled at the precision ceiling of %d bits"
                        % (stage, policy.max_bits),
                        tuple(log),
                    )
                with workprec(bits):
                    empty = NodeConditioning((), bits)
                    conditioning, diag = _extended(f, empty, [], conditioning.zs)
                continue
            break
        log.append(record)
    sequence = NodeSequence(conditioning.zs, bits)
    return AdversarialSequence(
        nodes=sequence,
        stage_log=tuple(log),
        kernel_kind=f.kind,
        precision_bits=bits,
    )


@dataclass(frozen=True)
class GrowthRow:
    """One recomputed stage certificate (1-based stage index)."""

    stage: int
    achieved: mpf
    target: int
    passed: bool
    note: str
    precision_bits: int


@dataclass(frozen=True)
class GrowthReport:
    """Recomputed stage certificates plus structural invariant checks."""

    rows: tuple

    @property
    def all_passed(self):
        return all(row.passed for row in self.rows)


def verify_growth(seq, f):
    """Recheck every stage certificate and structural invariant from scratch.

    Each stage is recomputed from a fresh divided-difference table at the
    logged precision plus 64 guard bits, over the node prefix rounded to
    those bits; one table over the longest such prefix serves every stage
    logged at that precision. Structural violations (missing
    nodes, off-axis members, broken modulus ordering) mark the stage failed
    with an explanatory note even when the magnitude clears the target.
    """
    if not isinstance(seq, AdversarialSequence):
        raise ConfigError("verify_growth needs an AdversarialSequence")
    rows = []
    available = len(seq.nodes)
    # each verification precision rounds its longest stage prefix once, which
    # rejects stage nodes that coincide at those bits, and forms its leading
    # column; stages slice both
    longest = {}
    for rec in seq.stage_log:
        if 3 * rec.stage <= available:
            bits = rec.precision_bits + 64
            longest[bits] = max(longest.get(bits, 0), 3 * rec.stage)
    heads = {}
    for bits, count in longest.items():
        zs = NodeSequence(seq.nodes.zs[:count], bits).zs
        with workprec(bits):
            values = [f.raw(z) for z in zs]
            heads[bits] = zs, _leading_column(values, NodeConditioning(zs, bits))
    for rec in seq.stage_log:
        stage = rec.stage
        target = stage**stage
        bits = rec.precision_bits + 64
        needed = 3 * stage
        if needed > available:
            rows.append(
                GrowthRow(stage, mpf(0), target, False, "missing stage nodes", bits)
            )
            continue
        notes = []
        with workprec(bits):
            # a product of nonzero mpf values never rounds to zero, so the
            # axis test is exact
            for offset in range(3):
                node = seq.nodes.zs[needed - 3 + offset]
                if node.real * node.imag != 0:
                    notes.append("node %d off-axis" % (needed - 2 + offset))
            zs, column = heads[bits]
            moduli = [abs(z) for z in zs[:needed]]
            lead = moduli[needed - 3]
            if not (0 < moduli[needed - 2] < lead and 0 < moduli[needed - 1] < lead):
                notes.append("pair moduli not inside the stage opening")
            earlier = moduli[: needed - 3]
            if earlier and not lead < min(earlier):
                notes.append("stage opening not below earlier moduli")
            if not lead < mpf(1) / (3 * stage - 2):
                notes.append("stage opening at or above 1/(3s-2)")
            achieved = abs(column[needed - 1])
        passed = not notes and achieved >= target
        rows.append(GrowthRow(stage, achieved, target, passed, "; ".join(notes), bits))
    return GrowthReport(tuple(rows))
