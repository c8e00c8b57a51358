"""Command-line driver: runs the verification pipelines and reports.

Every check is a step of one ordered registry, ``STEPS``.  A subcommand
runs the steps it owns that its flags select; ``all`` runs every step at
the default flags.  Each step's work, including the engine work it shares
with later steps, runs inside its own timer, and a crash in it is a
failed check.  The process exits 0 iff none failed.  ``--json`` writes a
machine-readable report whose content is deterministic apart from the
timing fields.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import conslaw, grpflow, jetsys, liealg, linsym, numcheck
from .expr import Expr, ExprError, indep, jet, param, parse, to_text

REPORT_SCHEMA = 1


class InputError(Exception):
    """A file named on the command line is missing or malformed."""


@contextlib.contextmanager
def _reading(path: str):
    """The text of an input file; a missing, unreadable or malformed one is an InputError."""
    try:
        yield Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from err
    except KeyError as err:
        raise InputError(f"{path}: no field {err}") from err
    except (ExprError, ValueError) as err:
        raise InputError(f"{path}: {err}") from err


def _write(path: str, text: str):
    """Write an output file; an unwritable path is an InputError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err.strerror}") from err


@dataclass
class Check:
    name: str
    status: str  # pass | fail | info
    detail: str = ""
    residual: float | None = None
    ms: float = 0.0


@dataclass
class Report:
    command: str
    inputs: str
    checks: list[Check] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "checks": [asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _inputs_digest() -> str:
    manifest = jetsys.write_manifest(jetsys.builtin_prolonged())
    return hashlib.sha256(manifest.encode()).hexdigest()[:16]


class Session:
    """The parsed flags of one run and the engine results several steps
    share.  A shared result is computed on first use, so its cost lands in
    the timer of the first step that needs it; if it raises, every step
    that needs it fails with the error."""

    def __init__(self, args: argparse.Namespace):
        self.args = args

    @cached_property
    def flow(self) -> dict[str, tuple[bool, str]]:
        return grpflow.verify_flow_properties(seed=self.args.seed)

    @cached_property
    def optimal(self) -> liealg.OptimalSystemReport:
        return liealg.verify_optimal_system(samples=self.args.samples, seed=self.args.seed)

    @cached_property
    def flux_pair(self) -> conslaw.DivergenceCheck:
        return conslaw.verify_divergence(
            conslaw.flux_pair(), numeric_points=self.args.numeric_points
        )


@dataclass(frozen=True)
class Step:
    """One entry of the registry.  ``work(session, key)`` returns
    ``(ok, detail, residual)`` for a check named ``name``, or a list of
    ``(name, detail)`` info notes.  ``when(args, key)`` says whether the
    flags select the step.  ``key`` is the work's argument, and the value
    ``--family``/``--generator`` pick the step by."""

    command: str  # the subcommand that owns it ("all" for steps only `all` runs)
    name: str
    work: Callable
    key: object = None
    when: Callable = lambda args, key: True


def _run(step: Step, session: Session, report: Report):
    """Time the step's work, turn a crash in it into a failed check, and
    add and print its checks."""
    start = time.perf_counter()
    try:
        outcome = step.work(session, step.key)
    except InputError:  # a bad input file ends the run with exit 2
        raise
    except Exception as err:  # a crashed check is a failed check
        outcome = False, f"error: {err}", None
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    if isinstance(outcome, list):  # info notes; the first carries the time
        checks = [Check(name, "info", detail) for name, detail in outcome]
        if checks:
            checks[0].ms = ms
    else:
        ok, detail, residual = outcome
        checks = [Check(step.name, "pass" if ok else "fail", detail, residual, ms)]
    for check in checks:
        report.checks.append(check)
        extra = f"  [{check.detail}]" if check.detail else ""
        print(f"{check.status.upper():4s} {check.name}{extra}")


# ---------------------------------------------------------------------------
# step work
# ---------------------------------------------------------------------------


def _leading_terms(e: Expr, width: int) -> str:
    """The text of ``e``'s leading whole terms, as many as fit in ``width``
    characters but at least one, and how many terms it leaves out."""
    terms = e.terms
    kept, text = 1, to_text(Expr(terms[:1]))
    while kept < len(terms):
        longer = to_text(Expr(terms[: kept + 1]))
        if len(longer) > width:
            break
        kept, text = kept + 1, longer
    left = len(terms) - kept
    return f"{text} ... ({left} more term{'s' * (left > 1)})" if left else text


def _residual_summary(residuals) -> tuple[bool, str, None]:
    """Pass iff every residual is 0; otherwise name each failing equation
    (its position among the checked equations) and its leading terms."""
    bad = [(i, r) for i, r in enumerate(residuals) if not r.is_zero()]
    if not bad:
        return True, "all residuals reduce to 0", None
    leads = "; ".join(f"equation {i}: {_leading_terms(r, 60)}" for i, r in bad)
    return False, f"{len(bad)} nonzero residuals: {leads}", None


def _flatness(s, _key):
    residuals = jetsys.cross_derivative_residuals(jetsys.builtin_prolonged())
    ok = all(r.is_zero() for r in residuals.values())
    detail = ", ".join(
        f"{name}: {'0' if r.is_zero() else _leading_terms(r, 40)}"
        for name, r in sorted(residuals.items())
    )
    return ok, detail, None


#: the note of both checks that read ``Session.flux_pair``
_FLUX_PAIR_NOTE = "one computation for potential-density-flux-pair and divergence-flux-pair"


def _divergence_result(chk: conslaw.DivergenceCheck, *notes: str):
    """``(ok, detail, residual)`` of a divergence check: the detail states
    the exact stage (with the leading terms of a residual that does not
    reduce to 0), then the numeric max and ``notes``; it starts with
    ``exact and numeric disagree`` when only one stage finds zero."""
    closure = "modulo the prolonged system and its adjoint"
    if chk.residual.is_zero():
        exact = f"reduces to 0 {closure}"
    else:
        exact = f"does not reduce to 0 {closure}: {_leading_terms(chk.residual, 60)}"
    detail = "; ".join((exact, f"numeric max {chk.numeric_max:.2e}", *notes))
    if chk.residual.is_zero() != (chk.numeric_max <= conslaw.NUMERIC_TOLERANCE):
        detail = f"exact and numeric disagree: {detail}"
    return chk.holds, detail, chk.numeric_max


def _potential_density(s, _key):
    return _divergence_result(s.flux_pair, _FLUX_PAIR_NOTE)


def _manifest_symmetry(s, _key):
    system = jetsys.builtin_prolonged()
    with _reading(s.args.manifest) as text:
        sigma = linsym.parse_symmetry_manifest(text, system)
    return _residual_summary(linsym.verify_symmetry(system, sigma).residuals)


# --family value -> the symmetry check it names, on the prolonged system
_SYMMETRIES = {
    "seed-pair": lambda system: linsym.verify_symmetry(
        system, linsym.seed_pair(), equations=(0, 1)
    ),
    "localized": lambda system: linsym.verify_symmetry(system, linsym.localized_characteristic()),
    "coupled-5": lambda system: linsym.coupled_family().verify(system),
    "prolonged-6": lambda system: linsym.prolonged_family().verify(system),
}


def _symmetry(s, key):
    check = _SYMMETRIES[key](jetsys.builtin_prolonged())
    ok, detail, residual = _residual_summary(check.residuals)
    if key == "coupled-5":  # xi_x and eta_u divide by beta
        detail += " (beta != 0)"
    return ok, detail, residual


def _flipped_family_rejected(s, _key):
    chk = linsym.prolonged_family(flip_psi_eta=True).verify(jetsys.builtin_prolonged())
    detail = "variant rejected as expected" if not chk.holds else "variant unexpectedly verified"
    return not chk.holds, detail, None


def _seed_residual_orders(s, _key):
    residuals, orders = numcheck.transformed_residual_orders(epsilon=s.args.epsilon)
    shown = f"u and v equations: residuals {['%.2e' % r for r in residuals]}"
    if min(residuals) < sys.float_info.min:  # their ratios are rounding, not truncation error
        return False, f"{shown} are subnormal: no order measured", residuals[-1]
    return (
        all(1.7 <= o <= 2.3 for o in orders),
        f"{shown} orders {['%.2f' % o for o in orders]}",
        residuals[-1],
    )


def _grid(s, _key):
    args = s.args
    with _reading(args.grid) as text:
        grid = numcheck.read_grid(text)
        moved = dataclasses.replace(grid, fields=grpflow.map_solution(grid.fields, args.epsilon))
        residual = numcheck.pde_residual(moved)
    notes = []
    if args.out:
        _write(args.out, numcheck.write_grid(moved))
        notes.append(("transformed-grid-written", args.out))
    notes.append(("transformed-grid-residual", f"u and v equations: {residual:.3e}"))
    return notes


def _structure(s, _key):
    table = s.optimal.table
    table.sl2  # g1, g2, g3 bracket as sl(2), or ExprError names the first that does not
    for i, j in itertools.combinations(range(len(table.basis)), 2):
        if j >= 3 and (i, j) in table.constants:
            return False, f"unexpected bracket [{table.labels[i]},{table.labels[j]}]", None
    return True, "brackets: [g1,g2]=g2, [g1,g3]=-g3, [g2,g3]=-2g1, rest 0", None


def _structure_json(s, _key):
    table = s.optimal.table
    n = len(table.basis)
    payload = {
        f"[{table.labels[i]},{table.labels[j]}]":
            [str(table.constants.get((i, j), {}).get(k, 0)) for k in range(n)]
        for i, j in itertools.combinations(range(n), 2)
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return []


_GENERATOR_NAMES = ("g1", "g2", "g3", "g4", "g5", "g6")


def _divergence(s, generator):
    if generator == "flux-pair":
        return _divergence_result(s.flux_pair, _FLUX_PAIR_NOTE, s.flux_pair.nontrivial)
    if generator == "family":
        vf = liealg.family_vector_field()
    else:
        vf = liealg.standard_generators()[_GENERATOR_NAMES.index(generator)]
    chk = conslaw.verify_divergence(
        conslaw.conserved_vector(vf), numeric_points=s.args.numeric_points
    )
    return _divergence_result(chk, chk.nontrivial)


def _transcription(s, _key):
    with _reading(s.args.diagnose_transcription) as text:
        residuals = conslaw.transcription_residual(text)
    return [
        (f"transcription-{key}", "matches" if r.is_zero() else f"differs: {_leading_terms(r, 80)}")
        for key, r in residuals.items()
    ]


def _manifest_roundtrip(s, builtin):
    system = builtin()
    manifest = jetsys.write_manifest(system)
    if s.args.command == "corpus":  # `all` runs the round trip without printing
        print(f"# system {system.name}")
        print(manifest)
    back = jetsys.parse_manifest(manifest, name=system.name)
    ok = back.equations == system.equations and back.solved_forms == system.solved_forms
    return ok, "re-parsed manifest reproduces the system", None


KERNEL_CASES = 100
_KERNEL_POOL = (param("alpha"), param("beta"), indep("x"), indep("t"), jet("u"),
                jet("v", "x"), jet("phi"), jet("m3"), jet("psi", "t"))


def _random_poly(rng) -> Expr:
    total = Expr.ZERO
    for _ in range(rng.randint(1, 4)):
        term = Expr.from_scalar(rng.randint(-5, 5))
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice(_KERNEL_POOL) ** rng.randint(1, 2)
        total = total + term
    return total


def _rebuilds_to_itself(e: Expr, rng: random.Random) -> bool:
    """Normal form: ``e`` equals the sum of its terms, each rebuilt as its
    coefficient times its atom powers, added in a shuffled order."""
    terms = []
    for mono, coeff in e.terms:
        term = Expr.from_scalar(coeff)
        for a, n in mono:
            term = term * Expr.atom(a) ** n
        terms.append(term)
    rng.shuffle(terms)
    return sum(terms, Expr.ZERO) == e


def _kernel_properties(s, _key):
    """Randomized kernel checks: derivative commutation, variational
    annihilation of divergences, order-independent normal form, print
    round trip."""
    rng = random.Random(s.args.seed)
    shuffle_rng = random.Random(s.args.seed)  # keeps the cases ``rng`` draws
    failures = 0
    for _ in range(KERNEL_CASES):
        e = _random_poly(rng)
        if not (
            e.total_derivative("x").total_derivative("t")
            - e.total_derivative("t").total_derivative("x")
        ).is_zero():
            failures += 1
        if not _rebuilds_to_itself(e, shuffle_rng):
            failures += 1
        if parse(to_text(e)) != e:
            failures += 1
        divergence = _random_poly(rng).total_derivative("x") + _random_poly(
            rng
        ).total_derivative("t")
        for name in ("u", "v", "phi", "m3"):
            if not conslaw.euler_lagrange(divergence, name).is_zero():
                failures += 1
    return failures == 0, f"{KERNEL_CASES} random cases per property, {failures} failures", None


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def _by_family(args, key) -> bool:
    """--family picks one; without it every family but the negative control."""
    if args.manifest:
        return False
    return args.family == key if args.family else key != "prolonged-6-flipped"


STEPS = (
    Step("zero-curvature", "flatness-of-linear-problem", _flatness),
    Step("zero-curvature", "potential-density-flux-pair", _potential_density),
    Step("verify-symmetry", "manifest-characteristic", _manifest_symmetry,
         when=lambda args, key: bool(args.manifest)),
    Step("verify-symmetry", "seed-pair-on-evolution-equations", _symmetry, "seed-pair", _by_family),
    Step("verify-symmetry", "localized-five-component", _symmetry, "localized", _by_family),
    Step("verify-symmetry", "family-coupled-5", _symmetry, "coupled-5", _by_family),
    Step("verify-symmetry", "family-prolonged-6", _symmetry, "prolonged-6", _by_family),
    Step("verify-symmetry", "family-prolonged-6-flipped-rejected", _flipped_family_rejected,
         "prolonged-6-flipped", _by_family),
    *(
        Step("finite-transform", name, lambda s, key: (*s.flow[key], None), name)
        for name in (
            "flow-ode-consistency",
            "flow-group-law",
            "flow-identity-at-zero",
            "flow-infinitesimal-generator",
            "sign-variant-fails-group-law",
            "flow-matches-ode-oracle",
        )
    ),
    Step("finite-transform", "transformed-seed-residual-order", _seed_residual_orders,
         when=lambda args, key: not args.grid),
    Step("finite-transform", "transformed-grid", _grid, when=lambda args, key: bool(args.grid)),
    Step("optimal-system", "structure-table", _structure),
    Step("optimal-system", "central-elements",
         lambda s, _: (s.optimal.central == ("g4", "g5", "g6"), ", ".join(s.optimal.central), None)),
    Step("optimal-system", "normalization-sample", lambda s, _: (
        s.optimal.all_verified,
        f"{len(s.optimal.records)} random triples reached their representative exactly, "
        "trace form kept up to scale^2",
        None,
    )),
    Step("optimal-system", "orbit-separation",
         lambda s, _: [("orbit-separation", note) for note in s.optimal.separation_notes]),
    Step("optimal-system", "structure-json", _structure_json,
         when=lambda args, key: args.json_structure),
    *(
        Step("conservation", f"divergence-{g}", _divergence, g,
             lambda args, key: args.generator in (None, key))
        for g in (*_GENERATOR_NAMES, "family", "flux-pair")
    ),
    Step("conservation", "transcription", _transcription,
         when=lambda args, key: bool(args.diagnose_transcription)),
    Step("corpus", "manifest-roundtrip-hirota", _manifest_roundtrip, jetsys.builtin_hirota),
    Step("corpus", "manifest-roundtrip-prolonged", _manifest_roundtrip, jetsys.builtin_prolonged),
    Step("all", "kernel-properties", _kernel_properties),
)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    """argparse type of a sample size: an integer >= 1, so that no check
    passes on an empty sample."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def finite_float(text: str) -> float:
    """argparse type of the flow parameter: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def nonempty_path(text: str) -> str:
    """argparse type of a file path: nonempty, never read as flag-not-given."""
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty path")
    return text


def build_parser() -> argparse.ArgumentParser:
    # one parent parser per shared flag, given only to the subcommands that read it
    report, seed, points = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    report.add_argument("--json", type=nonempty_path, metavar="PATH", help="write a JSON report")
    seed.add_argument("--seed", type=int, default=7, help="seed for randomized checks")
    points.add_argument(
        "--numeric-points", type=positive_int, default=10,
        help="consistent points per numeric divergence check",
    )

    parser = argparse.ArgumentParser(
        prog="symflow",
        description="verification engine for the coupled Hirota system's "
        "nonlocal symmetry structure and conservation laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("zero-curvature", parents=[report, points],
                   help="compatibility of the linear problem")

    p = sub.add_parser("verify-symmetry", parents=[report],
                       help="check characteristics and families")
    picked = p.add_mutually_exclusive_group()
    picked.add_argument("--family", choices=[*_SYMMETRIES, "prolonged-6-flipped"])
    picked.add_argument("--manifest", type=nonempty_path,
                        help="file with a [symmetry] section of sigma_<dep> lines")

    p = sub.add_parser("finite-transform", parents=[report, seed],
                       help="closed-form flow checks and grid mapping")
    p.add_argument("--epsilon", type=finite_float, default=numcheck.DEFAULT_EPSILON)
    p.add_argument("--grid", type=nonempty_path, help="grid file to transform")
    p.add_argument("--out", type=nonempty_path,
                   help="where to write the transformed grid (needs --grid)")

    p = sub.add_parser("optimal-system", parents=[report, seed],
                       help="structure table and subalgebra classification")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--json-structure", action="store_true", help="print structure constants as JSON")

    p = sub.add_parser("conservation", parents=[report, points],
                       help="conserved vectors and divergence checks")
    p.add_argument("--generator", choices=[*_GENERATOR_NAMES, "family", "flux-pair"])
    p.add_argument("--diagnose-transcription", type=nonempty_path, metavar="PATH",
                   help="compare a T1/T2 transcription file against the computed family vector")

    sub.add_parser("corpus", parents=[report], help="emit the built-in system manifests")

    # `all` runs with every subcommand's defaults.
    defaults = {k: v for p in sub.choices.values() for k, v in vars(p.parse_args([])).items()}
    p = sub.add_parser("all", parents=[report, seed, points], help="run the full verification suite")
    p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) and not args.grid:
        parser.error("finite-transform: --out needs --grid, the grid to transform")
    if args.command == "finite-transform" and args.epsilon == 0 and not args.grid:
        parser.error("finite-transform: --epsilon 0 leaves the seed unmoved, so its residual "
                     "orders are 0/0; it needs --grid, a grid to map by the identity")
    try:
        report = Report(command=args.command, inputs=_inputs_digest())
        session = Session(args)
        for step in STEPS:
            if args.command in ("all", step.command) and step.when(args, step.key):
                _run(step, session, report)
        sys.stdout.flush()
        if args.json:
            _write(args.json, report.to_json())
    except InputError as err:
        print(f"symflow: error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``symflow all | head``): stop without a
        # traceback, and send the interpreter's final flush to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
