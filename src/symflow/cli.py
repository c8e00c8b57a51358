"""Command-line driver: runs the verification pipelines and reports.

Every subcommand produces a list of named checks; the process exits 0
iff none failed.  ``--json`` writes a machine-readable report whose
content is deterministic apart from the timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from . import conslaw, grpflow, jetsys, liealg, linsym, numcheck
from .expr import Expr, ExprError, parse, to_text

REPORT_SCHEMA = 1


class InputError(Exception):
    """A file named on the command line is missing or malformed."""


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror}") from err


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
    schema: int = REPORT_SCHEMA

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "command": self.command,
            "inputs": self.inputs,
            "checks": [asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _inputs_digest() -> str:
    manifest = jetsys.write_manifest(jetsys.builtin_prolonged())
    return hashlib.sha256(manifest.encode()).hexdigest()[:16]


class Runner:
    def __init__(self, report: Report, quiet: bool = False):
        self.report = report
        self.quiet = quiet

    def run(self, name: str, fn, detail_on_pass: str = ""):
        start = time.perf_counter()
        try:
            ok, detail, residual = fn()
        except Exception as err:  # a crashed check is a failed check
            ok, detail, residual = False, f"error: {err}", None
        ms = (time.perf_counter() - start) * 1000.0
        status = "pass" if ok else "fail"
        check = Check(name=name, status=status, detail=detail or detail_on_pass,
                      residual=residual, ms=round(ms, 3))
        self.report.checks.append(check)
        if not self.quiet:
            extra = f"  [{check.detail}]" if check.detail else ""
            print(f"{status.upper():4s} {name}{extra}")
        return ok

    def info(self, name: str, detail: str):
        self.report.checks.append(Check(name=name, status="info", detail=detail))
        if not self.quiet:
            print(f"INFO {name}  [{detail}]")


# ---------------------------------------------------------------------------
# subcommand pipelines
# ---------------------------------------------------------------------------


def _residual_summary(residuals) -> tuple[bool, str, float]:
    bad = [r for r in residuals if not r.is_zero()]
    detail = "all residuals reduce to 0" if not bad else f"{len(bad)} nonzero residuals"
    return not bad, detail, None


def cmd_zero_curvature(args, runner: Runner):
    system = jetsys.builtin_prolonged()

    def check():
        residuals = jetsys.cross_derivative_residuals(system)
        ok = all(r.is_zero() for r in residuals.values())
        detail = ", ".join(
            f"{name}: {'0' if r.is_zero() else to_text(r)[:40]}"
            for name, r in sorted(residuals.items())
        )
        return ok, detail, None

    runner.run("flatness-of-linear-problem", check)

    def f_pair():
        chk = conslaw.verify_divergence(conslaw.flux_pair(), numeric_points=args.numeric_points)
        return chk.holds, f"numeric max {chk.numeric_max:.2e}", chk.numeric_max

    runner.run("potential-density-flux-pair", f_pair)


_FAMILIES = {
    "coupled-5": lambda: linsym.coupled_family(),
    "prolonged-6": lambda: linsym.prolonged_family(),
    "prolonged-6-flipped": lambda: linsym.prolonged_family(flip_psi_eta=True),
}


def cmd_verify_symmetry(args, runner: Runner):
    system = jetsys.builtin_prolonged()
    if args.manifest:
        try:
            sigma = _sigma_from_manifest(_read_input(args.manifest), system)
        except (ExprError, ValueError) as err:
            raise InputError(f"{args.manifest}: {err}") from err
        runner.run(
            "manifest-characteristic",
            lambda: _residual_summary(
                linsym.verify_symmetry(system, sigma).residuals
            ),
        )
        return

    if args.family in (None, "seed-pair"):
        runner.run(
            "seed-pair-on-evolution-equations",
            lambda: _residual_summary(
                linsym.verify_symmetry(system, linsym.seed_pair(), equations=(0, 1)).residuals
            ),
        )
    if args.family in (None, "localized"):
        runner.run(
            "localized-five-component",
            lambda: _residual_summary(
                linsym.verify_symmetry(system, linsym.localized_characteristic()).residuals
            ),
        )
    if args.family in (None, "coupled-5", "prolonged-6"):
        names = [args.family] if args.family else ["coupled-5", "prolonged-6"]
        for name in names:
            family = _FAMILIES[name]()
            runner.run(
                f"family-{name}",
                lambda fam=family: _residual_summary(fam.verify(system).residuals),
            )
    if args.family == "prolonged-6-flipped":
        family = _FAMILIES[args.family]()

        def negative_control():
            chk = family.verify(system)
            return not chk.holds, "variant rejected as expected" if not chk.holds else "variant unexpectedly verified", None

        runner.run("family-prolonged-6-flipped-rejected", negative_control)


def _sigma_from_manifest(text: str, system) -> linsym.SymmetryCandidate:
    components = {}
    in_section = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            in_section = line == "[symmetry]"
            continue
        if not in_section:
            continue
        key, sep, rhs = line.partition("=")
        key = key.strip()
        if not sep or not key.startswith("sigma_"):
            raise ValueError(f"bad symmetry line '{line}' (want 'sigma_<dep> = expr')")
        components[key[len("sigma_"):]] = parse(rhs.strip(), system.vocabulary)
    if not components:
        raise ValueError("manifest has no [symmetry] section")
    return linsym.SymmetryCandidate(components)


def cmd_finite_transform(args, runner: Runner):
    for check in grpflow.verify_flow_properties(seed=args.seed):
        runner.run(check.name, lambda c=check: (c.ok, c.detail, None))
    if args.check_group_law:
        law = grpflow.flow_group_law()
        runner.run("group-law-recheck", lambda: (all(law.values()), str(law), None))
    if args.grid:
        try:
            grid = numcheck.read_grid(_read_input(args.grid))
            moved = dataclasses.replace(
                grid, fields=grpflow.map_solution(grid.fields, args.epsilon)
            )
            residual = numcheck.pde_residual(moved, "u")
        except KeyError as err:
            raise InputError(f"{args.grid}: no field {err}") from err
        except (ExprError, ValueError) as err:
            raise InputError(f"{args.grid}: {err}") from err
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(numcheck.write_grid(moved))
            runner.info("transformed-grid-written", args.out)
        runner.info("transformed-grid-residual", f"{residual:.3e}")
    else:
        residuals, orders = numcheck.transformed_residual_orders(epsilon=args.epsilon)
        runner.run(
            "transformed-seed-residual-order",
            lambda: (
                all(1.7 <= o <= 2.3 for o in orders),
                f"residuals {['%.2e' % r for r in residuals]} orders {['%.2f' % o for o in orders]}",
                residuals[-1],
            ),
        )


def cmd_optimal_system(args, runner: Runner):
    report = liealg.verify_optimal_system(samples=args.samples, seed=args.seed)
    table = report.table

    def structure():
        expected = {
            (0, 1): (0, 1, 0, 0, 0, 0),
            (0, 2): (0, 0, -1, 0, 0, 0),
            (1, 2): (-2, 0, 0, 0, 0, 0),
        }
        for (i, j), coords in table.table.items():
            want = expected.get((i, j), (0,) * 6)
            for c, w in zip(coords, want):
                if not (c == w):
                    return False, f"unexpected bracket [{table.labels[i]},{table.labels[j]}]", None
        return True, "brackets: [g1,g2]=g2, [g1,g3]=-g3, [g2,g3]=-2g1, rest 0", None

    runner.run("structure-table", structure)
    runner.run(
        "central-elements",
        lambda: (report.central == ("g4", "g5", "g6"), ", ".join(report.central), None),
    )
    runner.run(
        "normalization-sample",
        lambda: (
            report.all_verified,
            f"{len(report.records)} random triples normalized with <= 3 adjoint maps",
            None,
        ),
    )
    for note in report.separation_notes:
        runner.info("orbit-separation", note)
    if args.json_structure:
        payload = {
            f"[{table.labels[i]},{table.labels[j]}]": [str(Expr.from_scalar(c)) for c in coords]
            for (i, j), coords in sorted(table.table.items())
        }
        print(json.dumps(payload, indent=2, sort_keys=True))


_GENERATOR_NAMES = ("g1", "g2", "g3", "g4", "g5", "g6")


def cmd_conservation(args, runner: Runner):
    basis = liealg.standard_generators()
    selected = args.generator or "all"
    pairs: list[tuple[str, object]] = []
    if selected == "all":
        pairs = list(zip(_GENERATOR_NAMES, basis))
        pairs.append(("family", liealg.family_vector_field()))
        pairs.append(("flux-pair", None))
    elif selected == "family":
        pairs = [("family", liealg.family_vector_field())]
    elif selected == "flux-pair":
        pairs = [("flux-pair", None)]
    else:
        index = _GENERATOR_NAMES.index(selected)
        pairs = [(selected, basis[index])]

    for name, generator in pairs:
        def check(gen=generator):
            cv = conslaw.flux_pair() if gen is None else conslaw.conserved_vector(gen)
            chk = conslaw.verify_divergence(cv, numeric_points=args.numeric_points)
            return chk.holds, f"numeric max {chk.numeric_max:.2e}; {chk.nontrivial}", chk.numeric_max

        runner.run(f"divergence-{name}", check)

    if args.diagnose_transcription:
        try:
            residuals = conslaw.transcription_residual(_read_input(args.diagnose_transcription))
        except ExprError as err:
            raise InputError(f"{args.diagnose_transcription}: {err}") from err
        for key, residual in residuals.items():
            status = "matches" if residual.is_zero() else f"differs: {to_text(residual)[:80]}"
            runner.info(f"transcription-{key}", status)


def cmd_corpus(args, runner: Runner):
    for system in (jetsys.builtin_hirota(), jetsys.builtin_prolonged()):
        manifest = jetsys.write_manifest(system)
        if not args.quiet_manifest:
            print(f"# system {system.name}")
            print(manifest)

        def roundtrip(s=system, m=manifest):
            back = jetsys.parse_manifest(m, name=s.name)
            ok = back.equations == s.equations and back.solved_forms == s.solved_forms
            return ok, "re-parsed manifest reproduces the system", None

        runner.run(f"manifest-roundtrip-{system.name}", roundtrip)


def cmd_kernel_properties(args, runner: Runner, cases: int = 100):
    """Randomized kernel checks: derivative commutation, variational
    annihilation of divergences, idempotent normal form, print round trip."""
    import random

    from . import expr as expr_mod
    from .expr import JetCoordinate, canonicalize

    pool = (
        expr_mod.Parameter("alpha"),
        expr_mod.Parameter("beta"),
        expr_mod.IndependentVariable("x"),
        expr_mod.IndependentVariable("t"),
        JetCoordinate("u"),
        JetCoordinate("v", ("x",)),
        JetCoordinate("phi"),
        JetCoordinate("m3"),
        JetCoordinate("psi", ("t",)),
    )

    def random_poly(rng):
        total = Expr.ZERO
        for _ in range(rng.randint(1, 4)):
            term = Expr.from_scalar(rng.randint(-5, 5))
            for _ in range(rng.randint(0, 3)):
                term = term * Expr.atom(rng.choice(pool)) ** rng.randint(1, 2)
            total = total + term
        return total

    def check():
        rng = random.Random(args.seed)
        failures = 0
        for _ in range(cases):
            e = random_poly(rng)
            if not (
                e.total_derivative("x").total_derivative("t")
                - e.total_derivative("t").total_derivative("x")
            ).is_zero():
                failures += 1
            if canonicalize(canonicalize(e)) != canonicalize(e):
                failures += 1
            if parse(to_text(e)) != e:
                failures += 1
            divergence = random_poly(rng).total_derivative("x") + random_poly(
                rng
            ).total_derivative("t")
            for name in ("u", "v", "phi", "m3"):
                if not conslaw.euler_lagrange(divergence, name).is_zero():
                    failures += 1
        return failures == 0, f"{cases} random cases per property, {failures} failures", None

    runner.run("kernel-properties", check)


def cmd_all(args, runner: Runner):
    cmd_zero_curvature(args, runner)
    args_sym = argparse.Namespace(family=None, manifest=None)
    cmd_verify_symmetry(args_sym, runner)
    args_flow = argparse.Namespace(
        seed=args.seed, check_group_law=False, grid=None, out=None,
        epsilon=numcheck.DEFAULT_EPSILON,
    )
    cmd_finite_transform(args_flow, runner)
    args_opt = argparse.Namespace(samples=100, seed=args.seed, json_structure=False)
    cmd_optimal_system(args_opt, runner)
    args_cons = argparse.Namespace(
        generator="all", numeric_points=args.numeric_points, diagnose_transcription=None
    )
    cmd_conservation(args_cons, runner)
    args_corpus = argparse.Namespace(quiet_manifest=True)
    cmd_corpus(args_corpus, runner)
    cmd_kernel_properties(args, runner)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write a JSON report")
    common.add_argument("--seed", type=int, default=7, help="seed for randomized checks")
    common.add_argument(
        "--numeric-points", type=int, default=10,
        help="consistent points per numeric divergence check",
    )
    common.add_argument(
        "--max-passes", type=_positive_int, default=jetsys.DEFAULT_MAX_PASSES,
        help="substitution passes one on-shell reduction may make "
        "(guards against ill-formed solved forms)",
    )

    parser = argparse.ArgumentParser(
        prog="symflow",
        description="verification engine for the coupled Hirota system's "
        "nonlocal symmetry structure and conservation laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("zero-curvature", parents=[common],
                   help="compatibility of the linear problem")

    p = sub.add_parser("verify-symmetry", parents=[common],
                       help="check characteristics and families")
    p.add_argument(
        "--family",
        choices=["seed-pair", "localized", "coupled-5", "prolonged-6", "prolonged-6-flipped"],
    )
    p.add_argument("--manifest", help="file with a [symmetry] section of sigma_<dep> lines")

    p = sub.add_parser("finite-transform", parents=[common],
                       help="closed-form flow checks and grid mapping")
    p.add_argument("--epsilon", type=float, default=numcheck.DEFAULT_EPSILON)
    p.add_argument("--grid", help="grid file to transform")
    p.add_argument("--out", help="where to write the transformed grid")
    p.add_argument("--check-group-law", action="store_true")

    p = sub.add_parser("optimal-system", parents=[common],
                       help="structure table and subalgebra classification")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--json-structure", action="store_true", help="print structure constants as JSON")

    p = sub.add_parser("conservation", parents=[common],
                       help="conserved vectors and divergence checks")
    p.add_argument("--generator", choices=list(_GENERATOR_NAMES) + ["family", "flux-pair", "all"])
    p.add_argument("--diagnose-transcription", metavar="PATH",
                   help="compare a T1/T2 transcription file against the computed family vector")

    p = sub.add_parser("corpus", parents=[common],
                       help="emit the built-in system manifests")
    p.add_argument("--quiet-manifest", action="store_true")

    sub.add_parser("all", parents=[common], help="run the full verification suite")
    return parser


_DISPATCH = {
    "zero-curvature": cmd_zero_curvature,
    "verify-symmetry": cmd_verify_symmetry,
    "finite-transform": cmd_finite_transform,
    "optimal-system": cmd_optimal_system,
    "conservation": cmd_conservation,
    "corpus": cmd_corpus,
    "all": cmd_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    default_cap = jetsys.DEFAULT_MAX_PASSES
    jetsys.DEFAULT_MAX_PASSES = args.max_passes
    try:
        report = Report(command=args.command, inputs=_inputs_digest())
        _DISPATCH[args.command](args, Runner(report))
    except InputError as err:
        print(f"symflow: error: {err}", file=sys.stderr)
        return 2
    finally:
        jetsys.DEFAULT_MAX_PASSES = default_cap
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
