"""Evolution PDE systems with solved forms and on-shell reduction.

Ships the built-in corpus.  Two statements are typed: the coupled
Hirota equations, and their Lax pair U = [[-I*lambda, u], [v, I*lambda]],
V = [[A, B], [C, -A]].  The prolonged system's auxiliary solved forms
are derived from the pair: for M = [[a, b], [c, -a]], U along x and V
along t, (phi, psi)_d = M (phi, psi) and the potential f has
f_d = I*a_lambda*phi*psi + (I/2)*b_lambda*psi^2 - (I/2)*c_lambda*phi^2,
with _lambda the partial derivative in lambda (so f_x = phi*psi).
Reduction rewrites an expression modulo the solved forms and their
prolongations, so that no eliminable jet coordinate remains.
"""

from __future__ import annotations

import contextlib
import math
import random
from collections import Counter
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping

from .expr import (
    Atom,
    Expr,
    ExpFactor,
    ExprError,
    JetCoordinate,
    Parameter,
    Vocabulary,
    declarable,
    jet,
    param,
    parse,
    to_text,
)


class ReductionError(ExprError):
    """A solved form depends on itself, so reduction has no fixed point."""


class ManifestError(ExprError):
    pass


# ---------------------------------------------------------------------------
# solved-form closure
# ---------------------------------------------------------------------------


class SolvedFormClosure:
    """Base solved forms plus lazily generated, fully reduced prolongations.

    A jet is *reducible* when some solved key has the same dependent name
    and an index that is a sub-multiset of the jet's index; the rule for it
    is the corresponding prolongation of the base rule, itself reduced to a
    fixed point before use.  When several base keys apply, the one with the
    fewest t-entries wins (then the most specific), which makes reduction
    deterministic for overdetermined pairs like the x- and t-rules of the
    eigenfunctions.
    """

    def __init__(self, solved: Mapping[JetCoordinate, Expr]):
        self._solved = dict(solved)
        self._rules: dict[JetCoordinate, Expr] = {}
        self._bases: dict[JetCoordinate, JetCoordinate | None] = {}
        self._in_progress: set[JetCoordinate] = set()
        self._by_name: dict[str, list[JetCoordinate]] = {}
        for key in self._solved:
            self._by_name.setdefault(key.name, []).append(key)

    def base_key(self, coordinate: JetCoordinate) -> JetCoordinate | None:
        """The solved key whose prolongation is ``coordinate``'s rule, or None
        for an irreducible jet; searched once per coordinate."""
        try:
            return self._bases[coordinate]
        except KeyError:
            index = Counter(coordinate.index)
        candidates = [
            key for key in self._by_name.get(coordinate.name, ())
            if not Counter(key.index) - index
        ]
        base = self._bases[coordinate] = min(
            candidates,
            key=lambda k: (k.index.count("t"), -len(k.index), k.index),
            default=None,
        )
        return base

    def rule(self, coordinate: JetCoordinate) -> Expr | None:
        """The reduced rule for a reducible jet, or None for an irreducible
        one; a solved form that needs its own rule raises ReductionError."""
        cached = self._rules.get(coordinate)
        if cached is not None:
            return cached
        base = self.base_key(coordinate)
        if base is None:
            return None
        if coordinate in self._in_progress:
            raise ReductionError(f"cyclic solved-form dependency at {coordinate}")
        self._in_progress.add(coordinate)
        try:
            expr = self.reduce(self._solved[base])
            extra = Counter(coordinate.index) - Counter(base.index)
            directions = sorted(extra.elements(), key=lambda d: d != "x")
            for direction in directions:
                expr = self.reduce(expr.total_derivative(direction))
        finally:
            self._in_progress.discard(coordinate)
        self._rules[coordinate] = expr
        return expr

    def reduce(self, e: Expr) -> Expr:
        """Replace every reducible jet, inside Exp arguments too, by its rule
        in one substitution.  Every rule is itself a reduction, so it holds
        no reducible jet and the result holds none either."""
        mapping = {}
        for a in e.atoms():
            if isinstance(a, JetCoordinate):
                rule = self.rule(a)
                if rule is not None:
                    mapping[a] = rule
        return e.substitute(mapping) if mapping else e


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


class PdeSystem:
    """Immutable evolution system: equations plus isolated leading derivatives."""

    def __init__(
        self,
        name: str,
        independents: Iterable[str],
        dependents: Iterable[tuple[str, int]],
        parameters: Iterable[str],
        equations: Iterable[Expr],
        solved_forms: Mapping[JetCoordinate, Expr],
    ):
        self.name = name
        self.independents = tuple(independents)
        self.dependents = tuple(dependents)
        self.parameters = tuple(parameters)
        self.equations = tuple(equations)
        self.solved_forms = dict(solved_forms)
        self._check_well_formed()

    @property
    def dependent_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dependents)

    @cached_property
    def closure(self) -> SolvedFormClosure:
        return SolvedFormClosure(self.solved_forms)

    @cached_property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(self.independents, self.dependent_names, self.parameters)

    def _check_well_formed(self):
        orders = dict(self.dependents)
        jets = [(f"equation {i}", a) for i, e in enumerate(self.equations) for a in e.jet_atoms()]
        for key, rhs in self.solved_forms.items():
            jets.append(("a solved key", key))
            for a in rhs.jet_atoms():
                if self.closure.base_key(a) is not None:
                    raise ExprError(f"solved form for {key} is not resolved: rhs contains {a}")
                jets.append((f"the solved form for {key}", a))
        for where, a in jets:
            if len(a.index) > orders.get(a.name, -1):
                raise ExprError(f"{a} in {where} is above the declared order {orders.get(a.name)}")
        for i, equation in enumerate(self.equations):
            if not self.reduce(equation).is_zero():
                raise ExprError(f"equation {i} does not vanish on its solved forms")

    def reduce(self, e: Expr) -> Expr:
        return self.closure.reduce(e)

    def __repr__(self):
        return f"<PdeSystem {self.name}: {len(self.equations)} equations>"


# ---------------------------------------------------------------------------
# built-in corpus
# ---------------------------------------------------------------------------

_EVOLUTION_EQUATIONS = (
    "I*Diff(u,t) + alpha*(Diff(u,x,x) - 2*u^2*v) + I*beta*(Diff(u,x,x,x) - 6*u*v*Diff(u,x))",
    "I*Diff(v,t) - alpha*(Diff(v,x,x) - 2*v^2*u) + I*beta*(Diff(v,x,x,x) - 6*u*v*Diff(v,x))",
)

Matrix = tuple[tuple[Expr, Expr], tuple[Expr, Expr]]  # a tuple of two rows


@cache
def lax_pair() -> tuple[Matrix, Matrix]:
    """The Lax pair (U, V) of the Hirota system: (phi, psi)_x = U (phi, psi)
    and (phi, psi)_t = V (phi, psi), with U = [[-I*lambda, u], [v, I*lambda]]
    and V = [[A, B], [C, -A]].  Their zero curvature is the system."""
    a, b, c = (parse(text) for text in (
        "-4*beta*I*lambda^3 - 2*alpha*I*lambda^2 - 2*beta*I*u*v*lambda"
        " - alpha*I*u*v + beta*(v*Diff(u,x) - u*Diff(v,x))",
        "4*beta*u*lambda^2 + (2*beta*I*Diff(u,x) + 2*alpha*u)*lambda"
        " + alpha*I*Diff(u,x) - beta*(Diff(u,x,x) - 2*u^2*v)",
        "4*beta*v*lambda^2 - (2*beta*I*Diff(v,x) - 2*alpha*v)*lambda"
        " - alpha*I*Diff(v,x) - beta*(Diff(v,x,x) - 2*v^2*u)",
    ))
    i_lambda = Expr.I * param("lambda")
    return ((-i_lambda, jet("u")), (jet("v"), i_lambda)), ((a, b), (c, -a))


def _solved_key(text: str, vocabulary: Vocabulary) -> JetCoordinate:
    """The jet a solved form isolates: ``text`` must be one bare jet."""
    e = parse(text, vocabulary)
    atoms = list(e.atoms())
    if len(atoms) != 1 or not isinstance(atoms[0], JetCoordinate) or e != Expr.atom(atoms[0]):
        raise ManifestError(f"solved-form key must be a bare jet: '{text}'")
    return atoms[0]


def solve_for(equation: Expr, target: JetCoordinate) -> Expr:
    """The solved form of ``equation = 0`` for ``target``, whose coefficient
    c in ``equation`` must be a nonzero constant: target - equation / c."""
    coefficient = equation.diff(target)
    if not coefficient.is_constant() or coefficient.is_zero():
        raise ExprError(
            f"cannot isolate {target}: coefficient {coefficient} is not a nonzero constant"
        )
    return Expr.atom(target) - equation / coefficient


@cache
def builtin_hirota() -> PdeSystem:
    """The coupled third-order evolution system with dependents u, v,
    solved for u_t and v_t."""
    equations = [parse(s) for s in _EVOLUTION_EQUATIONS]
    targets = (JetCoordinate("u", ("t",)), JetCoordinate("v", ("t",)))
    return PdeSystem(
        name="hirota",
        independents=("t", "x"),
        dependents=(("u", 3), ("v", 3)),
        parameters=("alpha", "beta"),
        equations=equations,
        solved_forms={t: solve_for(e, t) for e, t in zip(equations, targets)},
    )


@cache
def builtin_prolonged() -> PdeSystem:
    """hirota extended with the eigenfunction pair and the potential f, their
    solved forms derived from ``lax_pair()`` as the module docstring states.
    The equations are hirota's two, then phi_x, psi_x, phi_t, psi_t, f_x and
    f_t in leading-derivative-minus-rhs orientation (multipliers m1..m8)."""
    base = builtin_hirota()
    solved = dict(base.solved_forms)
    lam = Parameter("lambda")
    phi, psi = jet("phi"), jet("psi")
    pair = tuple(zip("xt", lax_pair()))
    for d, matrix in pair:
        for name, (left, right) in zip(("phi", "psi"), matrix):
            solved[JetCoordinate(name, (d,))] = left * phi + right * psi
    for d, ((a, b), (c, _)) in pair:
        solved[JetCoordinate("f", (d,))] = Expr.I * (
            a.diff(lam) * phi * psi + (b.diff(lam) * psi**2 - c.diff(lam) * phi**2) / 2
        )
    equations = list(base.equations)
    equations += [Expr.atom(k) - rhs for k, rhs in solved.items() if k not in base.solved_forms]
    return PdeSystem(
        name="prolonged",
        independents=base.independents,
        dependents=(*base.dependents, ("phi", 1), ("psi", 1), ("f", 1)),
        parameters=(*base.parameters, "lambda"),
        equations=equations,
        solved_forms=solved,
    )


def cross_derivative_residuals(sys: PdeSystem) -> dict[str, Expr]:
    """Compatibility residual reduce(D_t(x-rule) - D_x(t-rule)) per dependent.

    Mixed partials are identified in the jet representation, so the
    meaningful flatness certificate is the cross-derivative of the two
    solved forms; a zero residual for the eigenfunctions is exactly the
    statement that the linear problem is compatible on solutions.
    """
    out = {}
    for name, _order in sys.dependents:
        x_key = JetCoordinate(name, ("x",))
        t_key = JetCoordinate(name, ("t",))
        if x_key in sys.solved_forms and t_key in sys.solved_forms:
            mixed = sys.solved_forms[x_key].total_derivative("t") - sys.solved_forms[
                t_key
            ].total_derivative("x")
            out[name] = sys.reduce(mixed)
    return out


# ---------------------------------------------------------------------------
# consistent numeric sampling
# ---------------------------------------------------------------------------


def _random_complex(rng: random.Random) -> complex:
    # Annulus keeps magnitudes O(1) and away from 0 (some atoms get inverted).
    magnitude = 0.3 + 0.9 * rng.random()
    angle = math.tau * rng.random()
    return magnitude * complex(math.cos(angle), math.sin(angle))


def consistent_assignment(
    closure: SolvedFormClosure,
    exprs: Iterable[Expr],
    rng: random.Random,
) -> dict[Atom, complex]:
    """Random values for free atoms, computed values for solved ones.

    Every atom occurring in ``exprs`` receives a value, and the assignment
    satisfies every solved form to machine precision.  Rules are fully
    reduced, so one pass suffices: a reducible jet takes its rule, whose
    atoms are free.  An Exp factor is never drawn: ``Expr.eval_numeric``
    computes it from its argument.
    """
    reducible: dict[JetCoordinate, Expr] = {}
    free: set[Atom] = set()
    for e in exprs:
        for a in e.atoms():
            if a in reducible:
                continue
            if isinstance(a, JetCoordinate) and closure.base_key(a) is not None:
                rule = reducible[a] = closure.rule(a)
                free.update(rule.atoms())
            else:
                free.add(a)
    # Draw in atom order, not set order: atoms hash by memory address.
    drawn = sorted((a for a in free if type(a) is not ExpFactor), key=Atom.sort_key)
    assignment: dict[Atom, complex] = {a: _random_complex(rng) for a in drawn}
    for a, rule in sorted(reducible.items(), key=lambda item: item[0].sort_key()):
        assignment[a] = rule.eval_numeric(assignment)
    return assignment


def consistent_point(
    sys: PdeSystem, seed: int, max_order: int = 2
) -> dict[Atom, complex]:
    """On-shell numeric sample covering all jets up to ``max_order``."""
    rng = random.Random(seed)
    exprs = list(sys.equations)
    for name, _order in sys.dependents:
        for nx in range(max_order + 1):
            for nt in range(max_order + 1 - nx):
                exprs.append(Expr.atom(JetCoordinate(name, ("x",) * nx + ("t",) * nt)))
    return consistent_assignment(sys.closure, exprs, rng)


# ---------------------------------------------------------------------------
# input files: one line reader, and the manifest format
# ---------------------------------------------------------------------------

MANIFEST_SECTIONS = ("[independents]", "[dependents]", "[parameters]", "[equations]", "[solved]")
Line = tuple[int, str]  # a line's number and its stripped text


def numbered_lines(text: str) -> list[Line]:
    """The stripped lines of ``text`` with their numbers, blank lines and
    ``#`` comments dropped."""
    lines = ((number, raw.strip()) for number, raw in enumerate(text.splitlines(), start=1))
    return [(number, line) for number, line in lines if line and not line.startswith("#")]


@contextlib.contextmanager
def at_line(number: int):
    """Prefix an error raised inside with its line (an ExprError as a ManifestError)."""
    try:
        yield
    except ExprError as err:
        raise ManifestError(f"line {number}: {err}") from err
    except ValueError as err:
        raise ValueError(f"line {number}: {err}") from err


def split_sections(text: str, headers: Iterable[str]) -> dict[str, list[Line]]:
    """The numbered lines under each of ``headers``; another header, or
    content before the first one, is refused."""
    sections: dict[str, list[Line]] = {header: [] for header in headers}
    current = None
    for number, line in numbered_lines(text):
        with at_line(number):
            if line.startswith("["):
                if line not in sections:
                    raise ManifestError(f"unknown section header '{line}'")
                current = sections[line]
            elif current is None:
                raise ManifestError(f"content before any section header: '{line}'")
            else:
                current.append((number, line))
    return sections


def read_entries(lines: Iterable[Line], key: Callable, vocabulary: Vocabulary) -> dict:
    """``lhs = expression`` lines as {key(lhs): expression}; ``key`` returns
    None for an unknown lhs, and each key may appear once."""
    entries = {}
    for number, line in lines:
        lhs, sep, rhs = (part.strip() for part in line.partition("="))
        with at_line(number):
            k = key(lhs) if sep else None
            if k is None:
                raise ManifestError(f"bad line '{line}' (want 'key = expression' with a known key)")
            if k in entries:
                raise ManifestError(f"{lhs} is given twice, again in '{line}'")
            entries[k] = parse(rhs, vocabulary)
    return entries


def write_manifest(sys: PdeSystem) -> str:
    solved = sorted(sys.solved_forms.items(), key=lambda item: item[0].sort_key())
    sections = (
        sys.independents,
        [f"{name} {order}" for name, order in sys.dependents],
        sys.parameters,
        [to_text(e) for e in sys.equations],
        [f"{key} = {to_text(rhs)}" for key, rhs in solved],
    )
    lines = [line for header, body in zip(MANIFEST_SECTIONS, sections) for line in (header, *body)]
    return "\n".join(lines) + "\n"


def _declared(number: int, name: str) -> str:
    """A name declared on line ``number``, refused if no expression can name it."""
    if not declarable(name):
        raise ManifestError(
            f"line {number}: cannot declare '{name}': want an identifier [A-Za-z][A-Za-z0-9]* "
            "other than I, Diff, Exp"
        )
    return name


def parse_manifest(text: str, name: str = "manifest") -> PdeSystem:
    sections = split_sections(text, MANIFEST_SECTIONS)
    independents = tuple(_declared(*entry) for entry in sections["[independents]"])
    dependents = []
    for number, line in sections["[dependents]"]:
        fields = line.split()
        if len(fields) != 2 or not fields[1].isdecimal():
            raise ManifestError(f"line {number}: bad dependent line '{line}' (want 'name order')")
        dependents.append((_declared(number, fields[0]), int(fields[1])))
    parameters = tuple(_declared(*entry) for entry in sections["[parameters]"])
    vocabulary = Vocabulary(independents, tuple(n for n, _ in dependents), parameters)
    equations = []
    for number, line in sections["[equations]"]:
        with at_line(number):
            equations.append(parse(line, vocabulary))
    solved = read_entries(sections["[solved]"], lambda k: _solved_key(k, vocabulary), vocabulary)
    return PdeSystem(name, independents, dependents, parameters, equations, solved)
