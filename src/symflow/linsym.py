"""Linearization, determining equations, and symmetry verification.

Symmetries are handled internally in evolutionary (characteristic) form,
built by ``liealg.VectorField.characteristic``, g2's included, so all have
one orientation.  A characteristic is a plain ``dict`` from each deformed
dependent's name to its component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

from .expr import (
    CR_ONE,
    Atom,
    ComplexRational,
    Expr,
    ExprError,
    JetCoordinate,
    Parameter,
    _acc_products,
    _mono_mul,
    monomial_key,
    parse,
)
from .jetsys import (
    MANIFEST_SECTIONS,
    ManifestError,
    PdeSystem,
    read_entries,
    split_sections,
)
from .liealg import (
    COORDINATES, FAMILY_CONSTANTS, Echelon, VectorField, coordinate_atom, family_vector_field,
    localized_generator,
)


class UnknownFunction(Atom):
    """Formal derivative of an undetermined coefficient function.

    ``UnknownFunction("X", deps, ("u", "x"))`` stands for the mixed partial
    of X by u and x, where ``deps`` lists the coordinates X may depend on.
    Under a total derivative it expands by the chain rule over ``deps``,
    so ``deps`` is part of the key; under everything else it behaves as an
    opaque symbol.
    """

    __slots__ = ("name", "deps", "index")

    def __new__(cls, name: str, deps: tuple[str, ...], index: Iterable[str] = ()):
        index = tuple(sorted(index, key=deps.index))
        return cls._interned(
            (3, name, len(index), index, deps), name=name, deps=deps, index=index
        )

    def d_total(self, direction: str) -> Expr:
        chain = {}
        for dep in self.deps:
            extended = UnknownFunction(self.name, self.deps, self.index + (dep,))
            if dep == direction:
                chain[((extended, 1),)] = CR_ONE
            elif dep not in ("x", "t"):
                # a jet coordinate sorts before an unknown function
                chain[((JetCoordinate(dep, (direction,)), 1), (extended, 1))] = CR_ONE
        return Expr(chain)

    def __str__(self):
        if not self.index:
            return self.name
        return f"{self.name}[{','.join(self.index)}]"


# ---------------------------------------------------------------------------
# characteristics and linearization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Selection:
    """One validated equation selection of a system: the ``equations`` it
    names in order, the echelon the checks of it share, and its
    ``readers``: each dependent w whose jets occur in a selected equation,
    with the selected equations that read it and the row of each monomial
    of sigma_w met so far (its pieces of those equations)."""

    equations: tuple[int, ...]
    readers: tuple[tuple[str, tuple[int, ...], dict[tuple, int]], ...]
    echelon: Echelon = field(default_factory=Echelon)


class Linearization:
    """What ``linsym`` derives from one system: its solved-form ``closure``,
    which reduces the pieces; per equation, ``partials``, (w_J, dF/dw_J)
    for every jet of a dependent in it in the order of ``jet_atoms``; the
    echelon ``columns``, one (equation, monomial) pair per column that a
    piece holds, numbered as first met (``numbers`` inverts it;
    append-only, so a number never changes); the ``pieces``; and each
    ``Selection``, stored under the argument as passed and as validated,
    so that None and the tuple of every index share one.

    ``linearization`` keeps one per system in a weak map.  No value here
    refers to the system (a ``SolvedFormClosure`` holds only solved forms
    and rules), so it is dropped with the system; a ``PdeSystem`` is
    immutable, so nothing here goes stale."""

    def __init__(self, sys: PdeSystem):
        dependent_names = set(sys.dependent_names)
        self.closure = sys.closure
        self.partials = tuple(
            tuple((a, equation.diff(a)) for a in equation.jet_atoms() if a.name in dependent_names)
            for equation in sys.equations
        )
        self.numbers: dict[tuple[int, tuple], int] = {}
        self.columns: list[tuple[int, tuple]] = []
        self.pieces: dict[tuple[int, str, tuple], dict[int, ComplexRational]] = {}
        self.selections: dict[tuple[int, ...] | None, Selection] = {}

    def selection(self, equations: Sequence[int] | None) -> Selection:
        """The selection ``equations`` names (every equation for None),
        validated on first use.  A tuple other than the one validated is
        checked again, since ``(True,) == (1,)``; an empty selection, an
        index that names no equation (a bool included) and a repeated one
        raise ``ExprError``."""
        key = equations if equations is None or type(equations) is tuple else tuple(equations)
        try:
            found = self.selections.get(key)
        except TypeError:  # an unhashable index, refused below
            found = None
        if found is not None and (key is None or key is found.equations):
            return found
        selected = self._validated(key)
        found = self.selections.get(selected)
        if found is None:
            readers: dict[str, list[int]] = {}
            for index in selected:
                for name in dict.fromkeys(a.name for a, _ in self.partials[index]):
                    readers.setdefault(name, []).append(index)
            found = Selection(selected, tuple((n, tuple(i), {}) for n, i in readers.items()))
        self.selections[key] = self.selections[selected] = found
        return found

    def _validated(self, key: tuple | None) -> tuple[int, ...]:
        count = len(self.partials)
        selected = tuple(range(count)) if key is None else key
        if not selected:
            raise ExprError("the equation selection is empty, so nothing would be checked")
        seen = set()
        for index in selected:
            if type(index) is bool or not (isinstance(index, int) and 0 <= index < count):
                raise ExprError(
                    f"equation {index!r} is not in the system: its equations are 0..{count - 1}"
                )
            if index in seen:
                raise ExprError(f"equation {index} is selected twice")
            seen.add(index)
        return selected

    def column(self, index: int, mono: tuple) -> int:
        found = self.numbers.get((index, mono))
        if found is None:
            found = self.numbers[(index, mono)] = len(self.columns)
            self.columns.append((index, mono))
        return found

    def piece(self, index: int, name: str, mono: tuple) -> dict[int, ComplexRational]:
        """The on-shell linearization of equation ``index`` along the
        characteristic with the monomial ``mono`` in component ``name`` and 0
        in every other, as ``{column: coefficient}``, made on first use:
        the reduction of the sum of dF/dw_J * D_J(mono) over the equation's
        partials of the dependent ``name``.  Only a parameter-free monomial
        is reduced: for p*m, p the ``Parameter`` factors (they sort first),
        the piece is m's with p merged into every term: a parameter's total
        derivative is 0 and reduction replaces jets only, so both commute
        with p."""
        key = (index, name, mono)
        found = self.pieces.get(key)
        if found is not None:
            return found
        split = 0
        while split < len(mono) and type(mono[split][0]) is Parameter:
            split += 1
        if split:
            factor = mono[:split]
            found = {
                self.column(index, _mono_mul(factor, self.columns[column][1])): c
                for column, c in self.piece(index, name, mono[split:]).items()
            }
        else:
            derivative = _by_prefix(
                lambda _name: Expr(((mono, CR_ONE),)),
                lambda prefix, _name, jet: prefix.total_derivative(jet[-1]),
            )
            total = Expr.ZERO
            for a, partial in self.partials[index]:
                if a.name == name:
                    total = total + partial * derivative(name, a.index)
            found = {self.column(index, m): c for m, c in self.closure.reduce(total).items()}
        self.pieces[key] = found
        return found


_LINEARIZATIONS: WeakKeyDictionary[PdeSystem, Linearization] = WeakKeyDictionary()


def linearization(sys: PdeSystem) -> Linearization:
    """The ``Linearization`` of ``sys``: made on first use, dropped with it."""
    found = _LINEARIZATIONS.get(sys)
    if found is None:
        found = _LINEARIZATIONS[sys] = Linearization(sys)
    return found


@dataclass(frozen=True, eq=False)
class SymmetryCheck:
    """The verdict of ``verify_symmetry`` and its residuals, one per
    checked equation, read on first use off the selection's echelon: c M,
    for the ``combination`` of (coefficient, row number) pairs c, grouped
    by the equation of each column.  It holds the system's
    ``Linearization``, not the system, so the residuals can be read after
    the system is dropped."""

    holds: bool
    linearization: Linearization = field(repr=False)
    selection: Selection = field(repr=False)
    combination: list[tuple[ComplexRational, int]] = field(repr=False)

    @cached_property
    def residuals(self) -> tuple[Expr, ...]:
        columns = self.linearization.columns
        terms: dict[int, dict] = {index: {} for index in self.selection.equations}
        for column, c in self.selection.echelon.combine(self.combination).items():
            index, mono = columns[column]
            terms[index][mono] = c
        return tuple(Expr(terms[index]) for index in self.selection.equations)


def _component(sigma: Mapping[str, Expr], name: str) -> Expr:
    component = sigma.get(name)
    if component is None:
        raise ExprError(f"characteristic lacks a component for dependent '{name}'")
    return component


def _by_prefix(
    base: Callable[[str], Expr], step: Callable[[Expr, str, tuple[str, ...]], Expr]
) -> Callable[[str, tuple[str, ...]], Expr]:
    """Memoized ``f(name, index)``: ``base(name)`` for the empty index, else
    ``step(f(name, index[:-1]), name, index)``, so each (name, index) costs
    one step from its prefix."""
    memo: dict[tuple[str, tuple[str, ...]], Expr] = {}

    def f(name: str, index: tuple[str, ...]) -> Expr:
        found = memo.get((name, index))
        if found is None:
            found = step(f(name, index[:-1]), name, index) if index else base(name)
            memo[(name, index)] = found
        return found

    return f


def frechet(
    sys: PdeSystem,
    sigma: Mapping[str, Expr],
    equations: Sequence[int] | None = None,
) -> list[Expr]:
    """Directional derivative of each selected equation along sigma.

    Every jet coordinate w_J occurring in an equation contributes
    dF/dw_J * D_J(sigma_w); sigma must cover every dependent that occurs
    in the selected equations.  Each D_J(sigma_w) is formed once per call,
    as D_d of its prefix, in the direction order of
    ``total_derivative_along``.  ``equations`` selects and orders the
    equations as in ``verify_symmetry``, and is refused the same way.
    """
    state = linearization(sys)
    derivative = _by_prefix(
        lambda name: _component(sigma, name),
        lambda prefix, _name, index: prefix.total_derivative(index[-1]),
    )
    out = []
    for index in state.selection(equations).equations:
        total = Expr.ZERO
        for a, partial in state.partials[index]:
            total = total + partial * derivative(a.name, a.index)
        out.append(total)
    return out


def verify_symmetry(
    sys: PdeSystem,
    sigma: Mapping[str, Expr],
    equations: Sequence[int] | None = None,
) -> SymmetryCheck:
    """On-shell reduce the linearized equations along sigma; zero means symmetry.

    Each residual equals ``sys.reduce(frechet(sys, sigma, equations)[i])``.
    The residuals are c M, c sigma's coefficients and M the matrix whose
    rows are its monomials' pieces (``Linearization.piece``), merged over
    the selected equations that read their component; a column is one
    (equation, monomial) pair, so those pieces hold disjoint columns.  The
    system's ``Linearization`` holds the pieces and columns, and one
    ``Selection`` per equation selection with its echelon, and is dropped
    with the system.  A row is inserted when first met, so every piece is
    made and a missing component raises ``ExprError`` whatever the
    verdict.  ``holds`` is c M[:, P] = 0 on the pivot columns P alone,
    which is exact: rank M[:, P] = rank M, so every column of M is a
    combination of them.  The verdict sums no equation;
    ``SymmetryCheck.residuals`` reads c M off the echelon.

    ``equations`` selects and orders the checked equations (all by
    default); an empty selection, an index that names no equation and a
    repeated index raise ``ExprError``.
    """
    state = linearization(sys)
    selection = state.selection(equations)
    echelon = selection.echelon
    combination = []
    for name, indices, rows in selection.readers:
        for mono, coeff in _component(sigma, name).items():
            row = rows.get(mono)
            if row is None:
                pieces = [state.piece(index, name, mono) for index in indices]
                row = rows[mono] = echelon.insert({k: c for piece in pieces for k, c in piece.items()})
            combination.append((coeff, row))
    return SymmetryCheck(echelon.annihilates(combination), state, selection, combination)


# ---------------------------------------------------------------------------
# point-symmetry families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointFamily:
    """Parameterized point-symmetry ansatz solution (constants stay symbolic)."""

    name: str
    xi_x: Expr
    xi_t: Expr
    etas: Mapping[str, Expr]
    equations: tuple[int, ...] | None = None

    def characteristic(self) -> dict[str, Expr]:
        return VectorField({"x": self.xi_x, "t": self.xi_t, **self.etas}).characteristic()

    def verify(self, sys: PdeSystem) -> SymmetryCheck:
        return verify_symmetry(sys, self.characteristic(), self.equations)


def coupled_family() -> PointFamily:
    """Five-constant point/nonlocal family of the two evolution equations.

    The characteristic lives on u, v but may involve the eigenfunctions,
    so verification runs against the prolonged closure.
    """
    return PointFamily(
        name="coupled-5",
        xi_x=parse("c1*x/3 + 2*alpha^2*c1*t/(9*beta) + c3"),
        xi_t=parse("c1*t + c2"),
        etas={
            "u": parse("I*alpha*c1*u*x/(9*beta) + c5*u + c4*phi^2"),
            "v": parse("((-6*c1 - 9*c5)*v + 9*c4*psi^2)/9 - I*alpha*v*c1*x/(9*beta)"),
        },
        equations=(0, 1),
    )


def prolonged_family(flip_psi_eta: bool = False) -> PointFamily:
    """Six-constant point-symmetry family of the full prolonged system: the
    general element of the six-generator basis (``liealg.family_vector_field``).

    With ``flip_psi_eta`` the psi-coefficient is negated; that variant fails
    verification and is retained as a negative control for a sign ambiguity
    that the checker resolves.
    """
    field = family_vector_field()
    etas = {name: field.coefficient(name) for name in COORDINATES[2:]}
    if flip_psi_eta:
        etas["psi"] = -etas["psi"]
    return PointFamily(
        name="prolonged-6-flipped" if flip_psi_eta else "prolonged-6",
        xi_x=field.coefficient("x"),
        xi_t=field.coefficient("t"),
        etas=etas,
    )


def seed_pair() -> dict[str, Expr]:
    """The eigenfunction-squared characteristic of the evolution equations:
    the u, v part of g2's."""
    sigma = localized_characteristic()
    return {name: sigma[name] for name in ("u", "v")}


def localized_characteristic() -> dict[str, Expr]:
    """Five-component characteristic carried by the prolonged system: that
    of the localized generator g2, -(phi^2, psi^2, phi*f, psi*f, f^2)."""
    return localized_generator().characteristic()


def parse_symmetry_manifest(text: str, system: PdeSystem) -> dict[str, Expr]:
    """The ``[symmetry]`` section of a manifest, one ``sigma_<dep> = expr``
    line per dependent of ``system``, in its vocabulary plus the family
    constants c1..c6; the system-manifest sections are skipped."""
    lines = split_sections(text, (*MANIFEST_SECTIONS, "[symmetry]"))["[symmetry]"]
    if not lines:
        raise ManifestError("manifest has no [symmetry] section")
    keys = {f"sigma_{name}": name for name in system.dependent_names}
    sigma = read_entries(lines, keys.get, system.vocabulary.with_parameters(*FAMILY_CONSTANTS))
    missing = [key for key, name in keys.items() if name not in sigma]
    if missing:
        raise ManifestError(f"[symmetry] section lacks {', '.join(missing)}")
    return sigma


# ---------------------------------------------------------------------------
# determining systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointAnsatz:
    """Shape of the unknown coefficient functions for one determining run."""

    args: tuple[str, ...]
    eta_names: Mapping[str, str]
    equations: tuple[int, ...] | None = None


#: the unknown-function names of the x- and t-coefficients in every ansatz
XI_NAMES = ("X", "T")


def prolonged_ansatz() -> PointAnsatz:
    return PointAnsatz(
        args=COORDINATES,
        eta_names={"u": "U", "v": "V", "phi": "P", "psi": "Q", "f": "F"},
        equations=None,
    )


@dataclass
class DeterminingSystem:
    """Coefficient-split linear constraints on the unknown functions."""

    ansatz: PointAnsatz
    constraints: list[tuple[int, tuple, Expr]]  # (equation, split monomial, constraint)
    residuals: list[Expr] = field(default_factory=list)

    def is_linear_homogeneous(self) -> bool:
        return all(
            _unknown_degree(mono) == 1
            for _, _, constraint in self.constraints
            for mono, _coeff in constraint.items()
        )

    def verify_solution(self, sys: PdeSystem, solution: Mapping[str, Expr]) -> bool:
        """Whether every constraint vanishes on ``solution`` (unknown-function
        name to expression).

        An unknown function sorts after every other atom but an Exp factor,
        so a term linear in the unknowns is c*m*U with U its last factor;
        ``ExprError`` is raised for any other term.  Each term reads the
        derivative of the solution that U stands for, formed on first use
        from its prefix's, and a term whose derivative is 0 is skipped."""
        derivative = _by_prefix(
            solution.__getitem__,
            lambda prefix, _name, index: prefix.diff(coordinate_atom(index[-1])),
        )
        for _, _, constraint in self.constraints:
            acc: dict = {}
            for mono, coeff in constraint.items():
                unknown, power = mono[-1] if mono else (None, 0)
                if type(unknown) is not UnknownFunction or power != 1 or (
                    len(mono) > 1 and type(mono[-2][0]) is UnknownFunction
                ):
                    raise ExprError("determining constraints are not linear in the unknowns")
                value = derivative(unknown.name, unknown.index)
                if value.is_zero():
                    continue
                _acc_products(acc, ((mono[:-1], coeff),), value.items())
            if any(c.a or c.b for c in acc.values()):
                return False
        return True


def _unknown_degree(mono: tuple) -> int:
    return sum(n for a, n in mono if type(a) is UnknownFunction)


def _split_by_derivative_monomials(residual: Expr) -> dict[tuple, Expr]:
    """Group the terms by their proper-derivative jet factors.  A monomial
    is its key's factors merged with the rest, so each term lands alone and
    no coefficients add.  A term not linear in the unknowns is refused."""
    groups: dict[tuple, dict] = {}
    for mono, coeff in residual.items():
        key, rest = [], []
        for item in mono:
            a = item[0]
            if type(a) is JetCoordinate and a.index:
                key.append(item)
            else:
                rest.append(item)
        if _unknown_degree(rest) != 1:
            raise ExprError("determining constraints are not linear in the unknowns")
        groups.setdefault(tuple(key), {})[tuple(rest)] = coeff
    return {key: Expr(bucket) for key, bucket in groups.items()}


def generate_determining(sys: PdeSystem, ansatz: PointAnsatz) -> DeterminingSystem:
    """Reduce the linearization along the ansatz characteristic, and split.

    The ansatz generator is v = X d_x + T d_t + sum_w eta_w d_w, its
    coefficients unknown functions of ``ansatz.args``, and sigma is its
    ``VectorField.characteristic`` on the dependents of
    ``ansatz.eta_names``, sigma_w = X w_x + T w_t - eta_w.  Each residual
    is reduce(frechet(F_i)[sigma]), the condition ``verify_symmetry``
    checks.  A selected equation that reads a dependent the ansatz does
    not name is refused as in ``frechet``.

    Splitting is by exact monomials in the proper-derivative jets that
    survive reduction (the unknowns depend only on order-zero coordinates,
    so those monomials are functionally independent of the coefficients).
    A term not linear homogeneous in the unknowns raises ExprError.  An
    empty ``ansatz.equations``, or an index in it that names no equation,
    raises ExprError before any work, as in ``verify_symmetry``.
    """
    selected = linearization(sys).selection(ansatz.equations).equations
    for name in ansatz.args:
        if name not in sys.independents and name not in sys.dependent_names:
            raise ExprError(f"ansatz argument '{name}' is not a system variable")
    names = {**dict(zip(("x", "t"), XI_NAMES)), **ansatz.eta_names}
    generator = VectorField(
        {w: Expr.atom(UnknownFunction(name, ansatz.args)) for w, name in names.items()}
    )
    characteristic = generator.characteristic()
    sigma = {dep: characteristic[dep] for dep in ansatz.eta_names}
    residuals = [sys.reduce(r) for r in frechet(sys, sigma, selected)]
    constraints = []
    for eq_index, residual in zip(selected, residuals):
        split = _split_by_derivative_monomials(residual)
        for key in sorted(split, key=monomial_key):
            constraints.append((eq_index, key, split[key]))
    return DeterminingSystem(ansatz=ansatz, constraints=constraints, residuals=residuals)


def family_as_solution(family: PointFamily, ansatz: PointAnsatz) -> dict[str, Expr]:
    """Rename a family's data to the ansatz's unknown-function names."""
    solution = {XI_NAMES[0]: family.xi_x, XI_NAMES[1]: family.xi_t}
    for dep, eta_name in ansatz.eta_names.items():
        solution[eta_name] = family.etas[dep]
    return solution
