"""Linearization, determining equations, and symmetry verification.

Symmetries are handled internally in evolutionary (characteristic) form,
with the sign convention of ``liealg.VectorField.characteristic``.  A
characteristic is a plain ``dict`` from each deformed dependent's name to
its component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from .expr import (
    CR_ONE,
    Atom,
    Expr,
    ExprError,
    JetCoordinate,
    Parameter,
    _acc_products,
    _cr,
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
    COORDINATES, FAMILY_CONSTANTS, VectorField, coordinate_atom, family_vector_field,
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


@dataclass(frozen=True)
class SymmetryCheck:
    holds: bool
    residuals: tuple[Expr, ...]


def _component(sigma: Mapping[str, Expr], name: str) -> Expr:
    component = sigma.get(name)
    if component is None:
        raise ExprError(f"characteristic lacks a component for dependent '{name}'")
    return component


@cache
def _equation_partials(sys: PdeSystem, index: int) -> tuple[tuple[JetCoordinate, Expr], ...]:
    """(w_J, dF/dw_J) for every jet of a dependent occurring in equation
    ``index``, in the order of ``jet_atoms``."""
    equation = sys.equations[index]
    dependent_names = set(sys.dependent_names)
    return tuple((a, equation.diff(a)) for a in equation.jet_atoms() if a.name in dependent_names)


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
    ``total_derivative_along``.
    """
    derivative = _by_prefix(
        lambda name: _component(sigma, name),
        lambda prefix, _name, index: prefix.total_derivative(index[-1]),
    )
    out = []
    for index in range(len(sys.equations)) if equations is None else equations:
        total = Expr.ZERO
        for a, partial in _equation_partials(sys, index):
            total = total + partial * derivative(a.name, a.index)
        out.append(total)
    return out


#: every monomial a cached piece holds, numbered as first cached:
#: ``_MONOMIALS[_MONOMIAL_IDS[m]] == m``
_MONOMIAL_IDS: dict[tuple, int] = {}
_MONOMIALS: list[tuple] = []


def _monomial_id(mono: tuple) -> int:
    found = _MONOMIAL_IDS.get(mono)
    if found is None:
        found = _MONOMIAL_IDS[mono] = len(_MONOMIALS)
        _MONOMIALS.append(mono)
    return found


@cache
def _equation_reads(sys: PdeSystem, index: int) -> tuple[str, ...]:
    """The dependents whose jets occur in equation ``index``, in order."""
    return tuple(dict.fromkeys(a.name for a, _ in _equation_partials(sys, index)))


@cache
def _linearization_piece(sys: PdeSystem, index: int, name: str, mono: tuple) -> tuple:
    """Terms of the on-shell linearization of equation ``index`` along the
    characteristic with the monomial ``mono`` in component ``name`` and 0
    in every other, in integer form ``(L, ((id, a, b), ...))``: L is the lcm
    of the coefficient denominators and the term with monomial
    ``_MONOMIALS[id]`` has coefficient (a + b*i)/L."""
    sigma = dict.fromkeys(sys.dependent_names, Expr.ZERO)
    sigma[name] = Expr(((mono, CR_ONE),))
    terms = sys.reduce(frechet(sys, sigma, (index,))[0]).items()
    common = lcm(*(c.d for _, c in terms))
    return common, tuple(
        (_monomial_id(m), c.a * (common // c.d), c.b * (common // c.d)) for m, c in terms
    )


@cache
def _factored_piece(sys: PdeSystem, index: int, name: str, mono: tuple) -> tuple:
    """The piece for a whole monomial p*m of a characteristic, p its
    ``Parameter`` factors (they sort first) and m the rest: the piece for m
    with p merged into every term, or that piece itself when p is 1."""
    split = 0
    while split < len(mono) and type(mono[split][0]) is Parameter:
        split += 1
    piece = _linearization_piece(sys, index, name, mono[split:])
    if not split:
        return piece
    factor = mono[:split]
    common, terms = piece
    return common, tuple(
        (_monomial_id(_mono_mul(factor, _MONOMIALS[m])), a, b) for m, a, b in terms
    )


def verify_symmetry(
    sys: PdeSystem,
    sigma: Mapping[str, Expr],
    equations: Sequence[int] | None = None,
) -> SymmetryCheck:
    """On-shell reduce the linearized equations along sigma; zero means symmetry.

    Each residual equals ``sys.reduce(frechet(sys, sigma, equations)[i])``,
    assembled from cached pieces.  A term c*p*m of sigma_w, with c a
    coefficient, p its ``Parameter`` factors and m the rest, contributes c
    times the piece for p*m, which is p times the piece for m: a
    parameter's total derivative is 0 and reduction replaces jets only, so
    both commute with the factor p.  Only the piece for m is reduced; p is
    merged into its terms once, when the piece for p*m is cached.  A cached
    piece names each monomial by an integer id, so the sum runs over ids in
    Gaussian-integer numerators over one denominator D per equation, the
    lcm of c.d * L over the terms the equation reads (L a piece's
    denominator).  Each surviving residual coefficient is built and
    normalised once, and its id mapped back to its monomial.
    """
    residuals = []
    for index in range(len(sys.equations)) if equations is None else equations:
        reads = []
        common = 1
        for name in _equation_reads(sys, index):
            for mono, coeff in _component(sigma, name).items():
                piece_d, piece = _factored_piece(sys, index, name, mono)
                reads.append((coeff, piece_d, piece))
                common = lcm(common, coeff.d * piece_d)
        acc: dict[int, list[int]] = {}
        for coeff, piece_d, piece in reads:
            scale = common // (coeff.d * piece_d)
            ca, cb = coeff.a * scale, coeff.b * scale
            for m, a, b in piece:
                re, im = ca * a - cb * b, ca * b + cb * a
                pair = acc.get(m)
                if pair is None:
                    acc[m] = [re, im]
                else:
                    pair[0] += re
                    pair[1] += im
        residuals.append(
            Expr({_MONOMIALS[m]: _cr(a, b, common) for m, (a, b) in acc.items() if a or b})
        )
    return SymmetryCheck(all(r.is_zero() for r in residuals), tuple(residuals))


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
    the u, v part of g2."""
    g2 = localized_generator()
    return {name: g2.coefficient(name) for name in ("u", "v")}


def localized_characteristic() -> dict[str, Expr]:
    """Five-component characteristic carried by the prolonged system: the
    coefficients of the localized generator g2."""
    g2 = localized_generator()
    return {name: g2.coefficient(name) for name in COORDINATES[2:]}


def parse_symmetry_manifest(text: str, system: PdeSystem) -> dict[str, Expr]:
    """The ``[symmetry]`` section of a manifest, one ``sigma_<dep> = expr``
    line per dependent of ``system``, in its vocabulary plus the family
    constants c1..c6; the system-manifest sections are skipped."""
    lines = split_sections(text, (*MANIFEST_SECTIONS, "[symmetry]"))["[symmetry]"]
    if not lines:
        raise ManifestError("manifest has no [symmetry] section")
    keys = {f"sigma_{name}": name for name in system.dependent_names}
    return read_entries(lines, keys.get, system.vocabulary.with_parameters(*FAMILY_CONSTANTS))


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


def coupled_ansatz() -> PointAnsatz:
    return PointAnsatz(
        args=("x", "t", "u", "v", "phi", "psi"),
        eta_names={"u": "U", "v": "V"},
        equations=(0, 1),
    )


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


def _closed_by_construction(sys: PdeSystem, equation: Expr, direction: str) -> bool:
    """Whether reduce(D_d F) = 0 holds with no reduction: F is c*(w_K - rhs_K)
    for a solved key K and a constant c, and the closure prolongs w_K along
    d from K itself.  The rule for w_{K+d} is then reduce(D_d rhs_K) (a
    solved rhs holds no reducible jet), which is what D_d F reduces to."""
    for key, rhs in sys.solved_forms.items():
        c = equation.diff(key)
        if c.is_constant() and not c.is_zero() and equation == c * (Expr.atom(key) - rhs):
            return sys.closure.base_key(key.extended(direction)) is key
    return False


@cache
def _unclosed_direction(sys: PdeSystem, index: int) -> str | None:
    """The first of x, t along which equation ``index``'s total derivative
    does not reduce to 0, or None when both do."""
    equation = sys.equations[index]
    for direction in ("x", "t"):
        if _closed_by_construction(sys, equation, direction):
            continue
        if not sys.reduce(equation.total_derivative(direction)).is_zero():
            return direction
    return None


def generate_determining(sys: PdeSystem, ansatz: PointAnsatz) -> DeterminingSystem:
    """Apply the prolonged ansatz generator, reduce on-shell, and split.

    The generator is v = X d_x + T d_t + sum_w eta_w d_w.  Each residual is
    -reduce(pr v(F_i)), with

        pr v(F) = X dF/dx + T dF/dt + sum_(w_J in F) phi_w^J dF/dw_J,
        phi_w^() = eta_w,
        phi_w^(J,d) = D_d phi_w^J - w_(J,x) D_d X - w_(J,t) D_d T,

    the general prolongation formula (Olver, Applications of Lie Groups to
    Differential Equations, section 2.3).  With the characteristic
    sigma_w = X w_x + T w_t - eta_w the identity

        frechet(F)[sigma] = -pr v(F) + X D_x F + T D_t F

    holds exactly, so the residual equals reduce(frechet(F)[sigma])
    whenever reduce(D_x F_i) and reduce(D_t F_i) vanish.  That condition
    is checked once per system and equation (and skipped where the solved
    forms make it hold); a system that fails it raises ExprError.  The
    prolongation never forms the top-order jets whose terms sum to
    X D_x F + T D_t F, nor the rules that would reduce them.

    Splitting is by exact monomials in the proper-derivative jets that
    survive reduction (the unknowns depend only on order-zero coordinates,
    so those monomials are functionally independent of the coefficients).
    A term not linear homogeneous in the unknowns raises ExprError.
    """
    for name in ansatz.args:
        if name not in sys.independents and name not in sys.dependent_names:
            raise ExprError(f"ansatz argument '{name}' is not a system variable")
    xi = {
        direction: Expr.atom(UnknownFunction(name, ansatz.args))
        for direction, name in zip(("x", "t"), XI_NAMES)
    }
    etas = {
        dep: Expr.atom(UnknownFunction(name, ansatz.args))
        for dep, name in ansatz.eta_names.items()
    }
    xi_derivatives = {
        (direction, d): x.total_derivative(d) for direction, x in xi.items() for d in xi
    }

    def prolonged_step(prefix: Expr, name: str, index: tuple[str, ...]) -> Expr:
        d = index[-1]
        out = prefix.total_derivative(d)
        for direction in xi:
            jet = Expr.atom(JetCoordinate(name, index[:-1] + (direction,)))
            out = out - jet * xi_derivatives[(direction, d)]
        return out

    phi = _by_prefix(lambda name: _component(etas, name), prolonged_step)
    residuals = []
    for index in range(len(sys.equations)) if ansatz.equations is None else ansatz.equations:
        direction = _unclosed_direction(sys, index)
        if direction is not None:
            raise ExprError(
                f"equation {index} is not closed under D_{direction} on its solved "
                "forms, so the prolongation formula does not give its determining "
                "equations"
            )
        # -pr v(F), negated through the small factors dF/dw_J and dF/dx
        equation = sys.equations[index]
        total = Expr.ZERO
        for direction, x in xi.items():
            total = total + x * -equation.diff(coordinate_atom(direction))
        for a, partial in _equation_partials(sys, index):
            total = total + -partial * phi(a.name, a.index)
        residuals.append(sys.reduce(total))
    constraints = []
    for eq_index, residual in enumerate(residuals):
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
