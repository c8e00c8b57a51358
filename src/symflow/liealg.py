"""Point vector fields on {x,t,u,v,phi,psi,f}: the six-generator basis
of the prolonged system's point symmetries, brackets, structure
constants, the adjoint representation, and the one-dimensional
subalgebra classification of the non-central part.

The six standard generators close into an algebra whose only nonzero
brackets live on the first three: [g1,g2] = g2, [g1,g3] = -g3,
[g2,g3] = -2 g1 (a real sl(2)); g4, g5, g6 are central.  The basis is
the one statement of that algebra: the six-constant family, the
localized symmetry g2 and the coordinate names are all read from here.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (
    Atom,
    ComplexRational,
    Expr,
    ExprError,
    IndependentVariable,
    JetCoordinate,
    Parameter,
    exp_of,
    monomial_key,
    parse,
)

#: the prolonged system's coordinates: the independents, then the dependents
COORDINATES = ("x", "t", "u", "v", "phi", "psi", "f")


def coordinate_atom(name: str) -> Atom:
    return IndependentVariable(name) if name in COORDINATES[:2] else JetCoordinate(name)


@dataclass(frozen=True)
class VectorField:
    """Point vector field: one coefficient expression per coordinate."""

    coeffs: Mapping[str, Expr]

    def __post_init__(self):
        for name, coefficient in self.coeffs.items():
            if name not in COORDINATES:
                raise ExprError(f"unknown coordinate '{name}'")
            for a in coefficient.jet_atoms():
                if a.index:
                    raise ExprError(
                        f"coefficient of d/d{name} contains the derivative "
                        f"coordinate {a}; point fields only"
                    )

    def coefficient(self, name: str) -> Expr:
        return self.coeffs.get(name, Expr.ZERO)

    def apply(self, g: Expr) -> Expr:
        """Directional derivative of a coordinate function."""
        total = Expr.ZERO
        for name, coefficient in self.coeffs.items():
            total = total + coefficient * g.diff(coordinate_atom(name))
        return total

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            {
                n: self.coefficient(n) + other.coefficient(n)
                for n in COORDINATES
                if n in self.coeffs or n in other.coeffs
            }
        )

    def scaled(self, factor) -> "VectorField":
        return VectorField({n: c * factor for n, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return all(
            self.coefficient(n) == other.coefficient(n) for n in COORDINATES
        )

    def __str__(self):
        parts = [f"({c})*d/d{n}" for n, c in sorted(self.coeffs.items()) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def vector_field(**coeffs: str | Expr) -> VectorField:
    return VectorField(
        {n: (parse(c) if isinstance(c, str) else c) for n, c in coeffs.items()}
    )


def commutator(a: VectorField, b: VectorField) -> VectorField:
    """[a,b]^k = a(b^k) - b(a^k), coefficients canonicalized."""
    names = set(a.coeffs) | set(b.coeffs)
    return VectorField(
        {n: a.apply(b.coefficient(n)) - b.apply(a.coefficient(n)) for n in names}
    )


@functools.cache
def standard_generators() -> tuple[VectorField, ...]:
    """The six-generator basis g1..g6 of the prolonged system's point symmetries."""
    return (
        vector_field(phi="phi/2", psi="psi/2", f="f"),
        vector_field(u="phi^2", v="psi^2", phi="phi*f", psi="psi*f", f="f^2"),
        vector_field(f="1"),
        vector_field(u="u", v="-v", phi="phi/2", psi="-psi/2"),
        vector_field(t="1"),
        vector_field(x="1"),
    )


def localized_generator() -> VectorField:
    """g2: the Lax-pair symmetry (phi^2, psi^2) localized by the potential f."""
    return standard_generators()[1]


#: the constant that multiplies each of g1..g6 in the six-constant family
FAMILY_CONSTANTS = ("c5", "c2", "c6", "c1", "c3", "c4")


def family_vector_field() -> VectorField:
    """General element c5 g1 + c2 g2 + ... + c4 g6 of the six-constant
    symmetry family, constants symbolic."""
    return functools.reduce(
        operator.add,
        (g.scaled(parse(c)) for g, c in zip(standard_generators(), FAMILY_CONSTANTS)),
    )


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


def _solve_linear(rows: list[list[ComplexRational]], rhs: list[ComplexRational]):
    """Exact Gaussian elimination; returns None when inconsistent."""
    n_unknowns = len(rows[0]) if rows else 0
    matrix = [row[:] + [value] for row, value in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for col in range(n_unknowns):
        pivot = next(
            (i for i in range(r, len(matrix)) if not matrix[i][col].is_zero()), None
        )
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][col].inverse()
        matrix[r] = [value * inv for value in matrix[r]]
        for i in range(len(matrix)):
            if i != r and not matrix[i][col].is_zero():
                factor = matrix[i][col]
                matrix[i] = [
                    a - factor * b for a, b in zip(matrix[i], matrix[r])
                ]
        pivot_cols.append(col)
        r += 1
        if r == len(matrix):
            break
    for i in range(r, len(matrix)):
        if not matrix[i][-1].is_zero():
            return None
    solution = [ComplexRational(0)] * n_unknowns
    for row_index, col in enumerate(pivot_cols):
        solution[col] = matrix[row_index][-1]
    return solution


def express_in_basis(
    vf: VectorField, basis: Sequence[VectorField]
) -> list[ComplexRational] | None:
    """Exact coordinates of ``vf`` in the basis span, or None if outside:
    one linear equation per coordinate and monomial."""
    # coefficient of each (coordinate, monomial) in each field; vf is last
    terms = [
        {(name, mono): c for name in COORDINATES for mono, c in field.coefficient(name).terms}
        for field in (*basis, vf)
    ]
    keys = sorted(set().union(*terms), key=lambda item: (item[0], monomial_key(item[1])))
    zero = ComplexRational(0)
    rows = [[t.get(key, zero) for t in terms] for key in keys]
    return _solve_linear([row[:-1] for row in rows], [row[-1] for row in rows])


@dataclass
class StructureTable:
    basis: tuple[VectorField, ...]
    labels: tuple[str, ...]
    table: dict  # (i, j) -> tuple[ComplexRational, ...] for i < j

    def bracket_coords(self, i: int, j: int) -> tuple[ComplexRational, ...]:
        if i == j:
            return tuple(ComplexRational(0) for _ in self.basis)
        if i < j:
            return self.table[(i, j)]
        return tuple(-c for c in self.table[(j, i)])

    def bracket(self, a: Sequence, b: Sequence) -> tuple:
        """[a, b] in basis coordinates.  The entries of ``a`` and ``b`` are
        all ``ComplexRational`` or all ``Expr``; the result's are the same."""
        n = len(self.basis)
        out = [Expr.ZERO if isinstance(a[0], Expr) else ComplexRational(0)] * n
        for i in range(n):
            if a[i].is_zero():
                continue
            for j in range(n):
                if b[j].is_zero():
                    continue
                weight = a[i] * b[j]
                for k, c in enumerate(self.bracket_coords(i, j)):
                    if not c.is_zero():
                        out[k] = out[k] + weight * c
        return tuple(out)

    @functools.cached_property
    def constants(self) -> dict[tuple[int, int], dict[int, ComplexRational]]:
        """The nonzero structure constants: (i, j) -> {k: c_ij^k} for each
        ordered pair with a nonzero bracket."""
        n = range(len(self.basis))
        rows = {(i, j): {k: c for k, c in enumerate(self.bracket_coords(i, j)) if not c.is_zero()}
                for i in n for j in n}
        return {pair: row for pair, row in rows.items() if row}

    @functools.cached_property
    def gram(self) -> dict[tuple[int, int], ComplexRational]:
        """The nonzero entries of the Gram matrix tr(ad_i ad_j) = sum over
        r, s of c_is^r c_jr^s of the trace form."""
        entries = defaultdict(ComplexRational)
        for (i, s), row in self.constants.items():
            for (j, r), other in self.constants.items():
                if r in row and s in other:
                    entries[i, j] += row[r] * other[s]
        return {pair: g for pair, g in entries.items() if not g.is_zero()}

    def killing(self, a: Sequence, b: Sequence):
        """Trace form tr(ad_a ad_b) = sum a_i b_j tr(ad_i ad_j), summed over
        the nonzero Gram entries only.

        Coordinates are ``ComplexRational`` (the value is one) or ``Expr``
        (the value is an ``Expr``, for symbolic coordinates).
        """
        zero = Expr.ZERO if isinstance(a[0], Expr) else ComplexRational(0)
        return sum((a[i] * b[j] * g for (i, j), g in self.gram.items()), zero)


def structure_table(basis: Sequence[VectorField]) -> StructureTable:
    """All pairwise brackets in basis coordinates, labelled g1, g2, ...;
    checks closure and Jacobi."""
    basis = tuple(basis)
    labels = tuple(f"g{i+1}" for i in range(len(basis)))
    table = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            coords = express_in_basis(commutator(basis[i], basis[j]), basis)
            if coords is None:
                raise ExprError(
                    f"[{labels[i]},{labels[j]}] lies outside the span of the basis"
                )
            table[(i, j)] = tuple(coords)
    result = StructureTable(basis=basis, labels=labels, table=table)
    _check_jacobi(result)
    return result


def _unit(n: int, i: int) -> tuple[ComplexRational, ...]:
    return tuple(ComplexRational(int(k == i)) for k in range(n))


def _check_jacobi(table: StructureTable):
    """The Jacobi identity on basis triples i < j < k: ``bracket_coords``
    makes the table antisymmetric, so the cyclic sum [[e_i,e_j],e_k] + ...
    is alternating (0 when two indices are equal, odd under a transposition)
    and these triples stand for all n^3."""
    n = len(table.basis)
    unit = [_unit(n, i) for i in range(n)]
    bracket = table.bracket
    for i, j, k in itertools.combinations(range(n), 3):
        cyclic = zip(
            bracket(bracket(unit[i], unit[j]), unit[k]),
            bracket(bracket(unit[j], unit[k]), unit[i]),
            bracket(bracket(unit[k], unit[i]), unit[j]),
        )
        if any(not (x + y + z).is_zero() for x, y, z in cyclic):
            raise ExprError(f"Jacobi identity fails on triple ({i},{j},{k})")


# ---------------------------------------------------------------------------
# adjoint representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisSeries:
    """Element of the algebra with coefficients that may depend on epsilon."""

    coords: tuple[Expr, ...]


#: longest adjoint series :func:`adjoint` sums before it gives up
ADJOINT_MAX_TERMS = 12


def adjoint(
    table: StructureTable,
    v_index: int,
    w_coords: Sequence,
    epsilon: Parameter,
) -> BasisSeries:
    """Ad(exp(eps*v)) w as the series w - eps [v,w] + eps^2/2 [v,[v,w]] - ...

    Computed by linearity over basis components: for each one the Krylov
    sequence either terminates (nilpotent action, polynomial in eps) or is
    an eigenvector ([v,w] = c w, summing to Exp(-c*eps) w); anything else
    within :data:`ADJOINT_MAX_TERMS` terms is an error.
    """
    n = len(table.basis)
    eps = Expr.atom(epsilon)
    v = _unit(n, v_index)
    totals = [Expr.ZERO] * n

    for j in range(n):
        weight = w_coords[j]
        w_expr = weight if isinstance(weight, Expr) else Expr.from_scalar(weight)
        if w_expr.is_zero():
            continue
        current = _unit(n, j)
        # eigenvector case: [v, e_j] = c e_j
        image = table.bracket(v, current)
        eigen = None
        if all(image[k].is_zero() for k in range(n) if k != j):
            eigen = image[j]
        if eigen is not None and not eigen.is_zero():
            factor = exp_of(-Expr.from_scalar(eigen) * eps)
            totals[j] = totals[j] + w_expr * factor
            continue
        # terminating series
        sign = ComplexRational(1)
        factorial = 1
        power = Expr.ONE
        for order in range(ADJOINT_MAX_TERMS + 1):
            scale = Expr.from_scalar(sign * Fraction(1, factorial)) * power
            for k in range(n):
                if not current[k].is_zero():
                    totals[k] = totals[k] + w_expr * scale * Expr.from_scalar(current[k])
            current = table.bracket(v, current)
            if all(c.is_zero() for c in current):
                break
            sign = -sign
            factorial *= order + 1
            power = power * eps
        else:
            raise ExprError(
                f"adjoint series of basis element {j} neither terminates nor "
                f"is eigen-diagonal within {ADJOINT_MAX_TERMS} terms"
            )
    return BasisSeries(tuple(totals))


# ---------------------------------------------------------------------------
# one-dimensional subalgebra classification
# ---------------------------------------------------------------------------


@dataclass
class NormalizationRecord:
    triple: tuple[Fraction, Fraction, Fraction]
    maps: list  # [(generator index in 1-based labels, Fraction eps)]
    scale: Fraction
    representative: str
    alpha: Fraction | None
    killing_sign: int
    verified: bool
    case: str


@dataclass
class OptimalSystemReport:
    table: StructureTable
    central: tuple[str, ...]
    representative_killing: dict
    separation_notes: list[str]
    records: list[NormalizationRecord]

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.records)


def _killing_on_span(table: StructureTable, triple: Sequence[Fraction]) -> Fraction:
    coords = [ComplexRational(a) for a in triple] + [ComplexRational(0)] * (
        len(table.basis) - 3
    )
    value = table.killing(coords, coords)
    if value.im != 0:
        raise ExprError("Killing value of a real triple must be real")
    return Fraction(value.re)


def _apply_adjoint_rational(
    table: StructureTable, generator: int, eps: Fraction, triple
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact action of Ad(exp(eps*g)) on span{g1,g2,g3}: the Krylov series
    sum over k of (-eps)^k/k! ad_g^k w in ``Fraction`` coordinates, rational
    only when it terminates.  The symbolic :func:`adjoint` is its reference."""
    total = [Fraction(0)] * len(table.basis)
    term, weight = {j: Fraction(a) for j, a in enumerate(triple) if a}, Fraction(1)
    for order in range(ADJOINT_MAX_TERMS + 1):
        image = defaultdict(Fraction)
        for j, w in term.items():
            total[j] += weight * w
            for k, c in table.constants.get((generator, j), {}).items():
                if c.im != 0:
                    raise ExprError("rational normalization met a complex structure constant")
                image[k] += w * c.re
        term = {k: w for k, w in image.items() if w}
        if not term:
            break
        weight = -weight * eps / (order + 1)
    else:
        raise ExprError(f"adjoint series of {table.labels[generator]} is not rational in epsilon")
    if any(total[3:]):
        raise ExprError("normalization left the g1,g2,g3 span")
    return tuple(total[:3])


def normalize_triple(
    table: StructureTable, triple: Sequence[Fraction]
) -> NormalizationRecord:
    """Map a1 g1 + a2 g2 + a3 g3 to an optimal-system representative.

    Uses at most one adjoint map with an exactly solved rational parameter,
    plus an overall scaling (multiples of a generator are equivalent):

    * a2 != 0: Ad(exp(eps g3)) with eps = a1/(2 a2) kills the g1 slot,
      landing in the g2 + alpha g3 family;
    * a2 == 0, a1 != 0: Ad(exp(eps g3)) with eps = a3/a1 kills the g3 slot,
      landing on g1;
    * otherwise the element already is a multiple of g3.

    ``verified`` checks that the exact representative is reached and that
    the trace form is kept up to ``scale**2``.  ``maps`` holds at most one
    map by construction, so it is a record, not part of the check.
    """
    a1, a2, a3 = (Fraction(a) for a in triple)
    if a1 == 0 and a2 == 0 and a3 == 0:
        raise ExprError("cannot normalize the zero element")
    killing = _killing_on_span(table, (a1, a2, a3))
    eps = a1 / (2 * a2) if a2 != 0 else (a3 / a1 if a1 != 0 else 0)
    maps = [(3, eps)] if eps != 0 else []
    current = _apply_adjoint_rational(table, 2, eps, (a1, a2, a3)) if maps else (a1, a2, a3)
    if a2 != 0:
        scale = 1 / current[1]
        final = tuple(scale * c for c in current)
        alpha = final[2]
        representative = "g2 + alpha*g3"
        case = "a2 nonzero" + ("" if alpha != 0 else " (alpha = 0 boundary)")
        expected = (Fraction(0), Fraction(1), alpha)
    elif a1 != 0:
        scale = 1 / current[0]
        final = tuple(scale * c for c in current)
        alpha = None
        representative = "g1"
        case = "a1 nonzero"
        expected = (Fraction(1), Fraction(0), Fraction(0))
    else:
        scale = 1 / a3
        final = tuple(scale * c for c in current)
        alpha = None
        representative = "g3"
        case = "a3 nonzero"
        expected = (Fraction(0), Fraction(0), Fraction(1))

    killing_final = _killing_on_span(table, final)
    verified = final == expected and killing_final == killing * scale**2
    sign = 0 if killing == 0 else (1 if killing > 0 else -1)
    return NormalizationRecord(
        triple=(a1, a2, a3),
        maps=maps,
        scale=scale,
        representative=representative,
        alpha=alpha,
        killing_sign=sign,
        verified=verified,
        case=case,
    )


def verify_optimal_system(samples: int = 100, seed: int = 7) -> OptimalSystemReport:
    """Structure table plus normalization of seeded random rational triples."""
    basis = standard_generators()
    table = structure_table(basis)

    central = []
    n = len(basis)
    for i in range(3, n):
        if all(
            all(c.is_zero() for c in table.bracket_coords(i, j)) for j in range(n)
        ):
            central.append(table.labels[i])

    alpha = Parameter("alpha")
    rep_family = [Expr.ZERO, Expr.ONE, Expr.atom(alpha)] + [Expr.ZERO] * (n - 3)
    killing_family = table.killing(rep_family, rep_family)
    representative_killing = {
        "g1": _killing_on_span(table, (1, 0, 0)),
        "g3": _killing_on_span(table, (0, 0, 1)),
        "g2 + alpha*g3": killing_family,
    }
    separation_notes = [
        "sign of the trace form separates g1 (positive) from g3 (zero) and "
        "from g2 + alpha*g3 with alpha > 0 (negative)",
        "alpha = 0 reproduces the nilpotent class of g3; alpha < 0 falls in "
        "the class of g1: the family labels overlap there and coverage, not "
        "minimality, is what is certified",
    ]

    rng = random.Random(seed)
    records = []
    while len(records) < samples:
        triple = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
        )
        if all(a == 0 for a in triple):
            continue
        records.append(normalize_triple(table, triple))
    return OptimalSystemReport(
        table=table,
        central=tuple(central),
        representative_killing=representative_killing,
        separation_notes=separation_notes,
        records=records,
    )
