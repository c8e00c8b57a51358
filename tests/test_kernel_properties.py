"""Property tests for the kernel's fast paths against reference versions.

``Expr.substitute`` is checked against a per-term reference substitution
kept here, monomial products against a dict-and-sort reference product,
``ComplexRational`` against plain ``(Fraction, Fraction)`` arithmetic
and its one-denominator fields against their canonical form,
``total_derivative`` against the Leibniz and chain rules, and the parser
against strings drawn from its own grammar.  Atoms are interned, so equal
constructions must give one object.  The rational adjoint map of the
subalgebra classification is checked against the symbolic adjoint series,
also on a table with non-integer constants, the sparse trace form against
the dense sum over all Gram entries, also on rational triples, and the
normalisation of a triple against its closed form.
Symmetry verification from cached per-monomial pieces is checked against
reducing ``frechet``, and ``frechet`` against D_J formed afresh per jet.
Expressions summed in any order must be equal and print, hash and
evaluate alike.  The profile is derandomised, so every run draws the same
examples.
"""

import cmath
import math
import random
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from symflow.expr import (  # noqa: E402
    ComplexRational,
    Expr,
    ExpFactor,
    ExprError,
    IndependentVariable,
    JetCoordinate,
    Parameter,
    ParseError,
    _mono_invert,
    _mono_mul,
    exp_of,
    indep,
    jet,
    param,
    parse,
    to_text,
)
from symflow.liealg import (  # noqa: E402
    COORDINATES,
    _killing_on_span,
    adjoint,
    commutator,
    express_in_basis,
    normalize_triple,
    standard_generators,
    structure_table,
)
from symflow.linsym import UnknownFunction  # noqa: E402
from conftest import apply_adjoint_rational, hand_table  # noqa: E402

settings.register_profile(
    "kernel", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("kernel")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# Atoms that may carry negative exponents; they are only ever replaced by
# nonzero monomials, which stay invertible.
INVERTIBLE = (Parameter("alpha"), IndependentVariable("x"), JetCoordinate("u"))
POLYNOMIAL = (
    IndependentVariable("t"),
    JetCoordinate("v"),
    JetCoordinate("u", ("x",)),
    JetCoordinate("phi"),
)
ATOMS = INVERTIBLE + POLYNOMIAL

rationals = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
)
scalars = st.builds(ComplexRational, rationals, rationals)
nonzero_scalars = scalars.filter(lambda c: not c.is_zero())
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
atom_lists = st.lists(st.sampled_from(ATOMS), max_size=3)
signed_exponents = st.sampled_from((-2, -1, 1, 2))
positive_exponents = st.sampled_from((1, 2))


@st.composite
def linear_forms(draw):
    """Exp arguments: small rational combinations of x and t."""
    return draw(small_rationals) * indep("x") + draw(small_rationals) * indep("t")


@st.composite
def monomials(draw, negative=True):
    term = Expr.from_scalar(draw(nonzero_scalars))
    for atom in draw(atom_lists):
        signed = negative and atom in INVERTIBLE
        term = term * Expr.atom(atom) ** draw(signed_exponents if signed else positive_exponents)
    if draw(st.booleans()):
        term = term * exp_of(draw(linear_forms()))
    return term


@st.composite
def expressions(draw, negative=True, max_terms=4):
    total = Expr.ZERO
    for term in draw(st.lists(monomials(negative), max_size=max_terms)):
        total = total + term
    return total


polynomial_replacements = st.one_of(
    st.just(Expr.ZERO),
    expressions(negative=False, max_terms=3),
    st.builds(exp_of, linear_forms()),
)
invertible_replacements = monomials(negative=False)
replaced_atoms = st.lists(st.sampled_from(ATOMS), unique=True, max_size=4)


@st.composite
def mappings(draw):
    """Replacements for a subset of ATOMS, including 0 and Exp factors."""
    return {
        atom: draw(invertible_replacements if atom in INVERTIBLE else polynomial_replacements)
        for atom in draw(replaced_atoms)
    }


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def reference_substitute(e: Expr, mapping) -> Expr:
    """Term by term: rebuild every factor, multiply, and add up the terms."""
    result = Expr.ZERO
    for mono, coeff in e.terms:
        term = Expr.from_scalar(coeff)
        for a, n in mono:
            repl = mapping.get(a)
            if repl is not None:
                base = repl
            elif isinstance(a, ExpFactor):
                base = exp_of(reference_substitute(a.argument, mapping))
            else:
                base = Expr.atom(a)
            term = term * base**n
        result = result + term
    return result


def assert_canonical(e: Expr):
    """Sorted distinct monomials, nonzero coefficients and exponents, and
    at most one Exp factor per monomial, to the power 1, with a nonzero
    canonical argument."""
    keys = [tuple((a.sort_key(), n) for a, n in mono) for mono, _ in e.terms]
    assert keys == sorted(set(keys))
    for mono, coeff in e.terms:
        assert not coeff.is_zero()
        atom_keys = [a.sort_key() for a, _ in mono]
        assert atom_keys == sorted(set(atom_keys))
        assert all(n != 0 for _, n in mono)
        exps = [(a, n) for a, n in mono if isinstance(a, ExpFactor)]
        assert len(exps) <= 1
        for a, n in exps:
            assert n == 1 and not a.argument.is_zero()
            assert_canonical(a.argument)


@pytest.mark.parametrize(
    "e, mapping, expected",
    [
        (exp_of(indep("x")) * jet("u"), {JetCoordinate("u"): exp_of(indep("t"))},
         exp_of(indep("t") + indep("x"))),
        (exp_of(indep("x")) * jet("u"), {JetCoordinate("u"): exp_of(-indep("x"))},
         Expr.ONE),
        (exp_of(indep("x")) * jet("v"), {IndependentVariable("x"): Expr.ZERO},
         jet("v")),
        (jet("u") ** -2 * jet("v"), {JetCoordinate("u"): 3 * indep("t")},
         Fraction(1, 9) * indep("t") ** -2 * jet("v")),
        (jet("u") * jet("v") + jet("v"), {JetCoordinate("u"): Expr.ZERO}, jet("v")),
        (indep("x") ** -1 * indep("t"), {IndependentVariable("t"): indep("x") + 1},
         1 + indep("x") ** -1),
    ],
)
def test_substitute_exp_and_zero_cases(e, mapping, expected):
    assert_canonical(e.substitute(mapping))
    assert e.substitute(mapping) == expected
    assert reference_substitute(e, mapping) == expected


def test_substitute_zero_into_negative_power_is_an_error():
    e = jet("u") ** -1 * jet("v")
    with pytest.raises(ExprError):
        e.substitute({JetCoordinate("u"): Expr.ZERO})


_rng = random.Random(11)
VALUES = {
    a: cmath.rect(0.6 + 0.6 * _rng.random(), 6.283185307179586 * _rng.random())
    for a in ATOMS
}


# ---------------------------------------------------------------------------
# order-free term store
# ---------------------------------------------------------------------------


@given(st.lists(monomials(), max_size=6), st.data())
def test_terms_added_in_any_order_give_one_expression(summands, data):
    """An Expr keeps its terms in construction order; every view that must
    come out the same in each run reads the sorted view."""
    cancelled = data.draw(st.integers(0, len(summands)))
    summands = summands + [-term for term in summands[:cancelled]]
    first = sum(summands, Expr.ZERO)
    second = sum(data.draw(st.permutations(summands)), Expr.ZERO)
    assert_canonical(first)
    assert first == second
    assert first.terms == second.terms
    assert to_text(first) == to_text(second)
    assert hash(first) == hash(second)
    assert first.sort_key() == second.sort_key()
    assert repr(first.eval_numeric(VALUES)) == repr(second.eval_numeric(VALUES))


@settings(max_examples=200)
@given(expressions(), mappings())
def test_substitute_matches_reference_and_evaluation(e, mapping):
    substituted = e.substitute(mapping)
    assert_canonical(substituted)
    assert substituted == reference_substitute(e, mapping)

    # eval(e.substitute(m)) is e evaluated at the values of m
    at_replacements = dict(VALUES)
    at_replacements.update({a: r.eval_numeric(VALUES) for a, r in mapping.items()})
    expected = e.eval_numeric(at_replacements)
    got = substituted.eval_numeric(VALUES)
    # Terms may cancel, so the rounding error scales with their sizes.
    size = sum(abs(Expr((t,)).eval_numeric(VALUES)) for t in substituted.terms)
    size += sum(abs(Expr((t,)).eval_numeric(at_replacements)) for t in e.terms)
    assert abs(got - expected) <= 1e-12 * (1 + size)


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


def reference_power(e: Expr, n: int) -> Expr:
    """``n`` factors of ``e`` multiplied left to right, from ``Expr.ONE``."""
    out = Expr.ONE
    for _ in range(n):
        out = out * e
    return out


def reference_inverse(e: Expr) -> Expr:
    """The inverse of a monomial, built factor by factor with no power taken."""
    (mono, coeff), = e.terms
    out = Expr.from_scalar(coeff.inverse())
    for a, n in mono:
        if isinstance(a, ExpFactor):
            out = out * exp_of(-a.argument)
        else:
            out = out * Expr(((((a, -n),), ComplexRational(1)),))
    return out


@given(expressions(), st.integers(0, 6))
def test_power_matches_left_to_right_product(e, n):
    power = e**n
    assert_canonical(power)
    assert power == reference_power(e, n)
    assert e**1 is e


@given(monomials(), st.integers(1, 6))
def test_negative_power_of_monomial_matches_reference(e, n):
    power = e**-n
    assert_canonical(power)
    assert power == reference_power(reference_inverse(e), n)
    assert power * e**n == Expr.ONE


@pytest.mark.parametrize("n, products", [(1, 0), (2, 1), (5, 3), (8, 3)])
def test_power_forms_only_the_products_it_needs(monkeypatch, n, products):
    """``bit_length(n) - 1`` squares plus ``popcount(n) - 1`` products."""
    calls = []
    multiply = Expr.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(Expr, "__mul__", counted)
    power = indep("x") ** n
    monkeypatch.undo()
    assert len(calls) == products
    assert power == reference_power(indep("x"), n)


# ---------------------------------------------------------------------------
# interned atoms and monomial products
# ---------------------------------------------------------------------------


def copied(name: str) -> str:
    """An equal string that is a different object whenever it can be."""
    return "".join(list(name))


@given(st.sampled_from(("alpha", "beta", "lambda", "c1", "x", "t")))
def test_named_atoms_are_one_object_per_name(name):
    assert Parameter(copied(name)) is Parameter(name)
    assert IndependentVariable(copied(name)) is IndependentVariable(name)
    assert Parameter(name) is not IndependentVariable(name)
    assert Parameter(name) != IndependentVariable(name)


indices = st.lists(st.sampled_from(("x", "t")), max_size=4)


@given(st.sampled_from(("u", "v", "phi", "psi", "f")), indices, indices, st.data())
def test_jet_coordinates_are_one_object_per_index_multiset(name, index, other, data):
    jet_atom = JetCoordinate(name, index)
    assert JetCoordinate(copied(name), data.draw(st.permutations(index))) is jet_atom
    assert jet_atom.extended("x") is JetCoordinate(name, ["x", *index])
    same = sorted(index) == sorted(other)
    assert (JetCoordinate(name, other) is jet_atom) == same
    assert (JetCoordinate(name, other) == jet_atom) == same


@given(linear_forms(), linear_forms(), small_rationals)
def test_exp_factors_of_equal_arguments_are_one_object(a, b, c):
    direct = ExpFactor(a + b)
    assert ExpFactor(3 * a - b * c + (c + 1) * b - 2 * a) is direct
    assert ExpFactor(-(a + b)) is ExpFactor(Expr.ZERO - b - a)
    product = exp_of(a) * exp_of(b)
    if not (a + b).is_zero():
        (mono, _coeff), = product.terms
        assert mono == ((direct, 1),) and mono[0][0] is direct
        (inverse, _coeff), = (product**-1).terms
        assert inverse[0][0] is ExpFactor(-a - b)


unknown_deps = st.lists(st.sampled_from(COORDINATES), min_size=1, max_size=4, unique=True)


@given(st.sampled_from(("X", "T", "U")), unknown_deps, unknown_deps, st.data())
def test_unknown_functions_are_one_object_per_name_deps_and_index(name, deps, other, data):
    deps, other = tuple(deps), tuple(other)
    index = data.draw(st.lists(st.sampled_from(deps), max_size=3))
    unknown = UnknownFunction(name, deps, index)
    again = UnknownFunction(copied(name), tuple(list(deps)), data.draw(st.permutations(index)))
    assert again is unknown
    assert (UnknownFunction(name, other) is UnknownFunction(name, deps)) == (deps == other)
    assert (UnknownFunction(name, other) == UnknownFunction(name, deps)) == (deps == other)


def test_unknown_functions_with_different_deps_are_distinct():
    coupled = UnknownFunction("X", COORDINATES[:6])
    prolonged = UnknownFunction("X", COORDINATES)
    assert coupled is not prolonged and coupled != prolonged
    assert len({coupled, prolonged}) == 2
    # the chain rule over deps is why deps belong to the key
    assert "Diff(f,x)" in str(prolonged.d_total("x"))
    assert "Diff(f,x)" not in str(coupled.d_total("x"))


PRODUCT_ATOMS = ATOMS + (
    UnknownFunction("X", COORDINATES),
    UnknownFunction("X", COORDINATES, ("u",)),
    UnknownFunction("X", COORDINATES[:6]),
)


@st.composite
def product_monomials(draw):
    """Monomials over every atom kind, any exponent sign, maybe an Exp."""
    term = Expr.ONE
    for atom in draw(st.lists(st.sampled_from(PRODUCT_ATOMS), max_size=4)):
        term = term * Expr.atom(atom) ** draw(signed_exponents)
    if draw(st.booleans()):
        term = term * exp_of(draw(linear_forms()))
    (mono, _coeff), = term.terms
    return mono


def reference_mono_mul(m1, m2):
    """Exponents added in a dict by atom key, Exp arguments added up, then
    one sort by key: no merge, no identity test."""
    powers = {}
    exp_argument = Expr.ZERO
    for a, n in m1 + m2:
        if isinstance(a, ExpFactor):
            exp_argument = exp_argument + n * a.argument
        else:
            atom, k = powers.get(a.sort_key(), (a, 0))
            powers[a.sort_key()] = (atom, k + n)
    factors = [(a, n) for a, n in powers.values() if n]
    if not exp_argument.is_zero():
        factors.append((ExpFactor(exp_argument), 1))
    return tuple(sorted(factors, key=lambda f: f[0].sort_key()))


@settings(max_examples=200)
@given(product_monomials(), product_monomials())
def test_monomial_product_matches_reference(m1, m2):
    product = _mono_mul(m1, m2)
    want = reference_mono_mul(m1, m2)
    assert [(a.sort_key(), n) for a, n in product] == [(a.sort_key(), n) for a, n in want]
    assert all(a is b for (a, _), (b, _) in zip(product, want))
    assert _mono_mul(m2, m1) == product
    assert _mono_mul(m1, _mono_invert(m1)) == ()


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def parts(c: ComplexRational) -> tuple[Fraction, Fraction]:
    return Fraction(c.re), Fraction(c.im)


def assert_normalised(c: ComplexRational):
    for part in (c.re, c.im):
        assert type(part) is int or (type(part) is Fraction and part.denominator != 1)


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@given(scalars, scalars)
def test_coefficient_ring_operations(a, b):
    ra, rb = parts(a), parts(b)
    for got, want in (
        (a + b, (ra[0] + rb[0], ra[1] + rb[1])),
        (a - b, (ra[0] - rb[0], ra[1] - rb[1])),
        (a * b, ref_mul(ra, rb)),
        (-a, (-ra[0], -ra[1])),
    ):
        assert_normalised(got)
        assert parts(got) == want


@given(scalars, rationals)
def test_coefficient_mixes_with_plain_rationals(a, q):
    ra = parts(a)
    assert parts(a + q) == (ra[0] + q, ra[1])
    assert parts(a * q) == (ra[0] * q, ra[1] * q)
    assert (ComplexRational(q) == q) and (a == q) == (ra == (Fraction(q), 0))


@given(nonzero_scalars, st.integers(-6, 6))
def test_coefficient_inverse_and_powers(a, n):
    ra = parts(a)
    norm = ra[0] ** 2 + ra[1] ** 2
    inverse = a.inverse()
    assert_normalised(inverse)
    assert parts(inverse) == (ra[0] / norm, -ra[1] / norm)
    want = (Fraction(1), Fraction(0))
    base = ra if n >= 0 else parts(inverse)
    for _ in range(abs(n)):
        want = ref_mul(want, base)
    power = a**n
    assert_normalised(power)
    assert parts(power) == want
    assert a**1 is a


@given(scalars, scalars)
def test_coefficient_equality_hash_and_key(a, b):
    ra, rb = parts(a), parts(b)
    assert (a == b) == (ra == rb)
    assert hash(a) == (hash(ra) if ra[1] else hash(ra[0]))
    assert a.key() == (ra[0].numerator, ra[0].denominator, ra[1].numerator, ra[1].denominator)
    assert ComplexRational(*ra) == a and hash(ComplexRational(*ra)) == hash(a)


def test_coefficient_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ComplexRational(0).inverse()


def assert_canonical_fields(c: ComplexRational):
    """(a + b*i) / d with int fields, d > 0 and gcd(a, b, d) == 1."""
    assert type(c.a) is int and type(c.b) is int and type(c.d) is int
    assert c.d > 0 and math.gcd(c.a, c.b, c.d) == 1


@given(scalars, scalars, nonzero_scalars, st.integers(-6, 6))
def test_coefficient_fields_stay_canonical(a, b, nonzero, n):
    for c in (a, a + b, a - b, a * b, -a, a + 3, a * Fraction(2, 3),
              nonzero.inverse(), nonzero**n, a ** abs(n)):
        assert_canonical_fields(c)


@given(scalars, nonzero_scalars)
def test_equal_values_built_by_different_routes_are_one_value(a, b):
    for x, y in (
        (ComplexRational(Fraction(1, 2)) * 2, ComplexRational(1)),
        (ComplexRational(Fraction(1, 6)) + Fraction(1, 3), ComplexRational(Fraction(1, 2))),
        (ComplexRational(0, Fraction(2, 3)).inverse(), ComplexRational(0, Fraction(-3, 2))),
        (a * b * b.inverse(), a),
        (a + b - b, a),
    ):
        assert x == y and hash(x) == hash(y) and x.key() == y.key()
        assert (x.a, x.b, x.d) == (y.a, y.b, y.d)


big_rationals = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
big_scalars = st.builds(ComplexRational, big_rationals, big_rationals)


@given(st.one_of(scalars, big_scalars), st.one_of(scalars, big_scalars))
def test_to_complex_is_the_float_of_each_part(a, b):
    # a product's parts share factors with its one denominator
    for c in (a, a * b):
        z, want = c.to_complex(), complex(float(c.re), float(c.im))
        assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())


# ---------------------------------------------------------------------------
# total derivative
# ---------------------------------------------------------------------------


@given(expressions(), expressions(), st.sampled_from(("x", "t")))
def test_total_derivative_is_a_derivation(a, b, direction):
    def d(e):
        return e.total_derivative(direction)

    assert d(a + b) == d(a) + d(b)
    assert d(a * b) == d(a) * b + a * d(b)
    assert d(a**2) == 2 * a * d(a)
    assert d(a.total_derivative("t")) == d(a).total_derivative("t")


@given(invertible_replacements, linear_forms(), small_rationals, st.sampled_from(("x", "t")))
def test_total_derivative_chain_rule(m, form, c, direction):
    def d(e):
        return e.total_derivative(direction)

    assert d(m**-2) == -2 * m**-3 * d(m)
    argument = form + c * jet("u")
    assert d(exp_of(argument)) == exp_of(argument) * d(argument)


# ---------------------------------------------------------------------------
# parser: strings drawn from its grammar
# ---------------------------------------------------------------------------

# Identifiers and derivative atoms the drawn strings use, with the atom each
# one denotes; the invertible ones may carry negative exponents.
INVERTIBLE_NAMES = {"x": indep("x"), "alpha": param("alpha"), "u": jet("u")}
GRAMMAR_LEAVES = {
    **INVERTIBLE_NAMES,
    "t": indep("t"),
    "beta": param("beta"),
    "v": jet("v"),
    "phi": jet("phi"),
    "Diff(u,x)": jet("u", "x"),
    "Diff( v , x, x )": jet("v", "x", "x"),
    "Diff(phi,t,x)": jet("phi", "x", "t"),
}
POINT = {
    next(iter(e.atoms())): cmath.rect(0.6 + 0.6 * _rng.random(), 6.283185307179586 * _rng.random())
    for e in GRAMMAR_LEAVES.values()
}
spaces = st.sampled_from(("", " "))


def value_of(leaf: str) -> complex:
    return POINT[next(iter(GRAMMAR_LEAVES[leaf].atoms()))]


# Each strategy draws (text, value, size): the string, its value at POINT
# computed along the grammar's own structure, and the same with every
# number replaced by its modulus (an upper bound on the terms the
# canonical form adds up, which sets the rounding tolerance).


@st.composite
def grammar_atoms(draw, depth):
    kinds = ("int", "leaf", "I") + (("paren", "exp") if depth else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        n = draw(st.integers(0, 12))
        return str(n), n, n
    if kind == "leaf":
        leaf = draw(st.sampled_from(sorted(GRAMMAR_LEAVES)))
        return leaf, value_of(leaf), abs(value_of(leaf))
    if kind == "I":
        return "I", 1j, 1
    if kind == "paren":
        text, value, size = draw(grammar_sums(depth - 1))
        return f"({draw(spaces)}{text})", value, size
    leaf = draw(st.sampled_from(sorted(GRAMMAR_LEAVES)))
    scale = draw(st.integers(1, 3))
    value = value_of(leaf)
    return f"Exp({scale}*{leaf})", cmath.exp(scale * value), cmath.exp(scale * abs(value)).real


@st.composite
def grammar_powers(draw, depth):
    if draw(st.booleans()):
        leaf = draw(st.sampled_from(sorted(INVERTIBLE_NAMES)))
        n = draw(st.sampled_from((-2, -1, 2)))
        return f"{leaf}^{n}", value_of(leaf) ** n, abs(value_of(leaf)) ** n
    text, value, size = draw(grammar_atoms(depth))
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        return f"{text}{draw(spaces)}^{draw(spaces)}{n}", value**n, size**n
    return text, value, size


@st.composite
def grammar_unaries(draw, depth):
    sign = draw(st.sampled_from(("", "-", "+", "--")))
    text, value, size = draw(grammar_powers(depth))
    return sign + text, -value if sign == "-" else value, size


@st.composite
def grammar_terms(draw, depth):
    text, value, size = draw(grammar_unaries(depth))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            rhs, rhs_value, rhs_size = draw(grammar_unaries(depth))
            text = f"{text}{draw(spaces)}*{draw(spaces)}{rhs}"
            value, size = value * rhs_value, size * rhs_size
        else:
            n = draw(st.integers(1, 9))
            text, value, size = f"{text}/{n}", value / n, size / n
    return text, value, size


@st.composite
def grammar_sums(draw, depth=2):
    text, value, size = draw(grammar_terms(depth))
    for _ in range(draw(st.integers(0, 2))):
        rhs, rhs_value, rhs_size = draw(grammar_terms(depth))
        op = draw(st.sampled_from("+-"))
        text = f"{text}{draw(spaces)}{op}{draw(spaces)}{rhs}"
        value = value + rhs_value if op == "+" else value - rhs_value
        size += rhs_size
    return text, value, size


@given(grammar_sums())
def test_grammar_strings_parse_and_round_trip(drawn):
    text, value, size = drawn
    e = parse(text)
    assert parse(to_text(e)) == e
    assert to_text(parse(to_text(e))) == to_text(e)
    assert abs(e.eval_numeric(POINT) - value) <= 1e-9 * (1 + size)


# grammar characters mixed with non-ASCII spaces, digits and letters; no
# '^', so that no drawn string asks for a huge power
near_grammar = st.lists(
    st.sampled_from(
        [*"uvxt+-*/(),I0123456789 \t\n", "Diff", "Exp"]
        + ["\u3000", "\u00a0", "\u2028", "\u0663", "\u00b2", "\u00e9", "\U0001d465"]
    ),
    max_size=20,
).map("".join)


@given(near_grammar)
def test_parse_error_offset_is_a_byte_offset(text):
    try:
        parse(text)
    except ParseError as err:
        assert len(text[: err.offset].encode()) == err.offset


# ---------------------------------------------------------------------------
# rational adjoint map and sparse trace form against their references
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table():
    return structure_table(standard_generators())


triples = st.tuples(rationals, rationals, rationals)


@given(st.integers(1, 5), triples, rationals)
def test_rational_adjoint_matches_the_symbolic_series(table, generator, triple, eps):
    """Ad(exp(eps*g)) for g2..g6 at a rational eps, against the symbolic
    series with eps substituted."""
    epsilon = Parameter("epsilon")
    coords = [Expr.from_scalar(a) for a in triple] + [Expr.ZERO] * 3
    series = adjoint(table, generator, coords, epsilon)
    expected = [c.substitute({epsilon: Expr.from_scalar(eps)}) for c in series]
    image = apply_adjoint_rational(table, generator, eps, triple)
    assert all(type(a) is Fraction for a in image)
    assert expected == [Expr.from_scalar(a) for a in image] + [Expr.ZERO] * 3


#: a nilpotent algebra whose constants are not integers: ad_g4 walks
#: g1 -> g2 -> g3 with denominators 3 and 4, and [g1, g2] = (7/5) g3
NON_INTEGER_BRACKETS = {
    (0, 1): {2: Fraction(7, 5)},
    (0, 3): {1: Fraction(-2, 3)},
    (1, 3): {2: Fraction(-5, 4)},
}


@given(st.integers(0, 3), triples, rationals)
def test_rational_adjoint_keeps_non_integer_constants_exact(generator, triple, eps):
    table = hand_table(4, NON_INTEGER_BRACKETS)
    epsilon = Parameter("epsilon")
    coords = [Expr.from_scalar(a) for a in triple] + [Expr.ZERO]
    series = adjoint(table, generator, coords, epsilon)
    expected = [c.substitute({epsilon: Expr.from_scalar(eps)}) for c in series]
    image = apply_adjoint_rational(table, generator, eps, triple)
    assert expected == [Expr.from_scalar(a) for a in image] + [Expr.ZERO]


@given(triples.filter(lambda t: t[1] != 0 or t[2] != 0), rationals.filter(bool))
def test_rational_adjoint_of_g1_is_refused(table, triple, eps):
    """Ad(exp(eps*g1)) scales g2 and g3 by exp(-/+eps), irrational at eps != 0."""
    with pytest.raises(ExprError, match="not rational in epsilon"):
        apply_adjoint_rational(table, 0, eps, triple)


@pytest.fixture(scope="module")
def dense_gram(table):
    """All 36 entries tr(ad_i ad_j) = sum over r, s of c_is^r c_jr^s, zeros
    included, with every c_ij read from the commutator of the fields, not
    from the table under test."""
    basis = table.basis
    n = range(len(basis))
    images = iter(express_in_basis([commutator(basis[i], basis[j]) for i in n for j in n], basis))
    c = [[next(images) for _ in n] for _ in n]
    return [
        [sum((c[i][s][r] * c[j][r][s] for r in n for s in n), ComplexRational(0)) for j in n]
        for i in n
    ]


def dense_killing(gram, a, b):
    terms = [a[i] * b[j] * g for i, row in enumerate(gram) for j, g in enumerate(row)]
    return sum(terms[1:], terms[0])


six_scalars = st.lists(scalars, min_size=6, max_size=6)


@given(six_scalars, six_scalars)
def test_sparse_trace_form_matches_dense_sum(table, dense_gram, a, b):
    """Scalar coordinates, and the same coordinates times one atom each."""
    value = table.killing(a, b)
    assert isinstance(value, ComplexRational)
    assert value == dense_killing(dense_gram, a, b)
    a, b = ([Expr.from_scalar(c) * Expr.atom(atom) for c, atom in zip(v, ATOMS)] for v in (a, b))
    value = table.killing(a, b)
    assert isinstance(value, Expr)
    assert value == dense_killing(dense_gram, a, b)


six_ints = st.lists(st.integers(-40, 40), min_size=6, max_size=6)


@given(six_ints, six_ints)
def test_integer_trace_form_matches_dense_sum(table, dense_gram, a, b):
    """int coordinates are summed in integers over the one Gram: the same
    value as the dense sum and as the coordinates given as ComplexRationals."""
    value = table.killing(a, b)
    assert type(value) is ComplexRational
    a_cr, b_cr = ([ComplexRational(c) for c in v] for v in (a, b))
    assert value == dense_killing(dense_gram, a_cr, b_cr)
    assert value == table.killing(a_cr, b_cr)


#: an sl(2) with rational constants, so its Gram has a denominator
RATIONAL_SL2_BRACKETS = {
    (0, 1): {1: Fraction(1, 3)},
    (0, 2): {2: Fraction(-1, 3)},
    (1, 2): {0: Fraction(-2, 5)},
}


@given(st.lists(st.integers(-40, 40), min_size=3, max_size=3),
       st.lists(scalars, min_size=3, max_size=3))
def test_integer_trace_form_divides_by_the_gram_denominator(ints, others):
    table = hand_table(3, RATIONAL_SL2_BRACKETS)
    assert table.gram[1] > 1
    n, zero = range(3), ComplexRational(0)
    c = [[table.constants.get((i, j), {}) for j in n] for i in n]
    gram = [
        [sum((c[i][s].get(r, zero) * c[j][r].get(s, zero) for r in n for s in n), zero)
         for j in n]
        for i in n
    ]
    as_cr = [ComplexRational(k) for k in ints]
    assert table.killing(ints, ints) == dense_killing(gram, as_cr, as_cr)
    assert table.killing(as_cr, others) == dense_killing(gram, as_cr, others)


@pytest.mark.parametrize("which", ["g1..g6", "non-integer"])
def test_integer_ad_rows_are_the_cleared_constants_built_once(which):
    """Each cached row of L ad_g is L times g's structure constants, with L
    the lcm of their denominators; later reads return the same rows."""
    if which == "g1..g6":
        table, rational = structure_table(standard_generators()), range(1, 6)
    else:
        table, rational = hand_table(4, NON_INTEGER_BRACKETS), range(4)
    n = len(table.basis)
    first = [table.integer_ad(g) for g in range(n)]
    for g, (rows, clear) in enumerate(first):
        constants = [table.constants.get((g, j), {}) for j in range(n)]
        assert clear == lcm(*(c.d for row in constants for c in row.values()))
        assert all(type(m) is int for row in rows for _, m in row)
        assert [{k: ComplexRational(m) for k, m in row} for row in rows] == [
            {k: c * clear for k, c in row.items()} for row in constants
        ]
    for g in rational:
        for triple in ((1, 2, 3), (Fraction(-3, 4), 0, Fraction(5, 7))):
            apply_adjoint_rational(table, g, Fraction(2, 3), triple)
    assert all(table.integer_ad(g) is first[g] for g in range(n))


fractions_with_denominators = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30))


@given(st.tuples(*[fractions_with_denominators] * 3))
def test_trace_form_of_a_rational_triple_matches_dense_sum(table, dense_gram, triple):
    coords = [ComplexRational(a) for a in triple] + [ComplexRational(0)] * 3
    value = _killing_on_span(table, triple)
    assert type(value) is Fraction
    assert dense_killing(dense_gram, coords, coords) == value


@st.composite
def alpha_zero_triples(draw):
    """a2 != 0 and K = 2 a1^2 - 8 a2 a3 = 0: the family's alpha = 0 boundary."""
    a1, a2 = draw(rationals), draw(rationals.filter(bool))
    return (a1, a2, Fraction(a1) ** 2 / (4 * a2))


@given(st.one_of(triples.filter(any), alpha_zero_triples()))
def test_normalization_matches_the_closed_form(table, triple):
    """The representative, alpha, scale, map and trace-form sign of
    a1 g1 + a2 g2 + a3 g3, from K = 2 a1^2 - 8 a2 a3 alone."""
    a1, a2, a3 = (Fraction(a) for a in triple)
    killing = 2 * a1**2 - 8 * a2 * a3
    if a2:
        want = ("g2 + alpha*g3", -killing / (8 * a2**2), 1 / a2, a1 / (2 * a2))
    elif a1:
        want = ("g1", None, 1 / a1, a3 / a1)
    else:
        want = ("g3", None, 1 / a3, 0)
    record = normalize_triple(table, triple)
    assert (record.representative, record.alpha, record.scale) == want[:3]
    assert record.maps == ([(3, want[3])] if want[3] else [])
    assert record.killing_sign == (killing > 0) - (killing < 0)
    assert record.verified
    assert record.case.endswith("(alpha = 0 boundary)") == (want[1] == 0)
    exact = [*record.triple, record.scale] + [eps for _, eps in record.maps]
    assert all(type(x) is Fraction for x in exact)
    assert record.alpha is None or type(record.alpha) is Fraction


# ---------------------------------------------------------------------------
# on-shell linearization: cached pieces against frechet, frechet against D_J
# ---------------------------------------------------------------------------

# Parameters, x and t may carry negative powers (no total derivative or
# reduction divides by them); jets appear to positive powers, phi and its
# derivatives among them, which reduce on the prolonged system only.
CHARACTERISTIC_INVERTIBLE = (
    Parameter("alpha"), Parameter("beta"), Parameter("c1"),
    IndependentVariable("x"), IndependentVariable("t"),
)
CHARACTERISTIC_JETS = (
    JetCoordinate("u"), JetCoordinate("v"), JetCoordinate("u", ("x",)),
    JetCoordinate("v", ("x", "x")), JetCoordinate("phi"), JetCoordinate("phi", ("x",)),
    JetCoordinate("psi"), JetCoordinate("f"),
)


@st.composite
def characteristic_terms(draw):
    """c * p * m: any of its factors may be missing, m may hold an Exp."""
    term = Expr.from_scalar(draw(nonzero_scalars))
    for atom in draw(st.lists(st.sampled_from(CHARACTERISTIC_INVERTIBLE), max_size=2)):
        term = term * Expr.atom(atom) ** draw(signed_exponents)
    for atom in draw(st.lists(st.sampled_from(CHARACTERISTIC_JETS), max_size=2)):
        term = term * Expr.atom(atom) ** draw(positive_exponents)
    if draw(st.integers(0, 3)) == 0:
        term = term * exp_of(draw(linear_forms()) + draw(small_rationals) * param("lambda") * indep("x"))
    return term


characteristic_components = st.lists(characteristic_terms(), max_size=3).map(
    lambda terms: sum(terms, Expr.ZERO)
)
characteristics = st.fixed_dictionaries(
    {name: characteristic_components for name in ("u", "v", "phi", "psi", "f")}
)


def reference_frechet(system, sigma, equations):
    """dF/dw_J * D_J(sigma_w) summed, every D_J formed from sigma_w afresh."""
    out = []
    for index in equations:
        equation = system.equations[index]
        total = Expr.ZERO
        for a in equation.jet_atoms():
            if a.name in system.dependent_names:
                total = total + equation.diff(a) * sigma[a.name].total_derivative_along(a.index)
        out.append(total)
    return out


@st.composite
def equation_selections(draw, count):
    """None (every equation) or distinct indices in any order."""
    if draw(st.booleans()):
        return None
    return tuple(draw(st.lists(st.integers(0, count - 1), unique=True, min_size=1, max_size=3)))


# Shrinking a failing characteristic runs into hypothesis's five-minute
# limit, so a failure reports the example as drawn.
@settings(max_examples=25, phases=(Phase.explicit, Phase.generate))
@given(st.lists(st.tuples(characteristics, st.booleans(), st.data()), min_size=1, max_size=2))
def test_cached_linearization_matches_reducing_frechet(hirota, prolonged, checks):
    """Each characteristic is checked on both systems, in a drawn order:
    equation 0 is the same Expr in both, but the closures differ (phi_x
    reduces on the prolonged system only), so a piece of one must never
    serve the other."""
    from symflow.linsym import frechet, verify_symmetry

    for sigma, prolonged_first, data in checks:
        for system in (prolonged, hirota) if prolonged_first else (hirota, prolonged):
            equations = data.draw(equation_selections(len(system.equations)))
            selected = range(len(system.equations)) if equations is None else equations
            linearized = frechet(system, sigma, equations)
            assert linearized == reference_frechet(system, sigma, selected)
            check = verify_symmetry(system, sigma, equations)
            expected = tuple(system.reduce(r) for r in linearized)
            assert check.residuals == expected
            assert [to_text(r) for r in check.residuals] == [to_text(r) for r in expected]
            assert check.holds == all(r.is_zero() for r in expected)
