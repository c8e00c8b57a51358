import functools
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from symflow import liealg
from symflow.cli import main
from symflow.expr import ComplexRational, Expr, ExprError, Parameter, jet, param, parse
from symflow.liealg import (
    StructureTable,
    VectorField,
    _check_jacobi,
    adjoint,
    commutator,
    express_in_basis,
    family_vector_field,
    normalize_triple,
    standard_generators,
    structure_table,
    vector_field,
    verify_optimal_system,
)
from conftest import apply_adjoint_rational, hand_table, random_expr


@pytest.fixture(scope="module")
def basis():
    return standard_generators()


@pytest.fixture(scope="module")
def table(basis):
    return structure_table(basis)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def test_point_field_rejects_derivative_coordinates():
    with pytest.raises(ExprError, match="point fields"):
        VectorField({"u": jet("u", "x")})


def test_characteristic_has_a_component_for_every_dependent():
    sigma = VectorField({"t": Expr.ONE}).characteristic()
    assert sigma == {name: jet(name, "t") for name in ("u", "v", "phi", "psi", "f")}


def test_translations_commute(basis):
    assert commutator(basis[4], basis[5]) == VectorField({})


def test_scaling_acts_on_translation_of_potential(basis):
    g1, g3 = basis[0], basis[2]
    assert commutator(g1, g3) == g3.scaled(Expr.from_scalar(-1))


def test_localized_generator_against_potential_translation(basis):
    g1, g2, g3 = basis[0], basis[1], basis[2]
    assert commutator(g2, g3) == g1.scaled(Expr.from_scalar(-2))
    assert commutator(g1, g2) == g2


def test_structure_table_matches_hand_expansion(table):
    expected = {
        (0, 1): (0, 1, 0, 0, 0, 0),
        (0, 2): (0, 0, -1, 0, 0, 0),
        (1, 2): (-2, 0, 0, 0, 0, 0),
    }
    pairs = list(itertools.combinations(range(6), 2))
    assert len(pairs) == 15
    for i, j in pairs:
        row = table.constants.get((i, j), {})
        coords = [row.get(k, 0) for k in range(6)]
        want = expected.get((i, j), (0,) * 6)
        assert all(c == w for c, w in zip(coords, want)), (i, j)
    assert all(not c.is_zero() for row in table.constants.values() for c in row.values())


def test_last_three_generators_are_central(table):
    n = len(table.basis)
    unit = lambda i: tuple(ComplexRational(int(k == i)) for k in range(n))
    for i in (3, 4, 5):
        for j in range(n):
            assert (i, j) not in table.constants and (j, i) not in table.constants
            assert all(c == 0 for c in table.bracket(unit(i), unit(j)))
            assert all(c == 0 for c in table.bracket(unit(j), unit(i)))


def test_constants_are_antisymmetric(table):
    for (i, j), row in table.constants.items():
        assert table.constants[j, i] == {k: -c for k, c in row.items()}


def test_table_takes_only_brackets_above_the_diagonal():
    with pytest.raises(ExprError, match=r"bracket \(1,0\) given"):
        hand_table(2, {(1, 0): {1: 1}})


def test_bracket_matches_the_commutator_of_combinations(table, basis):
    """[a, b] from the sparse constants against the commutator of the fields
    sum a_i g_i and sum b_j g_j, expressed back in the basis."""
    def combination(coords):
        return functools.reduce(
            operator.add, (g.scaled(Expr.from_scalar(c)) for g, c in zip(basis, coords))
        )

    rng = random.Random(13)
    for _ in range(12):
        a, b = (
            [ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in basis]
            for _ in range(2)
        )
        (expected,) = express_in_basis([commutator(combination(a), combination(b))], basis)
        assert list(table.bracket(a, b)) == expected


def test_bracket_bilinearity_and_antisymmetry_on_random_fields():
    rng = random.Random(41)
    coords = ("u", "v", "phi", "psi", "f")
    pool = tuple(jet(c).terms[0][0][0][0] for c in coords)  # order-0 atoms
    for _ in range(15):
        a = VectorField({c: random_expr(rng, terms=2, atoms=pool) for c in coords})
        b = VectorField({c: random_expr(rng, terms=2, atoms=pool) for c in coords})
        c_field = VectorField({c: random_expr(rng, terms=2, atoms=pool) for c in coords})
        scale = Expr.from_scalar(Fraction(2, 3))
        lhs = commutator(a.scaled(scale) + b, c_field)
        rhs = commutator(a, c_field).scaled(scale) + commutator(b, c_field)
        assert lhs == rhs
        swap = commutator(c_field, a.scaled(scale) + b)
        assert lhs == swap.scaled(Expr.from_scalar(-1))


def test_jacobi_failure_names_its_triple():
    # [e1,e2] = e2 and [e2,e3] = e3 with e0 central: the cyclic sum on
    # (1,2,3) is [e2,e3] = e3, every triple holding e0 sums to 0
    table = hand_table(4, {(1, 2): {2: 1}, (2, 3): {3: 1}})
    with pytest.raises(ExprError, match=r"fails on triple \(1,2,3\)"):
        _check_jacobi(table)


def test_bracket_outside_span_is_reported():
    fields = (vector_field(u="1"), vector_field(u="u^2"))
    with pytest.raises(ExprError, match="outside the span"):
        structure_table(fields)


def test_express_in_basis_exact(basis):
    combo = basis[0].scaled(Expr.from_scalar(Fraction(1, 2))) + basis[3].scaled(
        Expr.from_scalar(-3)
    )
    coords, outside, zero = express_in_basis([combo, vector_field(u="u^2"), VectorField({})], basis)
    assert coords == [Fraction(1, 2), 0, 0, -3, 0, 0]
    assert outside is None
    assert zero == [0] * len(basis)


def test_a_dependent_basis_is_refused_and_named(basis):
    g1, g2, g3 = basis[:3]
    with pytest.raises(ExprError, match="basis element g4 lies in the span") as err:
        structure_table([g1, g2, g3, g1 + g2])
    assert "\n" not in str(err.value)
    with pytest.raises(ExprError, match="basis element g2 lies in the span"):
        express_in_basis([g1], [g1, g1])
    with pytest.raises(ExprError, match="basis element g1 lies in the span"):
        express_in_basis([g1], [VectorField({})])


# ---------------------------------------------------------------------------
# adjoint representation
# ---------------------------------------------------------------------------


def test_adjoint_eigen_case(table):
    eps = Parameter("epsilon")
    series = adjoint(table, 0, [0, 0, 1, 0, 0, 0], eps)
    assert series[2] == parse("Exp(epsilon)")
    assert all(series[k].is_zero() for k in (0, 1, 3, 4, 5))


def test_adjoint_nilpotent_case(table):
    eps = Parameter("epsilon")
    series = adjoint(table, 2, [0, 1, 0, 0, 0, 0], eps)
    assert series[0] == parse("-2*epsilon")
    assert series[1] == Expr.ONE
    assert series[2] == parse("epsilon^2")


def test_adjoint_of_central_element_is_identity(table):
    eps = Parameter("epsilon")
    for w in range(6):
        coords = [1 if k == w else 0 for k in range(6)]
        series = adjoint(table, 4, coords, eps)
        assert series[w] == Expr.ONE


def test_adjoint_series_error_on_rotational_action():
    # a rotation algebra: the Krylov sequence of ad neither terminates nor
    # stays on an eigenline, so the series must be refused
    rotations = (
        vector_field(v="-f", f="v"),
        vector_field(u="f", f="-u"),
        vector_field(u="-v", v="u"),
    )
    rotation_table = structure_table(rotations)
    with pytest.raises(ExprError, match="neither terminates"):
        adjoint(rotation_table, 0, [0, 1, 0], Parameter("epsilon"))


@pytest.mark.parametrize("brackets, n, match", [
    ({(0, 1): {1: ComplexRational(0, 1)}}, 3, "complex structure constant"),
    ({(0, 1): {3: 1}}, 4, "left the g1,g2,g3 span"),
])
def test_rational_adjoint_refuses_what_is_not_a_rational_map(brackets, n, match):
    with pytest.raises(ExprError, match=match):
        apply_adjoint_rational(hand_table(n, brackets), 0, Fraction(1, 2), (0, 1, 0))


def test_adjoint_is_an_algebra_automorphism(table):
    eps = Parameter("epsilon")
    unit = lambda i: tuple(Expr.ONE if k == i else Expr.ZERO for k in range(6))
    for g in (0, 1, 2):
        for i, j in ((0, 1), (0, 2), (1, 2), (1, 3)):
            lhs = adjoint(table, g, table.bracket(unit(i), unit(j)), eps)
            rhs = table.bracket(
                adjoint(table, g, unit(i), eps),
                adjoint(table, g, unit(j), eps),
            )
            assert all((a - b).is_zero() for a, b in zip(lhs, rhs))


# ---------------------------------------------------------------------------
# subalgebra classification
# ---------------------------------------------------------------------------


def test_pure_first_generator_is_already_representative(table):
    record = normalize_triple(table, (Fraction(1), Fraction(0), Fraction(0)))
    assert record.representative == "g1"
    assert record.maps == []
    assert record.verified


def test_pure_third_generator_is_already_representative(table):
    record = normalize_triple(table, (Fraction(0), Fraction(0), Fraction(1)))
    assert record.representative == "g3"
    assert record.verified


def test_mixed_element_normalizes_into_the_family(table):
    record = normalize_triple(table, (Fraction(1), Fraction(1), Fraction(0)))
    assert record.representative == "g2 + alpha*g3"
    assert record.alpha == Fraction(-1, 4)
    assert len(record.maps) == 1 and record.verified


def test_normalization_never_reaches_the_kernel(table, monkeypatch):
    calls = Counter()
    for name in ("__mul__", "__add__", "substitute"):
        def counted(self, *args, _name=name, _method=getattr(Expr, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Expr, name, counted)
    records = [normalize_triple(table, t) for t in ((1, 2, 3), (2, 0, 5), (0, 0, -4))]
    monkeypatch.undo()
    assert [r.case for r in records] == ["a2 nonzero", "a1 nonzero", "a3 nonzero"]
    assert [len(r.maps) for r in records] == [1, 1, 0]
    assert all(r.verified for r in records)
    assert calls == Counter()


def test_normalization_builds_only_the_records_fractions(table, monkeypatch):
    """The triple's three, eps when a map is made, scale, and alpha in the
    family: every other step of a normalization runs in integers."""
    counts = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        counts[-1] += 1
        return new(cls, *args, **kwargs)

    triples = ((1, 2, 3), (2, 0, 5), (0, 0, -4), (Fraction(1, 2), Fraction(-2, 3), 0))
    records = []
    monkeypatch.setattr(Fraction, "__new__", counted)
    for triple in triples:
        counts.append(0)
        records.append(normalize_triple(table, triple))
    monkeypatch.undo()
    assert all(r.verified for r in records)
    assert counts == [6, 5, 4, 6]
    assert counts == [3 + len(r.maps) + 1 + (r.alpha is not None) for r in records]


@pytest.fixture
def flipped_sign(monkeypatch):
    """Make normalize_triple flip the first sign it takes in each call, the
    sign of the sampled triple's trace form."""
    real_sign, real_normalize = liealg._sign, liealg.normalize_triple

    def normalize(table, triple):
        signs = []

        def sign(value):
            signs.append(real_sign(value))
            return -signs[-1] if len(signs) == 1 else signs[-1]

        monkeypatch.setattr(liealg, "_sign", sign)
        try:
            return real_normalize(table, triple)
        finally:
            monkeypatch.setattr(liealg, "_sign", real_sign)

    monkeypatch.setattr(liealg, "normalize_triple", normalize)


def test_flipped_killing_sign_fails_verification(table, flipped_sign, capsys):
    # (1, 2, 3) has trace form 2 - 48 = -46: its recorded sign is now +1
    record = liealg.normalize_triple(table, (1, 2, 3))
    assert record.killing_sign == 1
    assert not record.verified
    assert main(["optimal-system"]) == 1
    assert "FAIL normalization-sample" in capsys.readouterr().out


def test_map_that_misses_the_representative_fails_verification(table, monkeypatch):
    # the identity in place of Ad(exp(eps*g3)) keeps the trace form up to
    # scale**2 but leaves the slot the map was to clear
    monkeypatch.setattr(liealg, "_adjoint_numerators", lambda table, g, eps, nums, den: (nums, den))
    for triple in ((1, 2, 3), (2, 0, 5)):
        record = normalize_triple(table, triple)
        assert len(record.maps) == 1 and not record.verified
    assert normalize_triple(table, (0, 0, -4)).verified


def test_killing_form_on_family(table):
    # trace form of a1 g1 + a2 g2 + a3 g3 is 2 a1^2 - 8 a2 a3
    from symflow.liealg import _killing_on_span

    for triple in ((1, 0, 0), (0, 1, 1), (2, 3, -1)):
        a1, a2, a3 = (Fraction(a) for a in triple)
        assert _killing_on_span(table, triple) == 2 * a1**2 - 8 * a2 * a3


@pytest.mark.parametrize("triple", [(2, 1, 0), (1, 0, 3), (0, 2, 5), (0, 0, 2), (3, 1, -2)])
def test_normalization_of_integer_triples_stays_exact(table, triple):
    # The kernel stores integral coefficient parts as int; dividing one of
    # them must still give an exact rational, never a float.
    from symflow.liealg import _killing_on_span

    assert type(_killing_on_span(table, triple)) is Fraction
    record = normalize_triple(table, triple)
    assert type(record.scale) is Fraction
    assert record.alpha is None or type(record.alpha) is Fraction
    assert record.verified


def test_full_classification_report():
    report = verify_optimal_system(samples=100, seed=7)
    assert report.all_verified
    assert report.central == ("g4", "g5", "g6")
    assert all(len(r.maps) <= 1 for r in report.records)
    killing_family = report.representative_killing["g2 + alpha*g3"]
    assert killing_family == parse("-8*alpha")
    assert report.representative_killing["g1"] == 2
    assert report.representative_killing["g3"] == 0
    cases = Counter(r.case.split(" (")[0] for r in report.records)
    assert set(cases) <= {"a1 nonzero", "a2 nonzero", "a3 nonzero"}
    # killing sign must match the landing family
    for r in report.records:
        if r.representative == "g1":
            assert r.killing_sign > 0
        elif r.representative == "g2 + alpha*g3" and r.alpha is not None:
            assert r.killing_sign == (0 if r.alpha == 0 else (-1 if r.alpha > 0 else 1))


def test_separation_note_carries_the_computed_trace_form(monkeypatch):
    report = verify_optimal_system(samples=1, seed=7)
    note = report.separation_notes[0]
    for label, value in report.representative_killing.items():
        assert f"{label}: {value}" in note
    assert "g1: 2, g3: 0, g2 + alpha*g3: -8*alpha" in note
    assert "g1 (positive) from g3 (zero)" in note and "(negative at alpha = 1)" in note
    # the words follow the computed values: flip the sign of every value
    killing = StructureTable.killing
    monkeypatch.setattr(StructureTable, "killing", lambda table, a, b: -killing(table, a, b))
    note = verify_optimal_system(samples=1, seed=7).separation_notes[0]
    assert "g1: -2, g3: 0, g2 + alpha*g3: 8*alpha" in note
    assert "g1 (negative) from g3 (zero)" in note and "(positive at alpha = 1)" in note


def test_family_vector_field_contains_localized_generator(basis):
    from symflow.expr import Parameter

    family = family_vector_field()
    mapping = {Parameter(c): Expr.ZERO for c in ("c1", "c3", "c4", "c5", "c6")}
    mapping[Parameter("c2")] = Expr.ONE
    restricted = VectorField(
        {n: c.substitute(mapping) for n, c in family.coeffs.items()}
    )
    assert restricted == basis[1]
