import dataclasses
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from symflow.expr import (
    DEFAULT_VOCABULARY,
    ComplexRational,
    Expr,
    ExprError,
    JetCoordinate,
    Parameter,
    jet,
    parse,
    to_text,
)
from symflow.jetsys import (
    PdeSystem, SolvedFormClosure, builtin_prolonged, parse_manifest, write_manifest,
)
from symflow.liealg import Echelon, VectorField, coordinate_atom, localized_generator
from symflow.linsym import (
    DeterminingSystem,
    PointAnsatz,
    PointFamily,
    UnknownFunction,
    _split_by_derivative_monomials,
    coupled_family,
    family_as_solution,
    frechet,
    generate_determining,
    linearization,
    localized_characteristic,
    prolonged_ansatz,
    prolonged_family,
    seed_pair,
    verify_symmetry,
)
from conftest import coupled_ansatz, fresh_interpreter, random_expr


# ---------------------------------------------------------------------------
# Frechet derivative
# ---------------------------------------------------------------------------


def test_translation_characteristic_gives_total_derivative(hirota):
    sigma = {"u": jet("u", "x"), "v": jet("v", "x")}
    lin = frechet(hirota, sigma)
    for derivative, equation in zip(lin, hirota.equations):
        assert derivative == equation.total_derivative("x")


def test_zero_characteristic(hirota):
    lin = frechet(hirota, {"u": Expr.ZERO, "v": Expr.ZERO})
    assert all(e.is_zero() for e in lin)


#: equation selections of the eight-equation prolonged system that are
#: refused, with what the refusal says
NO_EQUATION_SELECTIONS = [
    ((), "selection is empty"), ((8,), "equation 8 is not in the system"),
    ((-1,), "equation -1 is not in the system"),
    ((True,), "equation True is not in the system"), ((0, 0), "equation 0 is selected twice"),
    ((0, [1]), r"equation \[1\] is not in the system"),
]


@pytest.mark.parametrize("equations, message", NO_EQUATION_SELECTIONS)
def test_frechet_refuses_a_selection_that_names_no_equation(prolonged, equations, message):
    with pytest.raises(ExprError, match=message) as err:
        frechet(prolonged, localized_characteristic(), equations)
    assert "\n" not in str(err.value)


def test_linearized_first_equation_term_for_term(hirota):
    # generic direction fields s1, s2 standing for the two components
    vocab = dataclasses.replace(
        DEFAULT_VOCABULARY, dependents=DEFAULT_VOCABULARY.dependents + ("s1", "s2")
    )
    sigma = {"u": parse("s1", vocab), "v": parse("s2", vocab)}
    lin = frechet(hirota, sigma, equations=(0,))[0]
    written = parse(
        "Diff(s1,t) - alpha*Diff(s1,x,x)*I + 4*I*alpha*s1*u*v + 2*I*alpha*u^2*s2"
        " + beta*Diff(s1,x,x,x) - 6*beta*s1*v*Diff(u,x) - 6*beta*u*s2*Diff(u,x)"
        " - 6*beta*u*v*Diff(s1,x)",
        vocab,
    )
    assert lin == Expr.I * written


def test_frechet_requires_all_occurring_components(hirota):
    with pytest.raises(ExprError, match="lacks a component"):
        frechet(hirota, {"u": jet("u", "x")})


def test_frechet_linearity(prolonged):
    rng = random.Random(31)
    a = Expr.from_scalar(Fraction(3, 7)) * Expr.I
    names = prolonged.dependent_names
    for _ in range(10):
        s1 = {n: random_expr(rng, terms=2) for n in names}
        s2 = {n: random_expr(rng, terms=2) for n in names}
        combo = {n: a * s1[n] + s2[n] for n in names}
        lhs = frechet(prolonged, combo)
        rhs = [
            a * e1 + e2
            for e1, e2 in zip(frechet(prolonged, s1), frechet(prolonged, s2))
        ]
        assert all((x - y).is_zero() for x, y in zip(lhs, rhs))


# ---------------------------------------------------------------------------
# symmetry verification
# ---------------------------------------------------------------------------


def test_seed_pair_solves_linearized_evolution_equations(prolonged):
    check = verify_symmetry(prolonged, seed_pair(), equations=(0, 1))
    assert check.holds


def test_localized_characteristic_solves_all_equations(prolonged):
    check = verify_symmetry(prolonged, localized_characteristic())
    assert check.holds
    assert len(check.residuals) == len(prolonged.equations)


def test_g2_characteristics_take_the_one_orientation(prolonged):
    # VectorField.characteristic puts the minus sign on g2's coefficients
    sigma = localized_generator().characteristic()
    assert localized_characteristic() == sigma
    assert seed_pair() == {name: sigma[name] for name in ("u", "v")}
    assert localized_characteristic()["u"] == -parse("phi^2")
    # the opposite orientation verifies too: residuals are linear in sigma
    negated = {name: -e for name, e in localized_characteristic().items()}
    assert verify_symmetry(prolonged, negated).holds
    negated_pair = {name: -e for name, e in seed_pair().items()}
    assert verify_symmetry(prolonged, negated_pair, equations=(0, 1)).holds


def test_same_sign_scaling_is_not_a_symmetry(prolonged):
    check = verify_symmetry(prolonged, {"u": jet("u"), "v": jet("v")}, equations=(0, 1))
    assert not check.holds
    assert any(not r.is_zero() for r in check.residuals)


def test_translations_verify_on_all_builtins(hirota, prolonged):
    for system in (hirota, prolonged):
        for direction in ("x", "t"):
            sigma = {
                n: Expr.atom(JetCoordinate(n, (direction,)))
                for n in system.dependent_names
            }
            assert verify_symmetry(system, sigma).holds


def test_verify_symmetry_requires_the_components_of_the_selected_equations(prolonged):
    # the evolution equations 0 and 1 hold u and v only
    assert verify_symmetry(prolonged, seed_pair(), equations=(0, 1)).holds
    with pytest.raises(ExprError, match="lacks a component for dependent 'phi'"):
        verify_symmetry(prolonged, seed_pair(), equations=(0, 2))
    with pytest.raises(ExprError, match="lacks a component for dependent 'v'"):
        verify_symmetry(prolonged, {"u": jet("u", "x")}, equations=(1,))


def test_verify_symmetry_keeps_the_order_of_the_selected_equations(prolonged):
    sigma = {"u": jet("u"), "v": jet("v")}
    forward = verify_symmetry(prolonged, sigma, equations=(0, 1)).residuals
    backward = verify_symmetry(prolonged, sigma, equations=(1, 0)).residuals
    assert backward == forward[::-1]
    assert forward[0] != forward[1]


@pytest.mark.parametrize("equations, message", NO_EQUATION_SELECTIONS)
def test_verify_symmetry_refuses_a_selection_that_names_no_equation(prolonged, equations, message):
    with pytest.raises(ExprError, match=message) as err:
        verify_symmetry(prolonged, localized_characteristic(), equations)
    assert "\n" not in str(err.value)


def test_an_empty_selection_does_not_pass_the_negative_control(prolonged):
    family = dataclasses.replace(prolonged_family(flip_psi_eta=True), equations=())
    with pytest.raises(ExprError, match="selection is empty"):
        family.verify(prolonged)


def test_the_verdict_alone_agrees_with_the_residuals_read_later(prolonged):
    constants = (1, -2, 3, Fraction(1, 2), 0, 7)
    for kick in (Fraction(0), Fraction(5, 3)):
        sigma = specialised_characteristic(prolonged_family(), constants, kick)
        check = verify_symmetry(prolonged, sigma)
        assert check.holds == (kick == 0)
        residuals = check.residuals
        assert check.holds == all(r.is_zero() for r in residuals)
        assert check.residuals is residuals


def test_residuals_do_not_depend_on_which_selection_filled_the_pieces(prolonged):
    # Pieces are kept per equation and monomial and made on first need:
    # a later call that selects more equations must make the rest.  Kicked
    # in u and in phi, so that every equation's residual is nonzero and
    # reads the pieces of u's monomials.
    sigma = specialised_characteristic(prolonged_family(), (Fraction(2, 3), -1, 0, 4, 5, -6), 3)
    sigma["u"] = sigma["u"] + parse("2*u*phi")
    calls = ((0, 1), None, (1,))
    results = {}
    for order in (calls, calls[::-1]):
        system = parse_manifest(write_manifest(prolonged), name="prolonged-copy")
        results[order] = {eqs: verify_symmetry(system, sigma, eqs).residuals for eqs in order}
    forward, backward = results[calls], results[calls[::-1]]
    assert not any(r.is_zero() for r in forward[None])
    for eqs in calls:
        assert forward[eqs] == backward[eqs]
        assert [to_text(r) for r in forward[eqs]] == [to_text(r) for r in backward[eqs]]


def kicked_localized() -> dict[str, Expr]:
    """The localized characteristic with u added to sigma_u."""
    sigma = localized_characteristic()
    sigma["u"] = sigma["u"] + parse("u")
    return sigma


def counted_sums(monkeypatch) -> Counter:
    """Count the sums c M over every column, ``Echelon.combine``, taken
    from here on; one gives the residuals of every checked equation."""
    calls = Counter()
    combine = Echelon.combine

    def counted(*args):
        calls["sums"] += 1
        return combine(*args)

    monkeypatch.setattr(Echelon, "combine", counted)
    return calls


def test_a_failing_verdict_sums_no_equation_and_reports_every_failing_one(prolonged, monkeypatch):
    # The verdict is read on the echelon's pivot columns; the residuals
    # read later come from one sum over every column of all eight equations.
    sigma = kicked_localized()
    calls = counted_sums(monkeypatch)
    check = verify_symmetry(prolonged, sigma)
    assert not check.holds
    assert calls["sums"] == 0
    assert [i for i, r in enumerate(check.residuals) if not r.is_zero()] == [0, 1, 2, 4, 5, 7]
    assert calls["sums"] == 1
    assert list(check.residuals) == [prolonged.reduce(r) for r in frechet(prolonged, sigma)]


def test_a_missing_component_is_refused_even_when_an_earlier_equation_fails(prolonged):
    # Only equations 6 and 7 read f, and equation 0 already fails.
    sigma = kicked_localized()
    del sigma["f"]
    with pytest.raises(ExprError, match="lacks a component for dependent 'f'"):
        verify_symmetry(prolonged, sigma)


def test_specialised_family_reuses_the_pieces_of_the_symbolic_check(prolonged, monkeypatch):
    # A system read back from its manifest is a new object with no pieces.
    system = parse_manifest(write_manifest(prolonged), name="prolonged-copy")
    calls = Counter()
    reduce = SolvedFormClosure.reduce

    def counted(*args, **kwargs):
        calls["reduce"] += 1
        return reduce(*args, **kwargs)

    monkeypatch.setattr(SolvedFormClosure, "reduce", counted)
    family = coupled_family()
    assert family.verify(system).holds
    assert calls["reduce"] > 0
    calls.clear()
    for constants in ((3, -2, 5, Fraction(1, 7), -4), (Fraction(-5, 9), 1, 0, 2, Fraction(8, 3))):
        mapping = {Parameter(f"c{k}"): Expr.from_scalar(q) for k, q in enumerate(constants, 1)}
        specialised = PointFamily(
            family.name, family.xi_x.substitute(mapping), family.xi_t.substitute(mapping),
            {n: e.substitute(mapping) for n, e in family.etas.items()}, family.equations,
        )
        assert specialised.verify(system).holds
    assert calls == Counter()


def test_pieces_keep_no_selection_that_no_check_filled(prolonged):
    # A piece is reduced from the state's partials and closure: making one
    # validates no one-equation selection of its own, so every selection
    # the state keeps is one that a check inserted rows into.
    system = parse_manifest(write_manifest(prolonged), name="prolonged-copy")
    for family in (prolonged_family(), coupled_family()):
        assert family.verify(system).holds
    selections = linearization(system).selections.values()
    assert all(any(rows for *_, rows in s.readers) for s in selections)
    assert all(s.echelon.pivots for s in selections)


def test_a_bool_is_refused_after_its_integer_was_validated(prolonged):
    # (True,) == (1,), so the selection validated for (1,) must not serve it
    sigma = localized_characteristic()
    assert verify_symmetry(prolonged, sigma, (1,)).holds
    with pytest.raises(ExprError, match="equation True is not in the system"):
        verify_symmetry(prolonged, sigma, (True,))


def test_a_list_selection_checks_what_its_tuple_checks(prolonged):
    sigma = kicked_localized()
    as_tuple, as_list = verify_symmetry(prolonged, sigma, (0, 1)), verify_symmetry(prolonged, sigma, [0, 1])
    assert as_list.holds == as_tuple.holds is False
    assert as_list.residuals == as_tuple.residuals
    assert as_list.selection.echelon is linearization(prolonged).selection((0, 1)).echelon
    assert frechet(prolonged, sigma, [0, 1]) == frechet(prolonged, sigma, (0, 1))


def test_a_dropped_system_is_freed_with_its_linearization():
    # a specialised prolonged system, built here so that nothing else holds it
    prolonged = builtin_prolonged()
    values = {"alpha": Fraction(3, 7), "beta": Fraction(-5, 11), "lambda": Fraction(2, 13)}
    mapping = {Parameter(name): Expr.from_scalar(q) for name, q in values.items()}
    system = PdeSystem(
        "prolonged-specialised", prolonged.independents, prolonged.dependents, (),
        [e.substitute(mapping) for e in prolonged.equations],
        {key: rhs.substitute(mapping) for key, rhs in prolonged.solved_forms.items()},
    )
    check = verify_symmetry(system, localized_characteristic())
    assert check.holds
    dropped = weakref.ref(system)
    del system
    gc.collect()
    assert dropped() is None
    assert all(r.is_zero() for r in check.residuals)


def test_invariance_under_on_shell_equivalent_rewriting(prolonged):
    sigma = localized_characteristic()
    ut = JetCoordinate("u", ("t",))
    shift = Expr.atom(ut) - prolonged.solved_forms[ut]
    assert prolonged.reduce(shift).is_zero()
    modified = dict(sigma)
    modified["u"] = modified["u"] + parse("phi*psi") * shift
    assert verify_symmetry(prolonged, modified).holds


# ---------------------------------------------------------------------------
# point-to-evolutionary conversion
# ---------------------------------------------------------------------------


def test_space_translation_characteristic(prolonged):
    sigma = VectorField({"x": Expr.ONE}).characteristic()
    for name in prolonged.dependent_names:
        assert sigma[name] == Expr.atom(JetCoordinate(name, ("x",)))


def test_localized_generator_characteristic_carries_the_sign(prolonged):
    coeffs = {
        "u": parse("phi^2"),
        "v": parse("psi^2"),
        "phi": parse("phi*f"),
        "psi": parse("psi*f"),
        "f": parse("f^2"),
    }
    sigma = VectorField(coeffs).characteristic()
    for name, eta in coeffs.items():
        assert sigma[name] == -eta
    # both orientations verify, by linearity
    assert verify_symmetry(prolonged, sigma).holds


def test_opposite_scaling_characteristic():
    sigma = VectorField({"u": jet("u"), "v": -jet("v")}).characteristic()
    assert sigma["u"] == -jet("u")
    assert sigma["v"] == jet("v")


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_five_constant_family_verifies(prolonged):
    assert coupled_family().verify(prolonged).holds


def test_six_constant_family_verifies(prolonged):
    assert prolonged_family().verify(prolonged).holds


def test_flipped_variant_fails(prolonged):
    assert not prolonged_family(flip_psi_eta=True).verify(prolonged).holds


def test_five_constant_family_mutation_detected(prolonged):
    family = coupled_family()
    eta = parse("2*I*alpha*c1*u*x/(9*beta) + c5*u + c4*phi^2")
    mutated = dataclasses.replace(family, etas={**family.etas, "u": eta})
    assert not mutated.verify(prolonged).holds


def test_six_constant_family_mutation_detected(prolonged):
    family = prolonged_family()
    mutated = dataclasses.replace(
        family, etas={**family.etas, "f": parse("c2*f^2 + 2*c5*f + c6")}
    )
    assert not mutated.verify(prolonged).holds


def test_family_basis_matches_standard_generators(prolonged):
    # setting one constant to 1 and the rest to 0 recovers each generator
    from symflow.liealg import standard_generators

    family = prolonged_family()
    constants = {"g1": "c5", "g2": "c2", "g3": "c6", "g4": "c1", "g5": "c3", "g6": "c4"}
    generators = dict(zip(("g1", "g2", "g3", "g4", "g5", "g6"), standard_generators()))
    for label, constant in constants.items():
        mapping = {}
        for c in ("c1", "c2", "c3", "c4", "c5", "c6"):
            mapping[Parameter(c)] = Expr.ONE if c == constant else Expr.ZERO
        coeffs = {"x": family.xi_x.substitute(mapping), "t": family.xi_t.substitute(mapping)}
        coeffs.update({n: e.substitute(mapping) for n, e in family.etas.items()})
        field = generators[label]
        for name in ("x", "t", "u", "v", "phi", "psi", "f"):
            assert coeffs.get(name, Expr.ZERO) == field.coefficient(name), (label, name)


def test_rational_constants_are_checked_without_fractions(prolonged, monkeypatch):
    # Coefficients are Gaussian rationals over one int denominator, so a
    # family specialised to rational constants is checked in int arithmetic.
    constants = (Fraction(3, 7), Fraction(-5, 11), Fraction(2, 13),
                 Fraction(7, 5), Fraction(-1, 9), Fraction(4, 3))
    mapping = {Parameter(f"c{k}"): Expr.from_scalar(q) for k, q in enumerate(constants, 1)}
    candidates = []
    for family in (coupled_family(), prolonged_family()):
        specialised = PointFamily(
            family.name, family.xi_x.substitute(mapping), family.xi_t.substitute(mapping),
            {n: e.substitute(mapping) for n, e in family.etas.items()}, family.equations,
        )
        candidates.append((specialised.characteristic(), family.equations))
    calls = Counter()
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    holds = [verify_symmetry(prolonged, sigma, equations).holds for sigma, equations in candidates]
    monkeypatch.undo()
    assert holds == [True, True]
    assert calls == Counter()


# Pairwise coprime denominators whose product runs far past one machine
# word, so the common denominator of an equation's sum does too.
LARGE_CONSTANTS = (
    Fraction(1, 2**61 - 1), Fraction(3, 10**9 + 7), ComplexRational(0, Fraction(1, 2**31 - 1)),
    Fraction(-5, 998244353), ComplexRational(Fraction(2, 10**9 + 9), 1), Fraction(7, 2**89 - 1),
)
NON_SYMMETRY = {"coupled-5": ("u", "I*alpha*u*x/(9*beta)"), "prolonged-6": ("phi", "phi")}


def specialised_characteristic(family, constants, kick):
    """The family with c1, c2, ... set to ``constants``, plus ``kick`` times
    its fixed non-symmetry: a symmetry exactly when ``kick`` is 0."""
    mapping = {Parameter(f"c{k}"): Expr.from_scalar(q) for k, q in enumerate(constants, 1)}
    etas = {n: e.substitute(mapping) for n, e in family.etas.items()}
    dep, extra = NON_SYMMETRY[family.name]
    etas[dep] = etas[dep] + Expr.from_scalar(kick) * parse(extra)
    return PointFamily(
        family.name, family.xi_x.substitute(mapping), family.xi_t.substitute(mapping),
        etas, family.equations,
    ).characteristic()


def assert_matches_reducing_frechet(system, sigma, equations):
    check = verify_symmetry(system, sigma, equations)
    expected = [system.reduce(r) for r in frechet(system, sigma, equations)]
    assert list(check.residuals) == expected
    assert [r.terms for r in check.residuals] == [r.terms for r in expected]
    assert [to_text(r) for r in check.residuals] == [to_text(r) for r in expected]
    assert check.holds == all(r.is_zero() for r in expected)
    return check


@pytest.mark.parametrize("kick", [Fraction(0), Fraction(-7, 2**127 - 1)])
@pytest.mark.parametrize("family", [coupled_family(), prolonged_family()], ids=lambda f: f.name)
def test_large_denominators_match_reducing_frechet(prolonged, family, kick):
    sigma = specialised_characteristic(family, LARGE_CONSTANTS, kick)
    check = assert_matches_reducing_frechet(prolonged, sigma, family.equations)
    assert check.holds == (kick == 0)
    if kick:
        assert max(c.d for r in check.residuals for _, c in r.terms) > 2**64


def stream_case(index):
    """Seeded specialisation ``index`` of a stream like the benchmark's:
    the families alternate, constants are in [-9, 9] / [1, 9] with one set
    to 0 in every fifth case, and every other pair of cases is kicked."""
    family = (coupled_family(), prolonged_family())[index % 2]
    rng = random.Random(f"stream:{index}")
    constants = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
    if index % 5 == 0:
        constants[rng.randrange(6)] = Fraction(0)
    kick = Fraction(0)
    if index // 2 % 2:
        kick = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return family, constants, kick


@pytest.mark.parametrize("index", range(40))
def test_candidate_stream_matches_reducing_frechet(prolonged, index, monkeypatch):
    family, constants, kick = stream_case(index)
    sigma = specialised_characteristic(family, constants, kick)
    calls = counted_sums(monkeypatch)
    check = verify_symmetry(prolonged, sigma, family.equations)
    # the verdict sums no equation; a check's residuals take one sum
    assert calls["sums"] == 0
    assert check.holds == (kick == 0)
    assert_matches_reducing_frechet(prolonged, sigma, family.equations)
    assert calls["sums"] == 1


def test_residuals_read_after_later_checks_grew_the_shared_echelon(prolonged):
    # A check holds row numbers into the echelon that every later check of
    # its selection extends; the rows those insert leave its residuals as
    # they were.
    system = parse_manifest(write_manifest(prolonged), name="prolonged-copy")
    sigma = kicked_localized()
    check = verify_symmetry(system, sigma)
    readers = linearization(system).selection(tuple(range(len(system.equations)))).readers
    inserted = sum(len(rows) for _, _, rows in readers)
    for index in range(20):
        family, constants, kick = stream_case(index)
        verify_symmetry(system, specialised_characteristic(family, constants, kick), family.equations)
    assert sum(len(rows) for _, _, rows in readers) > inserted
    expected = [system.reduce(r) for r in frechet(system, sigma)]
    assert list(check.residuals) == expected
    assert [r.terms for r in check.residuals] == [r.terms for r in expected]
    assert not check.holds


def test_parameter_factor_merges_with_a_parameter_free_read(prolonged):
    # Along sigma_u = m, equation 0 linearizes on shell to
    # -2*alpha*m*u*v - 6*I*beta*m*Diff(u,x)*v for m = u.  The factor 1/beta
    # of the term u/beta cancels that beta, and the I*Diff(u,t) of the
    # equation turns the parameter-free term 6*t*u*Diff(u,x)*v into
    # 6*I*u*Diff(u,x)*v (plus terms in t), so the two reads cancel there.
    target = parse("u*Diff(u,x)*v").terms[0][0]
    halves = {"u": parse("u/beta"), "v": Expr.ZERO}, {"u": parse("6*t*u*Diff(u,x)*v"), "v": Expr.ZERO}
    for sigma, coefficient in zip(halves, (ComplexRational(0, -6), ComplexRational(0, 6))):
        (residual,) = assert_matches_reducing_frechet(prolonged, sigma, (0,)).residuals
        assert dict(residual.items())[target] == coefficient
    sigma = {"u": halves[0]["u"] + halves[1]["u"], "v": Expr.ZERO}
    (residual,) = assert_matches_reducing_frechet(prolonged, sigma, (0,)).residuals
    assert not residual.is_zero()
    assert target not in dict(residual.items())


@pytest.mark.parametrize("kick", [Fraction(0), Fraction(5, 3)])
@pytest.mark.parametrize("family", [coupled_family(), prolonged_family()], ids=lambda f: f.name)
def test_specialised_checks_reduce_nothing(prolonged, family, kick, monkeypatch):
    # Every reduction happens while the symbolic family is checked; a
    # specialisation, kicked or not, only reads and merges cached pieces.
    system = parse_manifest(write_manifest(prolonged), name="prolonged-copy")
    assert family.verify(system).holds
    calls = Counter()
    reduce_ = SolvedFormClosure.reduce

    def counted(self, e):
        calls["reduce"] += 1
        return reduce_(self, e)

    monkeypatch.setattr(SolvedFormClosure, "reduce", counted)
    constants = (Fraction(-3, 4), 2, 0, Fraction(7, 9), -5, Fraction(1, 6))
    check = verify_symmetry(system, specialised_characteristic(family, constants, kick), family.equations)
    monkeypatch.undo()
    assert check.holds == (kick == 0)
    assert calls == Counter()


# The first kicked candidate of each family in the benchmark's stream,
# checked against the benchmark's warm set-up.
_HASH_ORDER_SCRIPT = """
from symflow.expr import to_text
candidates = _worker.Candidates(1)
kicked = {}
for index in range(40):
    spec = _worker.workloads.candidate_spec(1, index)
    if spec["kick"]:
        kicked.setdefault(spec["family"], index)
for family, index in sorted(kicked.items()):
    sigma, equations = candidates.prepare(index)
    check = candidates.linsym.verify_symmetry(candidates.system, sigma, equations)
    print(family, check.holds)
    for residual in check.residuals:
        print(to_text(residual))
"""


def test_kicked_candidates_print_the_same_residuals_under_any_hash_seed():
    outputs = [fresh_interpreter(_HASH_ORDER_SCRIPT, hash_seed=seed) for seed in ("0", "1", "2")]
    assert "coupled-5 False" in outputs[0] and "prolonged-6 False" in outputs[0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# ---------------------------------------------------------------------------
# determining systems
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coupled_determining(prolonged):
    return generate_determining(prolonged, coupled_ansatz())


@pytest.fixture(scope="module")
def prolonged_determining(prolonged):
    return generate_determining(prolonged, prolonged_ansatz())


def test_determining_constraints_are_linear_homogeneous(coupled_determining):
    assert coupled_determining.is_linear_homogeneous()
    assert len(coupled_determining.constraints) > 10


def reassembled_residuals(determining) -> list[Expr]:
    """Sum of split monomial times constraint, per equation."""
    out = {}
    for eq_index, key, constraint in determining.constraints:
        mono_expr = Expr.ONE
        for a, n in key:
            mono_expr = mono_expr * Expr.atom(a) ** n
        out[eq_index] = out.get(eq_index, Expr.ZERO) + mono_expr * constraint
    return [out.get(i, Expr.ZERO) for i in range(len(determining.residuals))]


def test_determining_reassembly_soundness(coupled_determining):
    rebuilt = reassembled_residuals(coupled_determining)
    assert all(
        (a - b).is_zero()
        for a, b in zip(rebuilt, coupled_determining.residuals)
    )


def test_five_constant_family_satisfies_determining(prolonged, coupled_determining):
    solution = family_as_solution(coupled_family(), coupled_ansatz())
    assert coupled_determining.verify_solution(prolonged, solution)


def test_zero_solution_satisfies_determining(prolonged, coupled_determining):
    zero = {name: Expr.ZERO for name in ("X", "T", "U", "V")}
    assert coupled_determining.verify_solution(prolonged, zero)


def test_six_constant_family_satisfies_prolonged_determining(
    prolonged, prolonged_determining
):
    solution = family_as_solution(prolonged_family(), prolonged_ansatz())
    assert prolonged_determining.verify_solution(prolonged, solution)


def test_flipped_family_fails_prolonged_determining(prolonged, prolonged_determining):
    solution = family_as_solution(
        prolonged_family(flip_psi_eta=True), prolonged_ansatz()
    )
    assert not prolonged_determining.verify_solution(prolonged, solution)


@pytest.mark.parametrize("equations, message", NO_EQUATION_SELECTIONS)
def test_determining_refuses_a_selection_that_names_no_equation(prolonged, equations, message):
    # refused before the arguments are read: this ansatz names no variable
    ansatz = PointAnsatz(args=("nowhere",), eta_names={}, equations=equations)
    with pytest.raises(ExprError, match=message):
        generate_determining(prolonged, ansatz)


def test_an_empty_ansatz_selection_does_not_pass_the_negative_control(prolonged):
    ansatz = dataclasses.replace(prolonged_ansatz(), equations=())
    solution = family_as_solution(prolonged_family(flip_psi_eta=True), ansatz)
    with pytest.raises(ExprError, match="selection is empty"):
        generate_determining(prolonged, ansatz).verify_solution(prolonged, solution)


def test_constraints_are_labelled_with_the_index_of_their_equation(prolonged):
    ansatz = dataclasses.replace(prolonged_ansatz(), equations=(7, 2))
    labels = {index for index, _, _ in generate_determining(prolonged, ansatz).constraints}
    assert labels == {2, 7}


def substitution_verdicts(determining, solution) -> list[bool]:
    """Whether each constraint vanishes after every unknown-function atom in
    it is replaced by the matching derivative of the solution, each formed
    afresh from the solution expression."""
    mapping = {}
    for _, _, constraint in determining.constraints:
        for a in constraint.atoms():
            if type(a) is UnknownFunction and a not in mapping:
                value = solution[a.name]
                for d in a.index:
                    value = value.diff(coordinate_atom(d))
                mapping[a] = value
    return [c.substitute(mapping).is_zero() for _, _, c in determining.constraints]


def one_constraint_verdicts(prolonged, determining, solution) -> list[bool]:
    return [
        dataclasses.replace(determining, constraints=[c]).verify_solution(prolonged, solution)
        for c in determining.constraints
    ]


@pytest.mark.parametrize("name", ["coupled", "prolonged"])
def test_solution_check_matches_substitution_per_constraint(
    prolonged, coupled_determining, prolonged_determining, name
):
    """The family, the zero solution, and the family with one unknown
    replaced by a random polynomial in the ansatz arguments (so some
    constraints hold and some fail), constraint by constraint."""
    determining = {"coupled": coupled_determining, "prolonged": prolonged_determining}[name]
    ansatz = determining.ansatz
    family = coupled_family() if name == "coupled" else prolonged_family()
    solution = family_as_solution(family, ansatz)
    atoms = tuple(coordinate_atom(a) for a in ansatz.args) + (Parameter("alpha"),)
    rng = random.Random(name)
    solutions = [solution, dict.fromkeys(solution, Expr.ZERO)]
    for unknown in solution:
        solutions.append({**solution, unknown: random_expr(rng, atoms=atoms)})
    mixed = 0
    for candidate in solutions:
        want = substitution_verdicts(determining, candidate)
        assert one_constraint_verdicts(prolonged, determining, candidate) == want
        assert determining.verify_solution(prolonged, candidate) == all(want)
        mixed += len(set(want)) == 2
    assert mixed == len(solution)


@pytest.mark.parametrize("term", ["U^2", "U*V", "x*u", "3", "U*X[x]"])
def test_non_linear_determining_system_is_refused(prolonged, term):
    args = prolonged_ansatz().args
    unknowns = {
        "U": UnknownFunction("U", args),
        "V": UnknownFunction("V", args),
        "X[x]": UnknownFunction("X", args, ("x",)),
    }
    factors = {
        "U^2": Expr.atom(unknowns["U"]) ** 2,
        "U*V": Expr.atom(unknowns["U"]) * Expr.atom(unknowns["V"]),
        "x*u": parse("x*u"),
        "3": Expr.from_scalar(3),
        "U*X[x]": Expr.atom(unknowns["U"]) * Expr.atom(unknowns["X[x]"]),
    }
    linear = Expr.atom(unknowns["V"]) * parse("phi")
    constraint = linear + factors[term]
    system = DeterminingSystem(prolonged_ansatz(), [(0, (), constraint)])
    assert not system.is_linear_homogeneous()
    solution = dict.fromkeys(["X", "T", "U", "V", "P", "Q", "F"], parse("u"))
    with pytest.raises(ExprError, match="not linear in the unknowns"):
        system.verify_solution(prolonged, solution)
    residual = constraint * jet("u", "x")
    with pytest.raises(ExprError, match="not linear in the unknowns"):
        _split_by_derivative_monomials(residual)


# Constraint count and digest of each ansatz in a fresh interpreter.
FRESH_DETERMINING = {"prolonged": "230 327004d4aebe966f", "coupled": "124 6cafbd0a0dcf7c24"}
_ORDER_SCRIPT = """
from symflow import linsym
from symflow.jetsys import builtin_prolonged
ansatzes = {{"prolonged": linsym.prolonged_ansatz, "coupled": coupled_ansatz}}
for name in {order}:
    constraints = linsym.generate_determining(builtin_prolonged(), ansatzes[name]()).constraints
    print(name, len(constraints), constraint_digest(constraints))
"""


@pytest.mark.parametrize("order", [("prolonged", "coupled"), ("coupled", "prolonged")])
def test_determining_systems_do_not_depend_on_the_order_they_are_built(order):
    """Unknown functions of one name but different arguments are different
    atoms; the second system must not pick up the first one's."""
    stdout = fresh_interpreter(_ORDER_SCRIPT.format(order=order))
    assert stdout.splitlines() == [f"{name} {FRESH_DETERMINING[name]}" for name in order]


# The oracle for the determining residuals is the general prolongation
# formula (Olver, Applications of Lie Groups to Differential Equations,
# section 2.3).  For v = X d_x + T d_t + sum_w eta_w d_w,
#
#     pr v(F) = X dF/dx + T dF/dt + sum_(w_J in F) phi_w^J dF/dw_J,
#     phi_w^() = eta_w,
#     phi_w^(J,d) = D_d phi_w^J - w_(J,x) D_d X - w_(J,t) D_d T,
#
# and its characteristic sigma_w = X w_x + T w_t - eta_w obeys, exactly,
#
#     frechet(F)[sigma] = -pr v(F) + X D_x F + T D_t F.
def minus_prolonged_generator(system, ansatz) -> list[Expr]:
    """-pr v(F_i) for each equation the ansatz selects, by the formula."""
    unknown = lambda name: Expr.atom(UnknownFunction(name, ansatz.args))
    xi = {"x": unknown("X"), "t": unknown("T")}
    prolonged_eta = {}

    def phi(name, index):
        if (name, index) not in prolonged_eta:
            if not index:
                value = unknown(ansatz.eta_names[name])
            else:
                value = phi(name, index[:-1]).total_derivative(index[-1])
                for direction, coefficient in xi.items():
                    value = value - jet(name, *index[:-1], direction) * (
                        coefficient.total_derivative(index[-1])
                    )
            prolonged_eta[(name, index)] = value
        return prolonged_eta[(name, index)]

    out = []
    for index in ansatz.equations or range(len(system.equations)):
        equation = system.equations[index]
        total = Expr.ZERO
        for direction, coefficient in xi.items():
            total = total - coefficient * equation.diff(coordinate_atom(direction))
        for a in equation.jet_atoms():
            if a.name in system.dependent_names:
                total = total - equation.diff(a) * phi(a.name, a.index)
        out.append(total)
    return out


def assert_prolongation_identity(system, ansatz) -> list[tuple[Expr, Expr]]:
    """The determining residuals are reduce(-pr v(F_i)) + X*reduce(D_x F_i)
    + T*reduce(D_t F_i); returns each (reduce(D_x F_i), reduce(D_t F_i))."""
    X, T = (Expr.atom(UnknownFunction(name, ansatz.args)) for name in ("X", "T"))
    selected = ansatz.equations or range(len(system.equations))
    closure = [
        tuple(system.reduce(system.equations[i].total_derivative(d)) for d in ("x", "t"))
        for i in selected
    ]
    want = [
        system.reduce(formula) + X * along_x + T * along_t
        for formula, (along_x, along_t) in zip(minus_prolonged_generator(system, ansatz), closure)
    ]
    assert generate_determining(system, ansatz).residuals == want
    return closure


def _subset(ansatz, equations):
    return PointAnsatz(ansatz.args, ansatz.eta_names, equations)


@pytest.mark.parametrize(
    "ansatz",
    [
        prolonged_ansatz(),
        coupled_ansatz(),
        _subset(prolonged_ansatz(), (4,)),
        _subset(prolonged_ansatz(), (7, 2, 5)),
        _subset(prolonged_ansatz(), (1, 6, 3)),
        _subset(coupled_ansatz(), (1,)),
    ],
    ids=["prolonged", "coupled", "prolonged-4", "prolonged-7-2-5", "prolonged-1-6-3", "coupled-1"],
)
def test_determining_residuals_match_the_reduced_linearization(prolonged, ansatz):
    # the prolonged system is closed under D_x and D_t, so on it each
    # residual is the formula's -reduce(pr v(F_i)) alone
    closure = assert_prolongation_identity(prolonged, ansatz)
    assert all(r.is_zero() for pair in closure for r in pair)


def test_the_prolongation_identity_holds_on_a_system_not_closed_under_d_x(prolonged):
    phi_t = JetCoordinate("phi", ("t",))
    solved = dict(prolonged.solved_forms)
    solved[phi_t] = solved[phi_t] + jet("phi") * jet("u")
    equations = list(prolonged.equations)
    equations[4] = Expr.atom(phi_t) - solved[phi_t]
    broken = PdeSystem(
        "broken", prolonged.independents, prolonged.dependents, prolonged.parameters,
        equations, solved,
    )
    closure = assert_prolongation_identity(broken, prolonged_ansatz())
    assert not closure[4][0].is_zero()
