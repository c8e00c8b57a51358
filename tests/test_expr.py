import dataclasses
import random
from fractions import Fraction

import pytest

from symflow.expr import (
    DEFAULT_VOCABULARY,
    ComplexRational,
    EvaluationError,
    Expr,
    ExprError,
    IndependentVariable,
    JetCoordinate,
    Parameter,
    ParseError,
    Vocabulary,
    exp_of,
    indep,
    jet,
    param,
    parse,
    to_text,
)
from symflow.cli import _rebuilds_to_itself
from conftest import random_expr


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_jet_plus_imaginary_scaled_field():
    e = parse("Diff(u,x) + I*lambda*u")
    assert e == jet("u", "x") + Expr.I * param("lambda") * jet("u")


def test_parse_exp_zero_collapses():
    assert parse("Exp(0)*v") == jet("v")


def test_parse_unknown_direction_is_an_error():
    with pytest.raises(ParseError, match="unknown independent variable y"):
        parse("Diff(u,y)")


def test_parse_unknown_identifier_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("u + bogus")
    assert "bogus" in str(err.value)
    assert err.value.offset == 4


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("u + * v")
    assert err.value.offset == 4


@pytest.mark.parametrize("text, offset", [("\u0663*u", 0), ("u^\u00b2", 2)])
def test_parse_reads_ascii_digits_only(text, offset):
    # an Arabic-Indic three and a superscript two are digits to str.isdigit
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


def test_parse_reads_ascii_whitespace_only():
    # an ideographic space is whitespace to str.isspace; the offset counts
    # the one ASCII character before it, so it is also the byte offset
    with pytest.raises(ParseError) as err:
        parse("u\u3000+ v")
    assert err.value.offset == 1
    assert parse(" u\t+\r\nv ") == jet("u") + jet("v")


def test_parse_rational_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse("u^(1/2)")


def test_parse_division_by_sum_rejected():
    with pytest.raises(ParseError, match="monomial"):
        parse("u/(u + v)")


@pytest.mark.parametrize("text, offset", [("1/0", 1), ("0^-1", 1), ("u/(v-v)", 1)])
def test_parse_division_by_zero_says_so(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.reason, err.value.offset) == ("division by zero", offset)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        Expr.ONE / Expr.ZERO
    with pytest.raises(ExprError, match="division by zero"):
        Expr.ZERO ** -1


def test_parse_rational_literals_and_precedence():
    assert parse("3/4*u") == Expr.from_scalar(Fraction(3, 4)) * jet("u")
    assert parse("-u^2") == -(jet("u") ** 2)
    assert parse("u^-2*v") == jet("u") ** (-2) * jet("v")
    assert parse("2^3^2") == Expr.from_scalar(512)


def test_custom_vocabulary():
    vocab = dataclasses.replace(
        DEFAULT_VOCABULARY, dependents=DEFAULT_VOCABULARY.dependents + ("s1",)
    ).with_parameters("mu")
    e = parse("mu*Diff(s1,x,t)", vocab)
    assert e == param("mu") * jet("s1", "t", "x")
    with pytest.raises(ParseError):
        parse("s1", DEFAULT_VOCABULARY)


def test_vocabulary_rejects_reserved_names():
    with pytest.raises(ValueError):
        Vocabulary(("x",), ("I",), ())


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_product_of_sums_expands():
    u, v = jet("u"), jet("v")
    assert (u + v) * (u - v) == u**2 - v**2


def test_exponentials_merge():
    assert exp_of(indep("x")) * exp_of(indep("t")) == exp_of(indep("x") + indep("t"))
    assert exp_of(indep("x")) * exp_of(-indep("x")) == Expr.ONE


def test_imaginary_unit_squares_to_minus_one():
    u = jet("u")
    assert Expr.I * Expr.I * u == -u


def test_mixed_partials_are_identified():
    assert jet("u", "x", "t") == jet("u", "t", "x")
    assert parse("Diff(u,x,t) - Diff(u,t,x)").is_zero()


def test_zero_iff_no_monomials():
    assert Expr.ZERO.is_zero()
    assert not (jet("u") - jet("u"))
    assert (jet("u") * 0).is_zero()


def test_values_that_compare_equal_hash_equal():
    """A real coefficient is the int or Fraction it equals, and a constant
    expression is its value: each pair is one element of a set."""
    half = Fraction(1, 2)
    for x, y in (
        (ComplexRational(3), 3),
        (ComplexRational(half), half),
        (ComplexRational(0), 0),
        (Expr.ONE, 1),
        (Expr.ZERO, 0),
        (Expr.from_scalar(half), half),
        (Expr.from_scalar(half), ComplexRational(half)),
        (Expr.I, ComplexRational(0, 1)),
        (parse("2 - 3*I/4"), ComplexRational(2, Fraction(-3, 4))),
    ):
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1


def test_rebuild_from_shuffled_terms_on_random_expressions():
    rng = random.Random(101)
    shuffle_rng = random.Random(101)  # keeps the cases ``rng`` draws
    for _ in range(120):
        e = random_expr(rng, allow_exp=True)
        assert _rebuilds_to_itself(e, shuffle_rng)


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def test_diff_power_rule():
    ux = JetCoordinate("u", ("x",))
    assert parse("Diff(u,x)^2").diff(ux) == 2 * jet("u", "x")


def test_diff_product_rule():
    u = JetCoordinate("u")
    assert (jet("u", "x") * jet("u")).diff(u) == jet("u", "x")


def test_diff_exponential_chain_rule():
    lam = Parameter("lambda")
    e = exp_of(param("lambda") * indep("x"))
    assert e.diff(lam) == indep("x") * e


# ---------------------------------------------------------------------------
# total derivative
# ---------------------------------------------------------------------------


def test_total_derivative_of_field():
    assert jet("u").total_derivative("x") == jet("u", "x")


def test_total_derivative_product_rule():
    e = (jet("phi") * jet("psi")).total_derivative("x")
    assert e == jet("phi", "x") * jet("psi") + jet("phi") * jet("psi", "x")


def test_total_derivatives_commute_on_random_expressions():
    rng = random.Random(7)
    for _ in range(120):
        e = random_expr(rng, allow_exp=True)
        xt = e.total_derivative("x").total_derivative("t")
        tx = e.total_derivative("t").total_derivative("x")
        assert (xt - tx).is_zero()


def test_total_derivative_linearity():
    rng = random.Random(8)
    a = Expr.from_scalar(Fraction(5, 3)) * Expr.I
    for _ in range(100):
        e1 = random_expr(rng)
        e2 = random_expr(rng)
        lhs = (a * e1 + e2).total_derivative("x")
        rhs = a * e1.total_derivative("x") + e2.total_derivative("x")
        assert lhs == rhs


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_cancels_on_shell():
    ut = JetCoordinate("u", ("t",))
    e = jet("u", "t") + jet("u")
    assert e.substitute({ut: -jet("u")}).is_zero()


def test_substitute_expands_linear_problem_square():
    phix = JetCoordinate("phi", ("x",))
    result = parse("Diff(phi,x)^2").substitute({phix: parse("-I*lambda*phi + u*psi")})
    assert result == parse("-lambda^2*phi^2 - 2*I*lambda*phi*u*psi + u^2*psi^2")


def test_substitute_missing_key_is_no_op():
    ut = JetCoordinate("u", ("t",))
    assert jet("u").substitute({ut: Expr.ZERO}) == jet("u")


def test_substitute_reaches_exp_arguments():
    u = JetCoordinate("u")
    e = exp_of(jet("u") * indep("x"))
    assert e.substitute({u: Expr.ZERO}) == Expr.ONE


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


def test_eval_imaginary_scaling():
    assert (Expr.I * jet("u")).eval_numeric({JetCoordinate("u"): 2 + 0j}) == 2j


def test_eval_exp_at_zero():
    assert exp_of(indep("x")).eval_numeric({IndependentVariable("x"): 0}) == 1


def test_eval_polynomial_root():
    e = parse("Diff(u,x)^2 - 4")
    assert e.eval_numeric({JetCoordinate("u", ("x",)): 2.0}) == 0


def test_eval_missing_assignment():
    with pytest.raises(EvaluationError, match="no value assigned"):
        jet("u").eval_numeric({})


def test_zero_test_soundness():
    rng = random.Random(13)
    for _ in range(100):
        e = random_expr(rng)
        atoms = list(e.atoms())
        points = []
        for _ in range(5):
            assignment = {
                a: complex(rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2)) for a in atoms
            }
            points.append(abs(e.eval_numeric(assignment)))
        if e.is_zero():
            assert all(p == 0 for p in points)
        else:
            assert max(points) > 1e-9
        # a manufactured zero evaluates to exactly zero everywhere
        z = e - e
        assert z.is_zero()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_print_parse_round_trip_random():
    rng = random.Random(21)
    for _ in range(150):
        e = random_expr(rng, allow_exp=True)
        assert parse(to_text(e)) == e


def test_print_parse_round_trip_corpus():
    from symflow.jetsys import builtin_hirota, builtin_prolonged

    for system in (builtin_hirota(), builtin_prolonged()):
        for e in list(system.equations) + list(system.solved_forms.values()):
            assert parse(to_text(e), system.vocabulary) == e


def test_printer_is_deterministic():
    e1 = parse("u*v + alpha*Diff(u,x)")
    e2 = parse("alpha*Diff(u,x) + v*u")
    assert to_text(e1) == to_text(e2)


def test_negative_powers_round_trip():
    e = parse("I*alpha*c1*u*x/(9*beta)")
    assert parse(to_text(e)) == e
    assert "beta^-1" in to_text(e)
