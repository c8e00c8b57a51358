"""Property tests for the exact sparse echelon of ``liealg``.

Random sparse rows with small Gaussian-integer entries over at most 12
columns go into an ``Echelon`` in a drawn order.  A dense elimination over
Q(i) on pairs of ``Fraction``s, written here, is the reference: the rank of
the pivot-column submatrix must be the rank of the whole matrix, and the
verdict read on the pivot columns must be the dense c M == 0, for random
coefficient vectors and for vectors of the reference's left kernel;
``express`` must give coordinates that rebuild a row in the span and None
for one outside it; and ``combine`` must give the dense c M, unchanged by
rows inserted later.  On the engine, a candidate stream must get the same
verdicts whichever order its rows went in.  The examples are derandomised,
so every run draws the same ones.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symflow.expr import ComplexRational  # noqa: E402
from symflow.jetsys import parse_manifest, write_manifest  # noqa: E402
from symflow.liealg import Echelon  # noqa: E402
from symflow.linsym import linearization, verify_symmetry  # noqa: E402
from test_linsym import specialised_characteristic, stream_case  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
COLUMNS = 12
ZERO = (Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# dense reference over Q(i): a number is a pair (re, im) of Fractions
# ---------------------------------------------------------------------------


def mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def reduced_echelon(matrix):
    """Gauss-Jordan on a copy: (rows of the reduced form, pivot columns)."""
    rows = [list(row) for row in matrix]
    pivots = []
    for column in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][column] != ZERO), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        scale = inverse(rows[r][column])
        rows[r] = [mul(scale, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][column] != ZERO:
                factor = rows[i][column]
                rows[i] = [sub(a, mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(column)
    return rows[: len(pivots)], pivots


def rank(matrix):
    return len(reduced_echelon(matrix)[1])


def left_kernel(matrix):
    """A basis of {c : c M = 0}: the null space of the transpose."""
    transpose = [list(column) for column in zip(*matrix)]
    reduced, pivots = reduced_echelon(transpose)
    basis = []
    for free in (j for j in range(len(matrix)) if j not in pivots):
        c = [ZERO] * len(matrix)
        c[free] = (Fraction(1), Fraction(0))
        for row, pivot in zip(reduced, pivots):
            c[pivot] = (-row[free][0], -row[free][1])
        basis.append(c)
    return basis


def add_rows(x, y):
    return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(x, y)]


def sub_rows(x, y):
    return [sub(a, b) for a, b in zip(x, y)]


def times_matrix(c, matrix):
    out = [ZERO] * COLUMNS
    for weight, row in zip(c, matrix):
        out = add_rows(out, [mul(weight, v) for v in row])
    return out


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
weights = st.tuples(
    st.fractions(-4, 4, max_denominator=5), st.fractions(-4, 4, max_denominator=5)
)


@st.composite
def sparse_rows(draw):
    """Up to 9 rows ``(entries, D)``, entries (a + b*i)/D keyed by column;
    some are Gaussian-integer combinations of the others, so that
    dependent rows are common."""
    rows = draw(st.lists(
        st.tuples(st.dictionaries(st.integers(0, COLUMNS - 1), gaussian, max_size=5), st.integers(1, 6)),
        max_size=6,
    ))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        combined = {}
        for entries, d in rows:
            w = draw(gaussian)
            for column, value in entries.items():
                # (a + b*i)/d times w, over the common denominator 60
                re, im = mul(w, value)
                old = combined.get(column, (0, 0))
                combined[column] = (old[0] + re * (60 // d), old[1] + im * (60 // d))
        rows.append(({c: v for c, v in combined.items() if v != (0, 0)}, 60))
    return rows


def integer_form(entries, denominator):
    """The row for the core: the nonzero entries (a + b*i)/D as ``ComplexRational``."""
    return {
        column: ComplexRational(Fraction(a, denominator), Fraction(b, denominator))
        for column, (a, b) in entries.items() if (a, b) != (0, 0)
    }


def dense(entries, denominator):
    return [
        (Fraction(entries.get(j, (0, 0))[0], denominator), Fraction(entries.get(j, (0, 0))[1], denominator))
        for j in range(COLUMNS)
    ]


def filled(rows, order):
    """The rows inserted in ``order``, and the dense matrix with its rows in
    insertion order, so row j of both is the j-th inserted."""
    echelon = Echelon()
    for i in order:
        echelon.insert(integer_form(*rows[i]))
    return echelon, [dense(*rows[i]) for i in order]


def as_scalar(value):
    return ComplexRational(*value)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@PROPERTY
@given(sparse_rows(), st.randoms(use_true_random=False))
def test_the_pivot_columns_carry_the_rank(rows, rng):
    order = list(range(len(rows)))
    rng.shuffle(order)
    echelon, matrix = filled(rows, order)
    expected = rank(matrix)
    assert len(echelon.pivots) == len(set(echelon.pivots)) == expected
    assert rank([[row[p] for p in echelon.pivots] for row in matrix]) == expected


@PROPERTY
@given(sparse_rows(), st.randoms(use_true_random=False), st.lists(weights, min_size=9, max_size=9))
def test_the_pivot_verdict_is_the_dense_product(rows, rng, drawn):
    order = list(range(len(rows)))
    rng.shuffle(order)
    echelon, matrix = filled(rows, order)
    vectors = [drawn[: len(matrix)]]
    kernel = left_kernel(matrix)
    for vector in kernel:
        scale = (Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), 1))
        vectors += [vector, [mul(scale, v) for v in vector]]
    if len(kernel) > 1:
        vectors.append(add_rows(kernel[0], kernel[1]))
    for c in vectors:
        combination = [(as_scalar(w), j) for j, w in enumerate(c) if w != ZERO]
        annihilates = all(v == ZERO for v in times_matrix(c, matrix))
        assert echelon.annihilates(combination) == annihilates


@PROPERTY
@given(sparse_rows(), st.randoms(use_true_random=False), st.lists(weights, min_size=9, max_size=9))
def test_combine_is_the_dense_product_and_later_rows_leave_it(rows, rng, drawn):
    order = list(range(len(rows)))
    rng.shuffle(order)
    echelon, matrix = filled(rows, order)
    c = drawn[: len(matrix)]
    combination = [(as_scalar(w), j) for j, w in enumerate(c) if w != ZERO]
    combined = echelon.combine(combination)
    product = [ZERO] * COLUMNS
    for j, v in combined.items():
        assert v.a or v.b
        product[j] = (Fraction(v.re), Fraction(v.im))
    assert product == times_matrix(c, matrix)
    for i in order:
        echelon.insert(integer_form(*rows[i]))
    assert echelon.combine(combination) == combined


@PROPERTY
@given(sparse_rows(), st.randoms(use_true_random=False), st.lists(gaussian, min_size=9, max_size=9),
       st.dictionaries(st.integers(0, COLUMNS - 1), gaussian, max_size=3))
def test_express_gives_coordinates_that_rebuild_the_row(rows, rng, drawn, kick):
    order = list(range(len(rows)))
    rng.shuffle(order)
    echelon, matrix = filled(rows, order)
    common = 60  # a multiple of every row denominator
    c = [(Fraction(a), Fraction(b)) for a, b in drawn[: len(matrix)]]
    target = times_matrix(c, matrix)
    kicked = sub_rows(target, dense(kick, 1))
    for vector, in_span in ((target, True), (kicked, rank(matrix + [kicked]) == rank(matrix))):
        entries = {j: (int(re * common), int(im * common)) for j, (re, im) in enumerate(vector)}
        coords = echelon.express(integer_form(entries, common))
        assert (coords is not None) == in_span
        if coords is not None:
            rebuilt = times_matrix([(Fraction(x.re), Fraction(x.im)) for x in coords], matrix)
            assert rebuilt == vector


# ---------------------------------------------------------------------------
# the engine's echelon
# ---------------------------------------------------------------------------


def test_stream_verdicts_do_not_depend_on_the_row_order(prolonged):
    indices = range(40)
    verdicts, echelons = [], []
    for order in (indices, indices[::-1]):
        system = parse_manifest(write_manifest(prolonged), name="prolonged-copy")
        holds = {}
        for index in order:
            family, constants, kick = stream_case(index)
            sigma = specialised_characteristic(family, constants, kick)
            holds[index] = verify_symmetry(system, sigma, family.equations).holds
        verdicts.append(holds)
        echelons.append([linearization(system).selection(s).echelon for s in ((0, 1), tuple(range(8)))])
    forward, backward = verdicts
    assert forward == backward
    assert forward == {index: stream_case(index)[2] == 0 for index in indices}
    for ahead, behind in zip(*echelons):
        assert len(ahead.pivots) == len(behind.pivots)
        assert ahead.pivots != behind.pivots
