import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symflow.expr import (
    ComplexRational, Expr, IndependentVariable, JetCoordinate, Parameter, exp_of,
)
from symflow.liealg import StructureTable, _adjoint_numerators, _cleared, standard_generators
from symflow.linsym import PointAnsatz


ATOM_POOL = (
    Parameter("alpha"),
    Parameter("beta"),
    IndependentVariable("x"),
    IndependentVariable("t"),
    JetCoordinate("u"),
    JetCoordinate("v"),
    JetCoordinate("u", ("x",)),
    JetCoordinate("v", ("x",)),
    JetCoordinate("phi"),
    JetCoordinate("psi", ("t",)),
    JetCoordinate("u", ("x", "x")),
)


def random_expr(rng: random.Random, terms: int = 4, max_power: int = 2,
                atoms=ATOM_POOL, allow_exp: bool = False) -> Expr:
    """Random differential polynomial with small rational coefficients."""
    total = Expr.ZERO
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        term = Expr.from_scalar(coeff)
        if rng.random() < 0.3:
            term = term * Expr.I
        for _ in range(rng.randint(0, 3)):
            atom = rng.choice(atoms)
            term = term * Expr.atom(atom) ** rng.randint(1, max_power)
        if allow_exp and rng.random() < 0.25:
            arg = Expr.atom(rng.choice(atoms[:4]))
            term = term * exp_of(arg)
        total = total + term
    return total


def hand_table(n, brackets):
    """A structure table from its nonzero brackets {(i, j): {k: c}}, i < j,
    constants ints, ``Fraction`` or ``ComplexRational``; only the basis
    size is read from ``basis``."""
    return StructureTable(
        basis=standard_generators()[:n],
        labels=tuple(f"g{i + 1}" for i in range(n)),
        brackets={
            pair: {k: ComplexRational(1) * c for k, c in row.items()}
            for pair, row in brackets.items()
        },
    )


def apply_adjoint_rational(table, generator, eps, triple):
    """Ad(exp(eps*g)) on span{g1,g2,g3} in ``Fraction`` coordinates: the
    engine's integer numerators, each over their one denominator."""
    nums, den = _adjoint_numerators(table, generator, eps, *_cleared(triple))
    return tuple(Fraction(n, den) for n in nums)


@pytest.fixture(scope="session")
def hirota():
    from symflow.jetsys import builtin_hirota

    return builtin_hirota()


@pytest.fixture(scope="session")
def prolonged():
    from symflow.jetsys import builtin_prolonged

    return builtin_prolonged()


ROOT = Path(__file__).resolve().parent.parent


def coupled_ansatz() -> PointAnsatz:
    """The point ansatz of the coupled pair, equations 0 and 1 of the
    prolonged system, with coefficients on x, t, u, v, phi, psi.  Only the
    tests build its determining system, whose digest they pin."""
    return PointAnsatz(
        args=("x", "t", "u", "v", "phi", "psi"),
        eta_names={"u": "U", "v": "V"},
        equations=(0, 1),
    )


# Defines ``constraint_digest``, the digest the benchmark's worker reports
# for the determining workload, and ``coupled_ansatz`` in a script run by
# ``fresh_interpreter``.
_DIGEST_PRELUDE = """
import importlib.util, sys
from symflow.linsym import PointAnsatz
_spec = importlib.util.spec_from_file_location("perfbench_worker", sys.argv[1])
_worker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_worker)
constraint_digest = _worker.constraint_digest
""" + inspect.getsource(coupled_ansatz)


def fresh_interpreter(script: str, hash_seed: str = "0") -> str:
    """Standard output of ``script`` run in a new interpreter, with
    ``symflow`` importable and ``constraint_digest`` and ``coupled_ansatz``
    defined."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _DIGEST_PRELUDE + script, str(ROOT / "perfbench" / "worker.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    return run.stdout
