"""Numeric verification layer: exact seed solutions on grids and finite
difference residuals.

The seed family lives on the zero background: with u = v = 0 the linear
problem integrates to plane-wave eigenfunctions and a potential f that
is linear in x and t.  ``vacuum_forms`` is its one statement: it reads
the closed forms from ``lax_pair()`` at u = v = 0 and certifies them
once per process (all eight equations of the prolonged system reduce to
zero modulo the forms, identically in the parameters), and
``make_vacuum_grid`` evaluates the certified forms on a mesh of the fixed
extent ``VACUUM_EXTENT``, so every numeric expectation in this module
traces back to an exact statement.

numpy is imported inside the functions that use it: importing this module
(as ``import symflow`` does) must not load numpy for runs that evaluate no
grid.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
import types
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .expr import Expr, IndependentVariable, JetCoordinate, Parameter, exp_of, parse
from .grpflow import map_solution
from .jetsys import (
    SolvedFormClosure, at_line, builtin_hirota, builtin_prolonged, lax_pair, numbered_lines,
)

if TYPE_CHECKING:
    import numpy as np

#: (x0, x1, t0, t1) of every vacuum grid
VACUUM_EXTENT = (-5.0, 5.0, 0.0, 0.5)
#: the seed's parameters, keyed by the symbol each value sets
DEFAULT_PARAMS = {"lambda": 0.3, "alpha": 1.0, "beta": 0.5, "c1": 0.0}
DEFAULT_EPSILON = 0.1
#: (nx, nt) of each grid in a refinement study
REFINEMENT_LEVELS = ((51, 26), (101, 51), (201, 101))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass
class Grid:
    """Uniform space-time grid with named complex fields of shape (nt, nx)."""

    x0: float
    dx: float
    nx: int
    t0: float
    dt: float
    nt: int
    fields: dict[str, np.ndarray] = field(default_factory=dict)
    params: dict[str, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("grid spacings must be positive")
        for name, array in self.fields.items():
            if array.shape != (self.nt, self.nx):
                raise ValueError(
                    f"field '{name}' has shape {array.shape}, want {(self.nt, self.nx)}"
                )

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        t, x = np.meshgrid(
            self.t0 + self.dt * np.arange(self.nt),
            self.x0 + self.dx * np.arange(self.nx),
            indexing="ij",
        )
        return t, x


# ---------------------------------------------------------------------------
# the zero-background seed
# ---------------------------------------------------------------------------


@functools.cache
def vacuum_forms() -> Mapping[str, Expr]:
    """Exact solution family read from ``lax_pair()`` at u = v = 0, certified.

    There U and V are diagonal, so phi = Exp(U11 x + V11 t) and
    psi = Exp(U22 x + V22 t); then phi*psi = 1 and the pair's f_d reduces
    to I*(M11)_lambda, so f = I*(U11)_lambda x + I*(V11)_lambda t + c1:

    phi = Exp(-i lambda x - (4 i beta lambda^3 + 2 i alpha lambda^2) t)
    psi = Exp(+i lambda x + (4 i beta lambda^3 + 2 i alpha lambda^2) t)
    f   = x + (12 beta lambda^2 + 4 alpha lambda) t + c1

    All eight equations are reduced modulo the forms, taken as order-zero
    solved forms (each jet u_J becomes D_J of its form); the parameters
    stay symbolic, so the certificate is an identity in lambda, alpha,
    beta and c1.
    """
    x, t, lam = parse("x"), parse("t"), Parameter("lambda")
    (u11, u22), (v11, v22) = (
        [e.substitute({a: 0 for a in e.jet_atoms()}) for e in (m[0][0], m[1][1])]
        for m in lax_pair()
    )
    forms = {
        "u": Expr.ZERO,
        "v": Expr.ZERO,
        "phi": exp_of(u11 * x + v11 * t),
        "psi": exp_of(u22 * x + v22 * t),
        "f": Expr.I * (u11.diff(lam) * x + v11.diff(lam) * t) + parse("c1"),
    }
    closure = SolvedFormClosure({JetCoordinate(n): form for n, form in forms.items()})
    for i, equation in enumerate(builtin_prolonged().equations):
        value = closure.reduce(equation)
        if not value.is_zero():
            raise AssertionError(f"seed family violates equation {i}: residual {value}")
    return types.MappingProxyType(forms)


def make_vacuum_grid(
    params: Mapping[str, float] | None = None, nx: int = 201, nt: int = 101
) -> Grid:
    """The certified vacuum seed on an nx by nt mesh of ``VACUUM_EXTENT``;
    ``params`` overrides ``DEFAULT_PARAMS`` by symbol name."""
    import numpy as np
    for name in params or {}:
        if name not in DEFAULT_PARAMS:
            raise ValueError(f"unknown seed parameter '{name}' (want {', '.join(DEFAULT_PARAMS)})")
    x0, x1, t0, t1 = VACUUM_EXTENT
    grid = Grid(x0=x0, dx=(x1 - x0) / (nx - 1), nx=nx, t0=t0, dt=(t1 - t0) / (nt - 1), nt=nt)
    t, x = grid.mesh()
    env = {IndependentVariable("x"): x, IndependentVariable("t"): t}
    for name, value in {**DEFAULT_PARAMS, **(params or {})}.items():
        env[Parameter(name)] = complex(value)
    grid.fields = {
        name: np.broadcast_to(form.eval_numeric(env), t.shape).astype(complex)
        for name, form in vacuum_forms().items()
    }
    grid.params = {name: env[Parameter(name)] for name in ("lambda", "alpha", "beta")}
    return grid


# ---------------------------------------------------------------------------
# finite-difference residuals
# ---------------------------------------------------------------------------

# jet index -> its second-order centred difference on the interior points
# (t-rows 1..nt-2, x-columns 2..nx-3, inside the width-5 stencil of w_xxx)
_CENTRED_DIFFERENCES = {
    (): lambda w, dx, dt: w[1:-1, 2:-2],
    ("t",): lambda w, dx, dt: ((w[2:, :] - w[:-2, :]) / (2 * dt))[:, 2:-2],
    ("x",): lambda w, dx, dt: ((w[:, 2:] - w[:, :-2]) / (2 * dx))[1:-1, 1:-1],
    ("x", "x"): lambda w, dx, dt: ((w[:, 2:] - 2 * w[:, 1:-1] + w[:, :-2]) / dx**2)[1:-1, 1:-1],
    ("x", "x", "x"): lambda w, dx, dt: (
        (w[:, 4:] - 2 * w[:, 3:-1] + 2 * w[:, 1:-3] - w[:, :-4]) / (2 * dx**3)
    )[1:-1, :],
}


def pde_residual(grid: Grid) -> float:
    """Max interior residual over both equations of ``builtin_hirota``,
    each jet they read replaced by its centred difference."""
    import numpy as np
    if grid.nx < 7 or grid.nt < 7:
        raise ValueError("grid too small for the residual stencils (need >= 7)")
    system = builtin_hirota()
    missing = [p for p in system.parameters if p not in grid.params]
    if missing:
        raise ValueError(f"grid lacks the parameter(s) {', '.join(missing)}")
    worst = 0.0
    for equation in system.equations:  # one equation's differences alive at a time
        env = {Parameter(p): grid.params[p] for p in system.parameters}
        for a in equation.jet_atoms():
            env[a] = _CENTRED_DIFFERENCES[a.index](grid.fields[a.name], grid.dx, grid.dt)
        worst = max(worst, float(np.max(np.abs(equation.eval_numeric(env)))))
    return worst


def transformed_residual_orders(epsilon: float) -> tuple[list[float], list[float]]:
    """Residual of the u and v equations (the larger of the two) for the
    flow-transformed seed under grid refinement.

    Returns the per-level residuals and the observed convergence orders
    log2(r_k / r_{k+1}); the transformed fields solve the system exactly,
    so the residual is pure truncation error and the orders sit near 2.
    """
    values = []
    for nx, nt in REFINEMENT_LEVELS:
        grid = make_vacuum_grid(nx=nx, nt=nt)
        moved = dataclasses.replace(grid, fields=map_solution(grid.fields, epsilon))
        values.append(pde_residual(moved))
    orders = [math.log2(values[k] / values[k + 1]) for k in range(len(values) - 1)]
    return values, orders


# ---------------------------------------------------------------------------
# grid file format
# ---------------------------------------------------------------------------


def _format_complex(z: complex) -> str:
    re_s = repr(float(z.real))
    im = float(z.imag)
    im_s = repr(abs(im))
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{re_s}{sign}{im_s}i"


def _parse_complex(text: str) -> complex:
    body = text.strip()
    if not body.endswith("i"):
        raise ValueError(f"bad complex literal '{text}' (want a+bi)")
    body = body[:-1]
    # split before the sign of the imaginary part (not an exponent sign)
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            z = complex(float(body[:k]), float(body[k:]))
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite value '{text}'")
            return z
    raise ValueError(f"bad complex literal '{text}' (want a+bi)")


def write_grid(grid: Grid) -> str:
    header = f"grid {grid.nx} {grid.nt} {grid.x0!r} {grid.dx!r} {grid.t0!r} {grid.dt!r}"
    for name in sorted(grid.params):
        header += f" {name}={_format_complex(grid.params[name])}"
    lines = [header]
    for name in sorted(grid.fields):
        lines.append(f"field {name}")
        array = grid.fields[name]
        for row in range(grid.nt):
            lines.append(",".join(_format_complex(z) for z in array[row]))
    return "\n".join(lines) + "\n"


def read_grid(text: str) -> Grid:
    """Parse the grid format; a header without ``name=value`` parameters
    (the older form) gives a grid with empty ``params``.  Every number must
    be finite, each header parameter and each field appear once, and each
    row hold nx values; a violation names its line."""
    import numpy as np
    lines = numbered_lines(text)
    if not lines or not lines[0][1].startswith("grid "):
        raise ValueError("grid file must start with a 'grid' header")
    number, line = lines[0]
    header = line.split()
    with at_line(number):
        if len(header) < 7:
            raise ValueError("want 'grid nx nt x0 dx t0 dt [name=value ...]'")
        nx, nt = int(header[1]), int(header[2])
        if nx < 1 or nt < 1:
            raise ValueError(f"nx and nt must be positive, got {nx} and {nt}")
        x0, dx, t0, dt = (float(h) for h in header[3:7])
        if not all(map(math.isfinite, (x0, dx, t0, dt))):
            raise ValueError(f"non-finite number in '{' '.join(header[3:7])}'")
        params = {}
        for item in header[7:]:
            name, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad grid parameter '{item}' (want name=a+bi)")
            if name in params:
                raise ValueError(f"parameter '{name}' appears twice")
            params[name] = _parse_complex(value)
        grid = Grid(x0=x0, dx=dx, nx=nx, t0=t0, dt=dt, nt=nt, params=params)
    for k in range(1, len(lines), 1 + nt):
        number, line = lines[k]
        rows = list(itertools.takewhile(
            lambda row: not row[1].startswith("field"), lines[k + 1 : k + 1 + nt]
        ))
        with at_line(number):
            words = line.split()
            if len(words) != 2 or words[0] != "field":
                raise ValueError("expected 'field <name>'")
            name = words[1]
            if name in grid.fields:
                raise ValueError(f"field '{name}' appears twice")
            if len(rows) < nt:
                raise ValueError(f"field '{name}' has {len(rows)} of its {nt} rows")
        values = []
        for number, row in rows:
            items = row.split(",")
            with at_line(number):
                if len(items) != nx:
                    raise ValueError(f"field '{name}' row has {len(items)} values, want {nx}")
                values.append([_parse_complex(v) for v in items])
        grid.fields[name] = np.array(values, dtype=complex)
    return grid
