"""Numeric verification layer: exact seed solutions on grids and finite
difference residuals.

The seed family lives on the zero background: with u = v = 0 the linear
problem integrates to plane-wave eigenfunctions and a potential f that
is linear in x and t.  ``vacuum_forms`` is its one statement: it builds
the closed forms and certifies them once per process (all eight
equations of the prolonged system reduce to zero modulo the forms,
identically in the parameters), and ``make_vacuum_grid`` evaluates the
certified forms on a mesh of the fixed extent ``VACUUM_EXTENT``, so
every numeric expectation in this module traces back to an exact
statement.

numpy is imported inside the functions that use it: importing this module
(as ``import symflow`` does) must not load numpy for runs that evaluate no
grid.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import types
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .expr import (
    Expr,
    IndependentVariable,
    JetCoordinate,
    Parameter,
    exp_of,
    parse,
)
from .grpflow import map_solution
from .jetsys import SolvedFormClosure, builtin_prolonged

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
    """Exact solution family on the u = v = 0 background, certified:

    phi = Exp(-i lambda x - (4 i beta lambda^3 + 2 i alpha lambda^2) t)
    psi = Exp(+i lambda x + (4 i beta lambda^3 + 2 i alpha lambda^2) t)
    f   = x + (12 beta lambda^2 + 4 alpha lambda) t + c1

    so that phi*psi = 1 and f_x = 1, f_t = 12 beta lambda^2 + 4 alpha lambda.
    All eight equations are reduced modulo the forms, taken as order-zero
    solved forms (each jet u_J becomes D_J of its form); the parameters
    stay symbolic, so the certificate is an identity in lambda, alpha,
    beta and c1.
    """
    phase = parse("4*I*beta*lambda^3 + 2*I*alpha*lambda^2")
    x = parse("x")
    t = parse("t")
    lam = parse("lambda")
    forms = {
        "u": Expr.ZERO,
        "v": Expr.ZERO,
        "phi": exp_of(-Expr.I * lam * x - phase * t),
        "psi": exp_of(Expr.I * lam * x + phase * t),
        "f": x + parse("12*beta*lambda^2 + 4*alpha*lambda") * t + parse("c1"),
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


def pde_residual(grid: Grid, which: str = "u") -> float:
    """Max interior residual of one evolution equation under second-order
    central differences (third x-derivative uses the width-5 stencil)."""
    import numpy as np
    if grid.nx < 7 or grid.nt < 7:
        raise ValueError("grid too small for the residual stencils (need >= 7)")
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    u = grid.fields["u"]
    v = grid.fields["v"]
    w = u if which == "u" else v
    dx, dt = grid.dx, grid.dt

    # interior points: t-rows 1..nt-2, x-columns 2..nx-3 (width-5 stencil)
    w_t = ((w[2:, :] - w[:-2, :]) / (2 * dt))[:, 2:-2]
    w_x = ((w[:, 2:] - w[:, :-2]) / (2 * dx))[1:-1, 1:-1]
    w_xx = ((w[:, 2:] - 2 * w[:, 1:-1] + w[:, :-2]) / dx**2)[1:-1, 1:-1]
    w_xxx = (
        (w[:, 4:] - 2 * w[:, 3:-1] + 2 * w[:, 1:-3] - w[:, :-4]) / (2 * dx**3)
    )[1:-1, :]

    core = np.s_[1:-1, 2:-2]
    u_c = u[core]
    v_c = v[core]
    w_c = w[core]

    missing = [p for p in ("alpha", "beta") if p not in grid.params]
    if missing:
        raise ValueError(f"grid lacks the parameter(s) {', '.join(missing)}")
    alpha = grid.params["alpha"]
    beta = grid.params["beta"]
    if which == "u":
        residual = (
            1j * w_t
            + alpha * (w_xx - 2 * w_c**2 * v_c)
            + 1j * beta * (w_xxx - 6 * u_c * v_c * w_x)
        )
    else:
        residual = (
            1j * w_t
            - alpha * (w_xx - 2 * w_c**2 * u_c)
            + 1j * beta * (w_xxx - 6 * u_c * v_c * w_x)
        )
    return float(np.max(np.abs(residual)))


def transformed_residual_orders(
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[list[float], list[float]]:
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
        values.append(max(pde_residual(moved, which) for which in ("u", "v")))
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
    be finite and each field appear once; a violation names its line."""
    import numpy as np
    lines = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines or not lines[0][1].startswith("grid "):
        raise ValueError("grid file must start with a 'grid' header")
    number, line = lines[0]
    header = line.split()
    try:
        if len(header) < 7:
            raise ValueError("want 'grid nx nt x0 dx t0 dt [name=value ...]'")
        nx, nt = int(header[1]), int(header[2])
        x0, dx, t0, dt = (float(h) for h in header[3:7])
        if not all(map(math.isfinite, (x0, dx, t0, dt))):
            raise ValueError(f"non-finite number in '{' '.join(header[3:7])}'")
        params = {}
        for item in header[7:]:
            name, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad grid parameter '{item}' (want name=a+bi)")
            params[name] = _parse_complex(value)
    except ValueError as err:
        raise ValueError(f"line {number}: {err}") from err
    fields = {}
    k = 1
    while k < len(lines):
        number, line = lines[k]
        words = line.split()
        if len(words) != 2 or words[0] != "field":
            raise ValueError(f"line {number}: expected 'field <name>'")
        name = words[1]
        if name in fields:
            raise ValueError(f"line {number}: field '{name}' appears twice")
        rows = lines[k + 1 : k + 1 + nt]
        if len(rows) < nt:
            raise ValueError(f"line {number}: field '{name}' has {len(rows)} of its {nt} rows")
        values = []
        for row_number, row in rows:
            try:
                values.append([_parse_complex(v) for v in row.split(",")])
            except ValueError as err:
                raise ValueError(f"line {row_number}: {err}") from err
        fields[name] = np.array(values, dtype=complex)
        k += 1 + nt
    return Grid(x0=x0, dx=dx, nx=nx, t0=t0, dt=dt, nt=nt, fields=fields, params=params)
