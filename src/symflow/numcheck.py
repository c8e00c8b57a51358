"""Numeric verification layer: exact seed solutions on grids and finite
difference residuals.

The seed family lives on the zero background: with u = v = 0 the linear
problem integrates to plane-wave eigenfunctions and a potential f that
is linear in x and t.  ``vacuum_forms`` is its one statement: it reads
the closed forms from ``lax_pair()`` at u = v = 0 and certifies them
once per process (all eight equations of the prolonged system reduce to
zero modulo the forms, identically in the parameters), and one function
evaluates the certified forms on t-rows of a mesh of the fixed extent
``VACUUM_EXTENT``: all rows for ``make_vacuum_grid``, one block of rows at
a time for the refinement study.  So every numeric expectation in this
module traces back to an exact statement, and the residual study's memory
does not grow with the number of t-rows.

numpy is imported inside the functions that use it: importing this module
(as ``import symflow`` does) must not load numpy for runs that evaluate no
grid.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import types
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .expr import Expr, ExprError, IndependentVariable, JetCoordinate, Parameter, exp_of, parse
from .grpflow import PoleError, map_solution
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

    def mesh(self, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """t and x at the mesh points of the t-rows ``rows``."""
        import numpy as np
        t, x = np.meshgrid(
            self.t0 + self.dt * np.arange(self.nt)[rows],
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


def _vacuum_mesh(params: Mapping[str, float] | None, nx: int, nt: int) -> tuple[Grid, dict]:
    """The field-less nx by nt grid of ``VACUUM_EXTENT`` with the seed's
    physical parameters, and every seed parameter keyed by its symbol
    (``params`` overrides ``DEFAULT_PARAMS`` by symbol name)."""
    for name in params or {}:
        if name not in DEFAULT_PARAMS:
            raise ValueError(f"unknown seed parameter '{name}' (want {', '.join(DEFAULT_PARAMS)})")
    x0, x1, t0, t1 = VACUUM_EXTENT
    grid = Grid(x0=x0, dx=(x1 - x0) / (nx - 1), nx=nx, t0=t0, dt=(t1 - t0) / (nt - 1), nt=nt)
    values = {**DEFAULT_PARAMS, **(params or {})}
    seed = {Parameter(name): complex(value) for name, value in values.items()}
    grid.params = {name: seed[Parameter(name)] for name in ("lambda", "alpha", "beta")}
    return grid, seed


def _vacuum_fields(
    grid: Grid, seed: Mapping[Parameter, complex], rows: slice
) -> dict[str, np.ndarray]:
    """The certified vacuum forms on the t-rows ``rows`` of ``grid``'s mesh."""
    import numpy as np
    t, x = grid.mesh(rows)
    env = {**seed, IndependentVariable("x"): x, IndependentVariable("t"): t}
    return {
        name: np.broadcast_to(form.eval_numeric(env), t.shape).astype(complex)
        for name, form in vacuum_forms().items()
    }


def make_vacuum_grid(
    params: Mapping[str, float] | None = None, nx: int = 201, nt: int = 101
) -> Grid:
    """The certified vacuum seed on an nx by nt mesh of ``VACUUM_EXTENT``;
    ``params`` overrides ``DEFAULT_PARAMS`` by symbol name."""
    grid, seed = _vacuum_mesh(params, nx, nt)
    grid.fields = _vacuum_fields(grid, seed, slice(None))
    return grid


# ---------------------------------------------------------------------------
# finite-difference residuals
# ---------------------------------------------------------------------------

#: interior t-rows of a residual block; its arrays hold one halo row more
#: on either side, so the residual's memory does not grow with nt
BLOCK_ROWS = 16


def _row_blocks(nt: int) -> list[slice]:
    """The t-rows of each block: ``BLOCK_ROWS`` interior rows (the last
    block fewer) and their halo, so the blocks' interiors tile rows 1..nt-2."""
    return [slice(r - 1, min(r + BLOCK_ROWS, nt - 1) + 1) for r in range(1, nt - 1, BLOCK_ROWS)]


# jet index -> its second-order centred difference on the interior points
# (t-rows 1..nt-2, x-columns 2..nx-3, inside the width-5 stencil of w_xxx),
# sliced before differencing so no full-width temporary is formed
_CENTRED_DIFFERENCES = {
    (): lambda w, dx, dt: w[1:-1, 2:-2],
    ("t",): lambda w, dx, dt: (w[2:, 2:-2] - w[:-2, 2:-2]) / (2 * dt),
    ("x",): lambda w, dx, dt: (w[1:-1, 3:-1] - w[1:-1, 1:-3]) / (2 * dx),
    ("x", "x"): lambda w, dx, dt: (
        (w[1:-1, 3:-1] - 2 * w[1:-1, 2:-2] + w[1:-1, 1:-3]) / dx**2
    ),
    ("x", "x", "x"): lambda w, dx, dt: (
        (w[1:-1, 4:] - 2 * w[1:-1, 3:-1] + 2 * w[1:-1, 1:-3] - w[1:-1, :-4]) / (2 * dx**3)
    ),
}


def _block_residual(grid: Grid, fields: Mapping[str, np.ndarray]) -> float:
    """Max residual over both equations of ``builtin_hirota`` on the
    interior of ``fields``, one block of ``grid``'s t-rows."""
    import numpy as np
    system = builtin_hirota()
    worst = 0.0
    for equation in system.equations:  # one equation's differences alive at a time
        env = {Parameter(p): grid.params[p] for p in system.parameters}
        for a in equation.jet_atoms():
            env[a] = _CENTRED_DIFFERENCES[a.index](fields[a.name], grid.dx, grid.dt)
        worst = max(worst, float(np.max(np.abs(equation.eval_numeric(env)))))
    return worst


def pde_residual(grid: Grid) -> float:
    """Max interior residual over both equations of ``builtin_hirota``,
    each jet they read replaced by its centred difference, computed block
    by block over views of the grid's fields."""
    if grid.nx < 7 or grid.nt < 7:
        raise ValueError("grid too small for the residual stencils (need >= 7)")
    missing = [p for p in builtin_hirota().parameters if p not in grid.params]
    if missing:
        raise ValueError(f"grid lacks the parameter(s) {', '.join(missing)}")
    return max(
        _block_residual(grid, {name: w[rows] for name, w in grid.fields.items()})
        for rows in _row_blocks(grid.nt)
    )


def transformed_residual_orders(epsilon: float) -> tuple[list[float], list[float]]:
    """Residual of the u and v equations (the larger of the two) for the
    flow-transformed seed under grid refinement.

    Returns the per-level residuals and the observed convergence orders
    log2(r_k / r_{k+1}); the transformed fields solve the system exactly,
    so the residual is pure truncation error and the orders sit near 2.
    Each level is evaluated, mapped and differenced one block of t-rows at
    a time.  A failure waits for the level's last block: a pole anywhere
    outranks an overflow, and the pole nearest 1 - epsilon*f = 0 is the
    one reported, at its grid index.
    """
    values = []
    for nx, nt in REFINEMENT_LEVELS:
        grid, seed = _vacuum_mesh(None, nx, nt)
        worst, errors = 0.0, []
        for rows in _row_blocks(nt):
            try:
                moved = map_solution(_vacuum_fields(grid, seed, rows), epsilon, rows.start)
            except ExprError as error:
                errors.append(error)
            else:
                worst = max(worst, _block_residual(grid, moved))
        if errors:
            raise min(errors, key=lambda e: e.distance if isinstance(e, PoleError) else math.inf)
        values.append(worst)
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
        # the array is allocated only once every row holds nx values, so a
        # header that overstates nx or nt fails at a row, not in numpy
        counts = [row.count(",") + 1 for _, row in rows]
        array = np.empty((nt, nx), dtype=complex) if set(counts) == {nx} else None
        for i, (number, row) in enumerate(rows):
            with at_line(number):
                if counts[i] != nx:
                    raise ValueError(f"field '{name}' row has {counts[i]} values, want {nx}")
                values = [_parse_complex(v) for v in row.split(",")]
            if array is not None:  # else a later row fails its count
                array[i] = values
        grid.fields[name] = array
    return grid
