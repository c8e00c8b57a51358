"""Child interpreter: sets up the engine, runs units, reports verdicts.

Run as ``python3 perfbench/worker.py '<job json>'`` with ``src`` on
``PYTHONPATH``; ``run.py`` does that.  It writes one JSON object per line
to its standard output and nothing else (the engine's own printing goes
to the null device):

* ``{"event": "ready"}`` once ``symflow`` is imported and the workload's
  set-up is done (for ``candidates`` that includes filling the closure's
  rule cache; for ``classification`` building the structure table);
* ``{"event": "verdict", ...}`` per unit, as soon as the engine returns;
* ``{"event": "done", ...}`` last, with peak memory and, when traced,
  the per-layer metrics.

Job keys: ``workload``, ``seed``, ``units`` (list of unit indices) or
``seconds`` (run units 0, 1, ... until that much time has passed),
``setup_only``, ``trace`` and ``spans`` (where to write them).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# speed probe
# ---------------------------------------------------------------------------

# The host's speed changes by up to 2x within seconds (other tenants share
# its cores), which no number of repeated units averages out in a 25-second
# run.  Every PROBE_INTERVAL_S a timer signal runs a fixed reference task:
# a polynomial-style product over Fraction coefficients with sorted tuple
# keys and dict accumulation, the same mix as the engine's kernel.  Times
# are reported rescaled to the speed at which the reference task takes
# REFERENCE_S (its 5th-percentile time on a 2-core Xeon at 2.0 GHz), with
# the probes' own time taken out.  Raw wall times are reported alongside.
PROBE_INTERVAL_S = 0.1
# Set-up takes a quarter of a second in the cold workloads, so until it is
# done the probe runs five times as often.
SETUP_PROBE_INTERVAL_S = 0.02
REFERENCE_S = 0.00096
PROBE_WINDOW = 10
_MONOMIALS = [
    tuple((j, f"a{(i * 7 + j) % 11}") for j in range(i % 4 + 1)) for i in range(40)
]


def reference_task():
    acc = {}
    for i, m1 in enumerate(_MONOMIALS):
        for j, m2 in enumerate(_MONOMIALS[::5]):
            key = tuple(sorted(m1 + m2))
            c = Fraction(i + 1, j + 2)
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return sorted(acc.items())


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.tracer = None
        # The interpreter specialises a function's code over its first runs.
        for _ in range(3):
            reference_task()
        signal.signal(signal.SIGALRM, self._tick)
        self.every(SETUP_PROBE_INTERVAL_S)

    def _tick(self, _signum, _frame):
        # The reference task must not show up in a traced run's counts.
        unit = self.tracer.unit if self.tracer else -1
        if self.tracer:
            self.tracer.unit = -1
        start = time.perf_counter()
        reference_task()
        self.durations.append(time.perf_counter() - start)
        self.times.append(start)
        if self.tracer:
            self.tracer.unit = unit

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """(probe seconds inside [start, end), speed factor over it).

        The factor is the mean of REFERENCE_S / probe time over the probes
        inside the interval, or over the last PROBE_WINDOW probes before its
        end when fewer ran inside it.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        inside = self.durations[lo:hi]
        basis = inside if len(inside) >= PROBE_WINDOW else self.durations[max(0, hi - PROBE_WINDOW):hi]
        factor = statistics.fmean(REFERENCE_S / d for d in basis) if basis else 1.0
        return sum(inside), factor

    def every(self, seconds: float):
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def stop(self):
        self.every(0)


def emit(event: str, **fields):
    _channel.write(json.dumps({"event": event, **workloads.encode(fields)}) + "\n")
    _channel.flush()


# ---------------------------------------------------------------------------
# workload set-up and units
# ---------------------------------------------------------------------------


class Pipeline:
    def __init__(self, seed: int):
        from symflow import cli

        self.cli = cli
        self.seed = seed

    def run(self, index: int):
        with tempfile.TemporaryDirectory(dir=_out_dir()) as tmp:
            path = os.path.join(tmp, "report.json")
            argv = ["all", "--seed", str(workloads.pipeline_seed(self.seed, index)), "--json", path]
            code = self.cli.main(argv)
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
        return {"exit_code": code, "report": report}


class Determining:
    def __init__(self, seed: int):
        from symflow import jetsys, linsym

        self.linsym = linsym
        self.system = jetsys.builtin_prolonged()

    def run(self, index: int):
        linsym = self.linsym
        ansatz = linsym.prolonged_ansatz()
        determining = linsym.generate_determining(self.system, ansatz)
        solution = linsym.family_as_solution(linsym.prolonged_family(), ansatz)
        flipped = linsym.family_as_solution(linsym.prolonged_family(flip_psi_eta=True), ansatz)
        accepts = determining.verify_solution(self.system, solution)
        accepts_flipped = determining.verify_solution(self.system, flipped)
        return {
            "constraints": len(determining.constraints),
            "linear_homogeneous": determining.is_linear_homogeneous(),
            "digest": constraint_digest(determining.constraints),
            "accepts_prolonged_6": accepts,
            "accepts_prolonged_6_flipped": accepts_flipped,
        }


def constraint_digest(constraints) -> str:
    from symflow.expr import to_text

    digest = hashlib.sha256()
    for equation, key, constraint in constraints:
        digest.update(f"{equation}|{key}|{to_text(constraint)}\n".encode())
    return digest.hexdigest()[:16]


class Candidates:
    """Specialised family characteristics against a warm rule cache."""

    # The fixed non-symmetry added to each family: the constant-free part of
    # the single-coefficient mutations the test suite rejects.
    NON_SYMMETRY = {"coupled-5": ("u", "I*alpha*u*x/(9*beta)"), "prolonged-6": ("phi", "phi")}

    def __init__(self, seed: int):
        from symflow import jetsys, linsym
        from symflow.expr import Expr, Parameter, parse

        self.linsym, self.Expr, self.Parameter = linsym, Expr, Parameter
        self.seed = seed
        self.system = jetsys.builtin_prolonged()
        self.families = {"coupled-5": linsym.coupled_family(), "prolonged-6": linsym.prolonged_family()}
        self.non_symmetry = {
            name: (dep, parse(text)) for name, (dep, text) in self.NON_SYMMETRY.items()
        }
        for family in self.families.values():
            family.verify(self.system)

    def prepare(self, index: int):
        spec = workloads.candidate_spec(self.seed, index)
        Expr = self.Expr
        family = self.families[spec["family"]]
        mapping = {self.Parameter(c): Expr.from_scalar(v) for c, v in spec["constants"].items()}
        etas = {dep: eta.substitute(mapping) for dep, eta in family.etas.items()}
        dep, extra = self.non_symmetry[spec["family"]]
        etas[dep] = etas[dep] + Expr.from_scalar(spec["kick"]) * extra
        specialised = self.linsym.PointFamily(
            family.name, family.xi_x.substitute(mapping), family.xi_t.substitute(mapping),
            etas, family.equations,
        )
        return specialised.characteristic(), family.equations

    def run(self, prepared):
        sigma, equations = prepared
        return self.linsym.verify_symmetry(self.system, sigma, equations).holds


class Classification:
    def __init__(self, seed: int):
        from symflow import liealg

        self.liealg = liealg
        self.seed = seed
        self.table = liealg.structure_table(liealg.standard_generators())

    def prepare(self, index: int):
        return workloads.classification_triple(self.seed, index)

    def run(self, triple):
        record = self.liealg.normalize_triple(self.table, triple)
        return {
            "representative": record.representative,
            "alpha": record.alpha,
            "scale": record.scale,
            "killing_sign": record.killing_sign,
            "verified": record.verified,
        }


WORKLOAD_CLASSES = {
    "pipeline": Pipeline,
    "determining": Determining,
    "candidates": Candidates,
    "classification": Classification,
}


def _out_dir() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def main(job: dict) -> int:
    from symflow import jetsys

    tracer = None
    if job.get("trace"):
        from tracer import LAYER_METRICS, Tracer

        tracer = Tracer()
        tracer.install()
        PROBE.tracer = tracer
    jetsys.builtin_hirota()
    jetsys.builtin_prolonged()
    work = WORKLOAD_CLASSES[job["workload"]](job["seed"])
    emit("ready", **_since_start())
    PROBE.every(PROBE_INTERVAL_S)
    if job.get("setup_only"):
        emit("done", peak_rss_mb=_peak_rss_mb())
        return 0

    prepare = getattr(work, "prepare", lambda index: index)
    if "units" in job:
        indices, deadline = job["units"], None
    else:
        indices, deadline = itertools.count(), time.perf_counter() + job["seconds"]
    loop_start = time.perf_counter()
    for index in indices:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        prepared = prepare(index)
        if tracer:
            tracer.begin_unit(index)
        start = time.perf_counter()
        try:
            verdict, error = work.run(prepared), None
        except Exception as err:  # a crashed unit is reported, not fatal
            verdict, error = None, f"{type(err).__name__}: {err}"
        end = time.perf_counter()
        if tracer:
            tracer.end_unit()
        probe_s, factor = PROBE.interval(start, end)
        emit("verdict", index=index, s=(end - start - probe_s) * factor, wall_s=end - start,
             verdict=verdict, error=error, **_since_start())

    layers = None
    if tracer:
        # Span times, like unit times, at the reference speed; the probes
        # that ran inside spans are taken out in proportion.
        loop_end = time.perf_counter()
        probe_s, factor = PROBE.interval(loop_start, loop_end)
        scale = factor * (1.0 - probe_s / (loop_end - loop_start))
        layers = {
            name: value * scale if LAYER_METRICS[name] == "s" else value
            for name, value in tracer.layer_metrics().items()
        }
        if job.get("spans"):
            tracer.write(job["spans"])
    emit("done", peak_rss_mb=_peak_rss_mb(), layers=layers)
    return 0


def _since_start() -> dict:
    """Probe time and speed factor since the interpreter started, for times
    the parent measures from launching it."""
    probe_s, factor = PROBE.interval(STARTED, time.perf_counter())
    return {"probe_s": probe_s, "factor": factor}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    STARTED = time.perf_counter()
    _channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    sys.stdout = open(os.devnull, "w", encoding="utf-8")
    PROBE = SpeedProbe()
    try:
        code = main(json.loads(sys.argv[1]))
    finally:
        PROBE.stop()
    sys.exit(code)
