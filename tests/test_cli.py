import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symflow
from conftest import fresh_interpreter
from symflow.cli import _rebuilds_to_itself, main
from symflow import conslaw, grpflow, liealg, numcheck
from symflow.expr import ComplexRational, Expr, JetCoordinate, parse


def run(argv):
    return main(argv)


def test_zero_curvature_passes(capsys):
    assert run(["zero-curvature"]) == 0
    out = capsys.readouterr().out
    assert "PASS flatness-of-linear-problem" in out


def test_verify_symmetry_family_flag(capsys):
    assert run(["verify-symmetry", "--family", "coupled-5"]) == 0
    out = capsys.readouterr().out
    assert "family-coupled-5" in out


def test_negative_control_family_is_reported_as_rejected(capsys):
    assert run(["verify-symmetry", "--family", "prolonged-6-flipped"]) == 0
    out = capsys.readouterr().out
    assert "rejected" in out


def test_symmetry_manifest_input(tmp_path, capsys):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text(
        "[symmetry]\n"
        "sigma_u = phi^2\n"
        "sigma_v = psi^2\n"
        "sigma_phi = phi*f\n"
        "sigma_psi = psi*f\n"
        "sigma_f = f^2\n"
    )
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 0


def test_bad_symmetry_manifest_fails(tmp_path):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text("[symmetry]\nsigma_u = u\nsigma_v = v\n")
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 1

    # A complete characteristic that is no symmetry: the detail says which
    # equations fail and how their residuals start.
    manifest.write_text(
        "[symmetry]\nsigma_u = u\nsigma_v = v\nsigma_phi = phi\nsigma_psi = psi\nsigma_f = f\n"
    )
    path = tmp_path / "r.json"
    assert run(["verify-symmetry", "--manifest", str(manifest), "--json", str(path)]) == 1
    (check,) = json.loads(path.read_text())["checks"]
    assert check["status"] == "fail"
    assert re.search(r"nonzero residuals: equation 0: \S", check["detail"])


def test_conservation_single_generator(capsys):
    assert run(["conservation", "--generator", "g3", "--numeric-points", "2"]) == 0
    out = capsys.readouterr().out
    assert "divergence-g3" in out


def test_finite_transform_grid_pipeline(tmp_path, capsys):
    grid = numcheck.make_vacuum_grid(nx=21, nt=11)
    src = tmp_path / "vacuum.grid"
    src.write_text(numcheck.write_grid(grid))
    dst = tmp_path / "moved.grid"
    assert run([
        "finite-transform", "--grid", str(src), "--out", str(dst),
        "--epsilon", "0.1",
    ]) == 0
    moved = numcheck.read_grid(dst.read_text())
    assert set(moved.fields) == {"u", "v", "phi", "psi", "f"}


def test_optimal_system_subcommand(capsys):
    assert run(["optimal-system", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "structure-table" in out and "central-elements" in out


def test_corpus_emits_reparseable_manifests(capsys):
    assert run(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "[equations]" in out and "# system prolonged" in out


def test_all_pipeline_is_green(capsys):
    assert run(["all", "--numeric-points", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "kernel-properties" in out and "divergence-family" in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        run(["no-such-command"])
    assert err.value.code == 2


def test_json_report_deterministic_modulo_timing(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["zero-curvature", "--json", str(first)]) == 0
    assert run(["zero-curvature", "--json", str(second)]) == 0

    def normalize(path):
        payload = json.loads(path.read_text())
        for check in payload["checks"]:
            check.pop("ms")
        return payload

    a, b = normalize(first), normalize(second)
    assert a == b
    assert a["schema"] == 1
    assert all(c["status"] in ("pass", "info") for c in a["checks"])


def test_report_inputs_digest_is_stable(tmp_path):
    path = tmp_path / "r.json"
    run(["corpus", "--quiet-manifest", "--json", str(path)])
    payload = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{16}", payload["inputs"])


def _usage_error(capsys, argv):
    """Run ``argv``, want exit 2 from the parser, return its one error line."""
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].startswith(f"symflow {argv[0]}: error: ")
    return errors[0]


@pytest.mark.parametrize("argv", [
    ["optimal-system", "--samples", "0"],
    ["optimal-system", "--samples", "-3"],
    ["all", "--numeric-points", "0"],
    ["conservation", "--numeric-points", "-2"],
])
def test_empty_sample_is_a_usage_error(argv, capsys):
    # a check must not pass on no evidence
    assert "must be at least 1" in _usage_error(capsys, argv)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_nonfinite_epsilon_is_a_usage_error(value, capsys):
    line = _usage_error(capsys, ["finite-transform", f"--epsilon={value}"])
    assert "must be finite" in line


def _one_line_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("symflow: error: ") and err.count("\n") == 1
    assert str(path) in err
    return err


def test_missing_manifest_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "nowhere.txt"
    assert run(["verify-symmetry", "--manifest", str(missing)]) == 2
    _one_line_error(capsys, missing)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_json_report_exits_two(where, tmp_path, capsys):
    path = tmp_path / "nowhere" / "r.json" if where == "missing-directory" else tmp_path
    assert run(["zero-curvature", "--json", str(path)]) == 2
    assert "cannot write" in _one_line_error(capsys, path)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_grid_output_exits_two(where, tmp_path, capsys):
    src = tmp_path / "vacuum.grid"
    src.write_text(numcheck.write_grid(numcheck.make_vacuum_grid(nx=21, nt=11)))
    path = tmp_path / "nowhere" / "o.grid" if where == "missing-directory" else tmp_path
    assert run(["finite-transform", "--grid", str(src), "--out", str(path)]) == 2
    assert "cannot write" in _one_line_error(capsys, path)


def test_unparsable_symmetry_line_exits_two(tmp_path, capsys):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text("[symmetry]\nsigma_u = phi^^2\nsigma_v = psi^2\n")
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 2
    _one_line_error(capsys, manifest)


LOCALIZED_MANIFEST = (
    "[symmetry]\n"
    "sigma_u = phi^2 + c1*Diff(u,x)\n"
    "sigma_v = psi^2 + c1*Diff(v,x)\n"
    "sigma_phi = phi*f + c1*Diff(phi,x)\n"
    "sigma_psi = psi*f + c1*Diff(psi,x)\n"
    "sigma_f = f^2 + c1*Diff(f,x)\n"
)


def test_symmetry_manifest_with_free_constants(tmp_path):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text(LOCALIZED_MANIFEST)
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 0

    manifest.write_text(LOCALIZED_MANIFEST.replace("sigma_u = ", "sigma_u = c1*u + "))
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 1


@pytest.mark.parametrize("extra", ["sigma_phii = 1\n", "sigma_u = phi^2\n"])
def test_symmetry_manifest_bad_key_exits_two(extra, tmp_path, capsys):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text(LOCALIZED_MANIFEST + extra)
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 2
    assert extra.split(" =")[0] in _one_line_error(capsys, manifest)


def test_repeated_transcription_key_exits_two(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("T1 = u\nT2 = v\nT1 = v\n")
    assert run(["conservation", "--generator", "g1", "--numeric-points", "1",
                "--diagnose-transcription", str(path)]) == 2
    assert "T1 twice" in _one_line_error(capsys, path)


def test_truncated_grid_exits_two(tmp_path, capsys):
    text = numcheck.write_grid(numcheck.make_vacuum_grid(nx=9, nt=8))
    src = tmp_path / "cut.grid"
    src.write_text("\n".join(text.splitlines()[:-3]) + "\n")
    assert run(["finite-transform", "--grid", str(src)]) == 2
    assert "of its 8 rows" in _one_line_error(capsys, src)


def _nan_in_f(lines):
    row = lines.index("field f") + 2
    lines[row] = "nan+0.0i," + lines[row].split(",", 1)[1]
    return lines


def _inf_alpha(lines):
    lines[0] = lines[0].replace("alpha=1.0+0.0i", "alpha=inf+0.0i")
    return lines


def _second_u(lines):
    u_block = lines.index("field u")
    return lines + lines[u_block : u_block + 12]


@pytest.mark.parametrize("damage", [_nan_in_f, _inf_alpha, _second_u])
def test_non_finite_or_repeated_grid_input_exits_two(damage, tmp_path, capsys):
    lines = numcheck.write_grid(numcheck.make_vacuum_grid(nx=21, nt=11)).splitlines()
    src = tmp_path / "bad.grid"
    src.write_text("\n".join(damage(lines)) + "\n")
    assert run(["finite-transform", "--grid", str(src)]) == 2
    captured = capsys.readouterr()
    assert "transformed-grid-residual" not in captured.out
    assert captured.err.startswith("symflow: error: ") and captured.err.count("\n") == 1
    assert str(src) in captured.err and re.search(r": line \d+: ", captured.err)
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err


def test_grid_without_parameters_exits_two(tmp_path, capsys):
    text = numcheck.write_grid(numcheck.make_vacuum_grid(nx=21, nt=11))
    header, rest = text.split("\n", 1)
    src = tmp_path / "old.grid"
    src.write_text(" ".join(header.split()[:7]) + "\n" + rest)
    assert run(["finite-transform", "--grid", str(src)]) == 2
    assert "alpha, beta" in _one_line_error(capsys, src)


def test_grid_parameters_survive_the_file_round_trip(tmp_path, capsys):
    grid = numcheck.make_vacuum_grid({"alpha": 2.0, "beta": 1.5}, nx=101, nt=51)
    src = tmp_path / "vacuum.grid"
    src.write_text(numcheck.write_grid(grid))
    path = tmp_path / "r.json"
    assert run(["finite-transform", "--grid", str(src), "--epsilon", "0.1",
                "--json", str(path)]) == 0
    checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    moved = dataclasses.replace(grid, fields=grpflow.map_solution(grid.fields, 0.1))
    in_memory = max(numcheck.pde_residual(moved, which) for which in ("u", "v"))
    assert in_memory < 1e-3
    assert checks["transformed-grid-residual"]["detail"] == f"u and v equations: {in_memory:.3e}"


def test_grid_residual_reads_the_v_equation(tmp_path, capsys):
    # on u = 0 the u-equation is blind to v, so a bump in v alone shows
    # only in the v-equation's residual
    import numpy as np

    grid = numcheck.make_vacuum_grid(nx=41, nt=21)
    _t, x = grid.mesh()
    grid.fields["v"] = grid.fields["v"] + 0.1 * np.exp(-x**2)
    assert numcheck.pde_residual(grid, "u") == 0
    src = tmp_path / "bump.grid"
    src.write_text(numcheck.write_grid(grid))
    path = tmp_path / "r.json"
    assert run(["finite-transform", "--grid", str(src), "--epsilon", "0",
                "--json", str(path)]) == 0
    detail = {c["name"]: c for c in _report(path)}["transformed-grid-residual"]["detail"]
    assert detail.startswith("u and v equations: ")
    assert float(detail.rsplit(" ", 1)[1]) > 0.1


def _report(path):
    return json.loads(path.read_text())["checks"]


def test_crash_in_shared_work_is_a_failed_check(tmp_path, capsys, monkeypatch):
    def broken(**kwargs):
        raise RuntimeError("flow engine down")

    monkeypatch.setattr(grpflow, "verify_flow_properties", broken)
    path = tmp_path / "r.json"
    assert run(["finite-transform", "--json", str(path)]) == 1
    failed = [c for c in _report(path) if c["status"] == "fail"]
    assert failed and all(c["detail"] == "error: flow engine down" for c in failed)
    assert [c["name"] for c in _report(path)][-1] == "transformed-seed-residual-order"


def test_shared_work_is_timed_inside_the_checks(tmp_path, capsys, monkeypatch):
    original = liealg.verify_optimal_system

    def slow(**kwargs):
        time.sleep(0.2)
        return original(samples=5, seed=kwargs["seed"])

    monkeypatch.setattr(liealg, "verify_optimal_system", slow)
    path = tmp_path / "r.json"
    assert run(["optimal-system", "--json", str(path)]) == 0
    assert sum(c["ms"] for c in _report(path)) >= 200


def test_all_reports_the_registry_in_order(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert run(["all", "--seed", "7", "--json", str(path)]) == 0
    assert [c["name"] for c in _report(path)] == [
        "flatness-of-linear-problem",
        "potential-density-flux-pair",
        "seed-pair-on-evolution-equations",
        "localized-five-component",
        "family-coupled-5",
        "family-prolonged-6",
        "flow-ode-consistency",
        "flow-group-law",
        "flow-identity-at-zero",
        "flow-infinitesimal-generator",
        "sign-variant-fails-group-law",
        "flow-matches-ode-oracle",
        "transformed-seed-residual-order",
        "structure-table",
        "central-elements",
        "normalization-sample",
        "orbit-separation",
        "orbit-separation",
        "divergence-g1",
        "divergence-g2",
        "divergence-g3",
        "divergence-g4",
        "divergence-g5",
        "divergence-g6",
        "divergence-family",
        "divergence-flux-pair",
        "manifest-roundtrip-hirota",
        "manifest-roundtrip-prolonged",
        "kernel-properties",
    ]


def test_all_checks_the_flux_pair_once(tmp_path, capsys, monkeypatch):
    original = conslaw.verify_divergence
    flux_pair_calls = []

    def counting(cv, *args, **kwargs):
        if cv == conslaw.flux_pair():
            flux_pair_calls.append(cv)
        return original(cv, *args, **kwargs)

    monkeypatch.setattr(conslaw, "verify_divergence", counting)
    path = tmp_path / "r.json"
    assert run(["all", "--json", str(path)]) == 0
    assert len(flux_pair_calls) == 1
    checks = {c["name"]: c for c in _report(path)}
    density, divergence = checks["potential-density-flux-pair"], checks["divergence-flux-pair"]
    assert density["residual"] == divergence["residual"]
    assert divergence["detail"].startswith(density["detail"] + "; ")


def test_normal_form_check_catches_misordered_terms():
    # An Expr maps monomials to coefficients in no order, so its terms in
    # reverse order are still its normal form.  What the map can hold out
    # of normal form is a term whose factors are out of order, or a term
    # with a zero coefficient: the check must reject both.
    rng = random.Random(3)
    e = parse("alpha*u^2 - 3*I*Diff(v,x)/u + Exp(2*x)*phi/7 + 5")
    assert _rebuilds_to_itself(e, rng)
    assert _rebuilds_to_itself(Expr(tuple(reversed(e.terms))), rng)
    misordered = Expr((tuple(reversed(mono)), coeff) for mono, coeff in e.terms)
    assert not _rebuilds_to_itself(misordered, rng)
    zero_term = ((JetCoordinate("v"), 2),), ComplexRational(0)
    assert not _rebuilds_to_itself(Expr(e.terms + (zero_term,)), rng)


def test_flow_pole_names_epsilon_and_f(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert run(["finite-transform", "--epsilon", "0.2", "--json", str(path)]) == 1
    (check,) = [c for c in _report(path) if c["name"] == "transformed-seed-residual-order"]
    assert check["status"] == "fail"
    assert "1 - epsilon*f = 0 at f = " in check["detail"]
    assert "epsilon = 0.2" in check["detail"]


def test_closed_pipe_exits_one_without_traceback():
    # as in `symflow all | head -1`: the reader leaves after the first line
    env = {**os.environ, "PYTHONPATH": str(Path(symflow.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "symflow", "all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert child.stdout.readline().startswith(b"PASS ")
        child.stdout.close()
        _, stderr = child.communicate(timeout=120)
    finally:
        child.kill()
    assert child.returncode == 1
    assert stderr == b""


_COLD_SCRIPT = """
import contextlib, io
from fractions import Fraction
from tracer import SPANS
import symflow
from symflow import cli, jetsys, liealg, linsym, numcheck
system = jetsys.builtin_prolonged()
determining = linsym.generate_determining(system, linsym.prolonged_ansatz())
table = liealg.structure_table(liealg.standard_generators())
liealg.normalize_triple(table, (Fraction(1), Fraction(2), Fraction(3)))
jetsys.consistent_point(system, 5)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["zero-curvature"])
print(len(determining.constraints), linsym.coupled_family().verify(system).holds, code)
print("numpy" in sys.modules, sorted({m for m, _, _ in SPANS.values()} - set(sys.modules)))
numcheck.make_vacuum_grid()
print("numpy" in sys.modules)
"""


def test_symbolic_work_never_loads_numpy():
    """numpy serves the grid oracles only: importing symflow and doing
    symbolic work leaves it unloaded, while every module the benchmark's
    tracer patches is loaded; the first grid loads it."""
    assert fresh_interpreter(_COLD_SCRIPT).splitlines() == [
        "230 True 0", "False []", "True",
    ]
