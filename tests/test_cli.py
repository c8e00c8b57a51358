import argparse
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
from conftest import fresh_interpreter, hand_table
from symflow.cli import STEPS, Report, _rebuilds_to_itself, _run, build_parser, main
from symflow import conslaw, grpflow, jetsys, liealg, linsym, numcheck
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


def test_bad_symmetry_manifest_fails(tmp_path, capsys):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text("[symmetry]\nsigma_u = u\nsigma_v = v\n")
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 2
    assert "lacks sigma_phi, sigma_psi, sigma_f" in capsys.readouterr().err

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


def test_residual_details_print_whole_terms(tmp_path, capsys):
    # Along sigma_u = Exp(u), equation 0's residual has 6 terms and its
    # third, alpha*Diff(u,x)^2*Exp(u), does not fit the detail's width.
    text = "[symmetry]\nsigma_u = Exp(u)\nsigma_v = 0\nsigma_phi = 0\nsigma_psi = 0\nsigma_f = 0\n"
    manifest, path = tmp_path / "sigma.txt", tmp_path / "r.json"
    manifest.write_text(text)
    assert run(["verify-symmetry", "--manifest", str(manifest), "--json", str(path)]) == 1
    (check,) = json.loads(path.read_text())["checks"]
    assert re.search(r"nonzero residuals: equation 0: \S", check["detail"])
    assert "6 nonzero residuals" in check["detail"]
    system = jetsys.builtin_prolonged()
    residuals = linsym.verify_symmetry(system, linsym.parse_symmetry_manifest(text, system)).residuals
    leads = check["detail"].split(": ", 1)[1].split("; ")
    failing = [(i, r) for i, r in enumerate(residuals) if not r.is_zero()]
    assert len(leads) == len(failing)
    for lead, (index, residual) in zip(leads, failing):
        shown, left = re.fullmatch(rf"equation {index}: (.+?)(?: \.\.\. \((\d+) more terms?\))?", lead).groups()
        printed, terms = parse(shown, system.vocabulary), dict(residual.items())
        assert printed.terms and all(terms.get(mono) == c for mono, c in printed.items())
        assert len(printed.terms) + int(left or 0) == len(terms)
    assert "(4 more terms)" in leads[0]


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


SL2_BRACKETS = {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {0: -2}}


@pytest.mark.parametrize("extra, detail", [
    ({(0, 3): {3: 1}}, "unexpected bracket [g1,g4]"),
    ({(4, 5): {0: 1}}, "unexpected bracket [g5,g6]"),
    ({(1, 2): {0: -2, 3: 1}}, "error: [g2,g3] is not the sl(2) bracket"),
])
def test_structure_table_names_a_bracket_it_does_not_expect(extra, detail):
    (step,) = (step for step in STEPS if step.name == "structure-table")
    table = hand_table(6, {**SL2_BRACKETS, **extra})
    session = argparse.Namespace(optimal=argparse.Namespace(table=table))
    report = Report("optimal-system", "")
    _run(step, session, report)
    (check,) = report.checks
    assert (check.status, check.detail) == ("fail", detail)


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
    run(["corpus", "--json", str(path)])
    payload = json.loads(path.read_text())
    # the prolonged manifest, solved forms derived from the Lax pair, byte for byte
    assert payload["inputs"] == "650eff0897a94ae1"


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


@pytest.mark.parametrize("argv", [
    ["all", "--json", ""],
    ["finite-transform", "--grid", ""],
    ["finite-transform", "--grid", "in.grid", "--out", ""],
    ["verify-symmetry", "--manifest", ""],
    ["conservation", "--diagnose-transcription", ""],
])
def test_empty_path_is_a_usage_error(argv, capsys):
    # an empty path must not silently run the default checks instead
    assert "must be a nonempty path" in _usage_error(capsys, argv)


# The options each subcommand accepts (besides -h): exactly the flags its checks read.
OPTIONS = {
    "zero-curvature": ["--json", "--numeric-points"],
    "verify-symmetry": ["--json", "--family", "--manifest"],
    "finite-transform": ["--json", "--seed", "--epsilon", "--grid", "--out"],
    "optimal-system": ["--json", "--seed", "--samples", "--json-structure"],
    "conservation": ["--json", "--numeric-points", "--generator", "--diagnose-transcription"],
    "corpus": ["--json"],
    "all": ["--json", "--seed", "--numeric-points"],
}


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_accepts_exactly_the_options_it_reads():
    table = {
        name: [o for a in p._actions if not isinstance(a, argparse._HelpAction)
               for o in a.option_strings]
        for name, p in _subcommands().items()
    }
    assert table == OPTIONS


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(argv)) for argv, message in (
        *(([command, "--seed", "3"], "unrecognized arguments: --seed 3")
          for command in ("zero-curvature", "verify-symmetry", "conservation", "corpus")),
        *(([command, "--numeric-points", "2"], "unrecognized arguments: --numeric-points 2")
          for command in ("verify-symmetry", "finite-transform", "optimal-system", "corpus")),
        (["corpus", "--quiet-manifest"], "unrecognized arguments: --quiet-manifest"),
        (["conservation", "--generator", "all"], "invalid choice: 'all'"),
    )
])
def test_a_setting_no_check_reads_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and message in errors[0]


def test_every_readme_command_line_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#")[0].split() for line in block.splitlines() if line.startswith("symflow ")]
    assert len(lines) >= len(OPTIONS)
    for words in lines:
        build_parser().parse_args(words[1:])


def _one_line_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("symflow: error: ") and err.count("\n") == 1
    assert str(path) in err
    return err


def test_kicked_localized_manifest_names_all_six_failing_equations(tmp_path, capsys):
    # The verdict stops at equation 0; the report still reads every residual.
    manifest = tmp_path / "sigma.txt"
    manifest.write_text(
        "[symmetry]\nsigma_u = -phi^2 + u\nsigma_v = -psi^2\n"
        "sigma_phi = -f*phi\nsigma_psi = -f*psi\nsigma_f = -f^2\n"
    )
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 1
    out = capsys.readouterr().out
    assert "6 nonzero residuals" in out
    assert re.findall(r"equation (\d+):", out) == ["0", "1", "2", "4", "5", "7"]


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


def test_grid_output_without_grid_is_a_usage_error(tmp_path, capsys):
    # --out names where the moved grid goes; with no --grid there is none
    out = tmp_path / "moved.grid"
    with pytest.raises(SystemExit) as err:
        run(["finite-transform", "--out", str(out)])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and "--out needs --grid" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-0.0"])
def test_zero_epsilon_without_grid_is_a_usage_error(value, capsys):
    # the unmoved vacuum seed has residual 0 at every level: no order to read
    with pytest.raises(SystemExit) as err:
        run(["finite-transform", f"--epsilon={value}"])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and "--epsilon 0" in errors[0] and "needs --grid" in errors[0]


def test_manifest_and_family_are_mutually_exclusive(tmp_path, capsys):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text("[symmetry]\nsigma_u = phi^2\nsigma_v = psi^2\n")
    err = _usage_error(
        capsys, ["verify-symmetry", "--manifest", str(manifest), "--family", "coupled-5"]
    )
    assert "not allowed with" in err


def test_unparsable_symmetry_line_exits_two(tmp_path, capsys):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text("[symmetry]\nsigma_u = phi^^2\nsigma_v = psi^2\n")
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 2
    _one_line_error(capsys, manifest)


def test_symmetry_line_dividing_by_zero_exits_two_saying_so(tmp_path, capsys):
    manifest = tmp_path / "sigma.txt"
    manifest.write_text(
        "[symmetry]\nsigma_u = 1/0\nsigma_v = 0\nsigma_phi = 0\nsigma_psi = 0\nsigma_f = 0\n"
    )
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 2
    assert "line 2: division by zero (byte offset 1)" in _one_line_error(capsys, manifest)


def test_coupled_family_detail_names_beta_nonzero(capsys):
    assert run(["verify-symmetry", "--family", "coupled-5"]) == 0
    out = capsys.readouterr().out
    assert "PASS family-coupled-5  [all residuals reduce to 0 (beta != 0)]" in out
    assert run(["verify-symmetry", "--family", "prolonged-6"]) == 0
    assert "beta" not in capsys.readouterr().out


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


@pytest.mark.parametrize("text, message", [
    ("sigma_u = nonsense here\n" + LOCALIZED_MANIFEST,
     "line 1: content before any section header: 'sigma_u = nonsense here'"),
    (LOCALIZED_MANIFEST.replace("sigma_v", "[symetry]\nsigma_v"),
     "line 3: unknown section header '[symetry]'"),
], ids=["before-header", "misspelled-header"])
def test_symmetry_manifest_stray_line_exits_two(text, message, tmp_path, capsys):
    # each used to be dropped silently, and the check then failed on a
    # missing component instead of naming the line
    manifest = tmp_path / "sigma.txt"
    manifest.write_text(text)
    assert run(["verify-symmetry", "--manifest", str(manifest)]) == 2
    assert message in _one_line_error(capsys, manifest)


def test_repeated_transcription_key_exits_two(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("T1 = u\nT2 = v\nT1 = v\n")
    assert run(["conservation", "--generator", "g1", "--numeric-points", "1",
                "--diagnose-transcription", str(path)]) == 2
    assert "line 3: T1 is given twice" in _one_line_error(capsys, path)


def test_truncated_grid_exits_two(tmp_path, capsys):
    text = numcheck.write_grid(numcheck.make_vacuum_grid(nx=9, nt=8))
    src = tmp_path / "cut.grid"
    src.write_text("\n".join(text.splitlines()[:-3]) + "\n")
    assert run(["finite-transform", "--grid", str(src)]) == 2
    assert "of its 8 rows" in _one_line_error(capsys, src)


def test_grid_spacing_not_positive_exits_two_naming_the_header_line(tmp_path, capsys):
    header, rest = numcheck.write_grid(numcheck.make_vacuum_grid(nx=9, nt=8)).split("\n", 1)
    words = header.split()
    words[4] = "0"
    src = tmp_path / "flat.grid"
    src.write_text("# a comment\n" + " ".join(words) + "\n" + rest)
    assert run(["finite-transform", "--grid", str(src)]) == 2
    assert "line 2: grid spacings must be positive" in _one_line_error(capsys, src)


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


def _second_alpha(lines):
    lines[0] += " alpha=7.0+0.0i"
    return lines


def _short_u_row(lines):
    row = lines.index("field u") + 2
    lines[row] = lines[row].rsplit(",", 1)[0]
    return lines


def _long_u_row(lines):
    row = lines.index("field u") + 2
    lines[row] += ",0.0+0.0i"
    return lines


@pytest.mark.parametrize(
    "damage", [_nan_in_f, _inf_alpha, _second_u, _second_alpha, _short_u_row, _long_u_row]
)
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
    in_memory = numcheck.pde_residual(moved)
    assert in_memory < 1e-3
    assert checks["transformed-grid-residual"]["detail"] == f"u and v equations: {in_memory:.3e}"


def test_grid_residual_reads_the_v_equation(tmp_path, capsys):
    # on u = 0 the u-equation is blind to v, so a bump in v alone shows
    # only in the v-equation's residual
    import numpy as np

    grid = numcheck.make_vacuum_grid(nx=41, nt=21)
    _t, x = grid.mesh()
    grid.fields["v"] = grid.fields["v"] + 0.1 * np.exp(-x**2)
    assert numcheck.pde_residual(grid) > 0.1
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


# the numpy warnings an overflow would raise are errors under the pytest
# configuration, so these runs also show that none reaches the user
def test_an_overflowing_flow_writes_no_grid_and_exits_two(tmp_path, capsys):
    src = tmp_path / "vacuum.grid"
    src.write_text(numcheck.write_grid(numcheck.make_vacuum_grid(nx=21, nt=11)))
    dst = tmp_path / "big.grid"
    assert run(["finite-transform", "--grid", str(src), "--out", str(dst),
                "--epsilon", "1e308"]) == 2
    assert "epsilon = 1e+308" in _one_line_error(capsys, src)
    assert not dst.exists()


def test_an_overflowing_flow_fails_the_seed_check(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert run(["finite-transform", "--epsilon", "1e308", "--json", str(path)]) == 1
    (check,) = [c for c in _report(path) if c["name"] == "transformed-seed-residual-order"]
    assert check["status"] == "fail"
    assert check["detail"].startswith("error: ") and "epsilon = 1e+308" in check["detail"]


def test_a_pole_in_a_later_block_of_t_rows_is_named_at_its_grid_index(capsys):
    # the pole sits on t-row 20 of the coarsest level, past its first block
    assert numcheck.BLOCK_ROWS < 20
    assert run(["finite-transform", "--epsilon", "0.17556179775280898"]) == 1
    assert (
        "FAIL transformed-seed-residual-order  [error: flow pole on grid at index (20, 50): "
        "1 - epsilon*f = 0 at f = 5.696 (epsilon = 0.175562)]"
    ) in capsys.readouterr().out.splitlines()


def test_a_subnormal_epsilon_measures_no_order(capsys):
    # the residuals fall below the smallest normal float: their ratios are
    # rounding, not truncation error, so no order is read off them
    assert run(["finite-transform", "--epsilon", "1e-320"]) == 1
    (line,) = [
        line for line in capsys.readouterr().out.splitlines()
        if "transformed-seed-residual-order" in line
    ]
    assert line.startswith("FAIL transformed-seed-residual-order  [u and v equations: residuals [")
    assert line.endswith("] are subnormal: no order measured]") and "orders" not in line


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


def test_the_package_binds_only_its_modules_and_verify_symmetry():
    """Names are imported from their modules; the package binds the seven
    modules, the verify_symmetry the benchmark's tracer counts, and the
    version."""
    script = (
        "import symflow\n"
        "print(*sorted(n for n in vars(symflow) if n[0] != '_'), symflow.__version__)"
    )
    assert fresh_interpreter(script).split() == [
        "conslaw", "expr", "grpflow", "jetsys", "liealg", "linsym", "numcheck",
        "verify_symmetry", "0.1.0",
    ]
