"""The report of ``symflow all --seed 7 --json`` against a recorded one.

``golden/all_seed7.json`` is that report with every ``ms`` field removed.
Names, statuses, details and the report header must match exactly; a
residual may differ from the recorded float by ``RESIDUAL_RTOL`` (the
details print it to three digits, so a last-bit change in the float
shows only here).

Run as a script to hold a report written by the installed entry point to
the same standard::

    python tests/test_golden.py report.json
"""

import json
import math
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden") / "all_seed7.json"
RESIDUAL_RTOL = 1e-6


def report_mismatches(report: dict, golden: dict) -> list[str]:
    """Each way ``report`` differs from ``golden``, ``ms`` ignored."""
    found = [
        f"{key}: {report.get(key)!r} != {want!r}"
        for key, want in golden.items()
        if key != "checks" and report.get(key) != want
    ]
    checks, wanted = report.get("checks", []), golden["checks"]
    if [c.get("name") for c in checks] != [c["name"] for c in wanted]:
        return found + ["check names or their order differ"]
    for got, want in zip(checks, wanted):
        for key in ("status", "detail"):
            if got.get(key) != want[key]:
                found.append(f"{want['name']} {key}: {got.get(key)!r} != {want[key]!r}")
        residual, recorded = got.get("residual"), want["residual"]
        if (residual is None) != (recorded is None) or (
            recorded is not None and not math.isclose(residual, recorded, rel_tol=RESIDUAL_RTOL)
        ):
            found.append(f"{want['name']} residual: {residual!r} != {recorded!r}")
    return found


def test_all_report_matches_the_recorded_one(tmp_path, capsys):
    from symflow.cli import main

    path = tmp_path / "report.json"
    assert main(["all", "--seed", "7", "--json", str(path)]) == 0
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text())
    assert report_mismatches(json.loads(path.read_text()), golden) == []


def test_a_changed_detail_or_residual_is_reported():
    golden = json.loads(GOLDEN.read_text())
    report = json.loads(GOLDEN.read_text())
    report["checks"][1]["detail"] += " "
    report["checks"][1]["residual"] *= 1 + 10 * RESIDUAL_RTOL
    assert len(report_mismatches(report, golden)) == 2
    report["checks"].pop()
    assert report_mismatches(report, golden) == ["check names or their order differ"]


if __name__ == "__main__":
    report = json.loads(Path(sys.argv[1]).read_text())
    mismatches = report_mismatches(report, json.loads(GOLDEN.read_text()))
    print("\n".join(mismatches) or f"{sys.argv[1]} matches {GOLDEN.name}")
    sys.exit(1 if mismatches else 0)
