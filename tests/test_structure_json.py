"""The brackets that ``symflow optimal-system --json-structure`` prints.

After the check lines, standard output holds one JSON object: each
bracket [gi,gj], i < j, of the six generators, mapped to its six
coordinates as strings.  [g1,g2] = g2, [g1,g3] = -g3, [g2,g3] = -2 g1,
and every other bracket is 0.

Run as a script to hold the output of the installed entry point to the
same expectation::

    symflow optimal-system --json-structure > structure.out
    python tests/test_structure_json.py structure.out
"""

import itertools
import json
import sys
from pathlib import Path

LABELS = ("g1", "g2", "g3", "g4", "g5", "g6")
# (gi, gj) -> (slot, coordinate) of each nonzero bracket
NONZERO = {("g1", "g2"): ("g2", "1"), ("g1", "g3"): ("g3", "-1"), ("g2", "g3"): ("g1", "-2")}


def expected_brackets() -> dict[str, list[str]]:
    brackets = {}
    for pair in itertools.combinations(LABELS, 2):
        row = ["0"] * len(LABELS)
        if pair in NONZERO:
            slot, value = NONZERO[pair]
            row[LABELS.index(slot)] = value
        brackets["[{},{}]".format(*pair)] = row
    return brackets


def structure_mismatches(stdout: str) -> list[str]:
    """Each way the JSON object in ``stdout`` differs from the brackets."""
    lines = stdout.splitlines()
    if "{" not in lines:
        return ["no JSON object in the output"]
    printed = json.loads("\n".join(lines[lines.index("{"):]))
    wanted = expected_brackets()
    return [
        f"{key}: {printed.get(key)!r} != {wanted.get(key)!r}"
        for key in sorted(printed.keys() | wanted.keys())
        if printed.get(key) != wanted.get(key)
    ]


def test_json_structure_prints_each_bracket(capsys):
    from symflow.cli import main

    assert main(["optimal-system", "--json-structure"]) == 0
    assert structure_mismatches(capsys.readouterr().out) == []


def test_a_changed_or_missing_bracket_is_reported():
    brackets = expected_brackets()
    brackets["[g2,g3]"][0] = "2"
    del brackets["[g5,g6]"]
    text = "PASS structure-table\n" + json.dumps(brackets, indent=2, sort_keys=True) + "\n"
    assert [line.split(":")[0] for line in structure_mismatches(text)] == ["[g2,g3]", "[g5,g6]"]
    assert structure_mismatches("PASS structure-table\n") == ["no JSON object in the output"]


if __name__ == "__main__":
    mismatches = structure_mismatches(Path(sys.argv[1]).read_text())
    print("\n".join(mismatches) or f"{sys.argv[1]} holds the expected brackets")
    sys.exit(1 if mismatches else 0)
