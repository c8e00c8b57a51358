"""Property tests for the shared reader of input files.

Blank lines and ``#`` comment lines inserted anywhere, and any order of
the ``[solved]`` lines, leave what every reader returns unchanged: the two
built-in system manifests, a symmetry manifest (alone and after a system
manifest), a conserved-vector transcription and a grid.  A line of
content before the first section header is refused with its number.
The examples are derandomised, so every run draws the same ones.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symflow.conslaw import transcription_residual  # noqa: E402
from symflow.expr import to_text  # noqa: E402
from symflow.jetsys import (  # noqa: E402
    MANIFEST_SECTIONS,
    ManifestError,
    builtin_hirota,
    builtin_prolonged,
    parse_manifest,
    write_manifest,
)
from symflow.linsym import localized_characteristic, parse_symmetry_manifest  # noqa: E402
from symflow.numcheck import make_vacuum_grid, read_grid, write_grid  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# characters that never end a line for str.splitlines
LINE_CHARACTERS = st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"))
FILLERS = st.one_of(
    st.sampled_from(["", "   ", "\t", "#"]),
    st.text(LINE_CHARACTERS, max_size=20).map(lambda s: "# " + s),
    st.text(LINE_CHARACTERS, max_size=20).map(lambda s: "  #" + s),
)
HEADERS = (*MANIFEST_SECTIONS, "[symmetry]")
CONTENT = st.text(LINE_CHARACTERS, min_size=1, max_size=30).filter(
    lambda s: s.strip() and not s.strip().startswith("#") and s.strip() not in HEADERS
)
SYSTEMS = {"hirota": builtin_hirota, "prolonged": builtin_prolonged}


def with_fillers(data, lines) -> str:
    """``lines`` with blank and comment lines inserted at drawn positions."""
    lines = list(lines)
    for filler in data.draw(st.lists(FILLERS, max_size=8)):
        lines.insert(data.draw(st.integers(0, len(lines))), filler)
    return "\n".join(lines) + "\n"


def read_symmetry(text):
    return parse_symmetry_manifest(text, builtin_prolonged())


def symmetry_lines() -> list[str]:
    sigma = localized_characteristic()
    return ["[symmetry]"] + [f"sigma_{name} = {to_text(e)}" for name, e in sigma.items()]


def assert_same_system(back, system):
    assert back.independents == system.independents
    assert back.dependents == tuple(system.dependents)
    assert back.parameters == system.parameters
    assert back.equations == system.equations
    assert back.solved_forms == system.solved_forms


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@PROPERTY
@given(data=st.data())
def test_system_manifest_reads_alike_with_fillers_and_any_solved_order(name, data):
    system = SYSTEMS[name]()
    lines = write_manifest(system).splitlines()
    start = lines.index("[solved]") + 1
    lines[start:] = data.draw(st.permutations(lines[start:]))
    assert_same_system(parse_manifest(with_fillers(data, lines)), system)


@PROPERTY
@given(data=st.data(), after_system=st.booleans())
def test_symmetry_manifest_reads_alike_with_fillers(data, after_system):
    lines = symmetry_lines()
    if after_system:
        lines = write_manifest(builtin_prolonged()).splitlines() + lines
    text = with_fillers(data, lines)
    assert read_symmetry(text) == localized_characteristic()


@PROPERTY
@given(data=st.data())
def test_transcription_reads_alike_with_fillers(data):
    lines = ["T1 = u*c1 + Diff(f,x)", "T2 = phi*psi"]
    expected = transcription_residual("\n".join(lines))
    assert transcription_residual(with_fillers(data, lines)) == expected


@PROPERTY
@given(data=st.data())
def test_grid_reads_back_bit_exact_with_fillers(data):
    grid = make_vacuum_grid(nx=5, nt=3)
    text = write_grid(grid)
    back = read_grid(with_fillers(data, text.splitlines()))
    for name, array in grid.fields.items():
        assert np.array_equal(back.fields[name], array)
    assert write_grid(back) == text


@pytest.mark.parametrize("manifest", ["system", "symmetry"])
@PROPERTY
@given(data=st.data(), stray=CONTENT)
def test_content_before_the_first_header_names_its_line(manifest, data, stray):
    if manifest == "system":
        lines, read = write_manifest(builtin_hirota()).splitlines(), parse_manifest
    else:
        lines, read = symmetry_lines(), read_symmetry
    leading = data.draw(st.lists(FILLERS, max_size=4))
    text = "\n".join([*leading, stray, *lines]) + "\n"
    with pytest.raises(ManifestError, match=rf"^line {len(leading) + 1}: "):
        read(text)
