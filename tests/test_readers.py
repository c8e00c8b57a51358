"""The readers of input files share one line reader: blank lines and
``#`` comments may stand anywhere, every error about a line names it, and
the three expression formats (the ``[solved]`` section of a system
manifest, a symmetry manifest and a conserved-vector transcription) raise
ManifestError."""

import re

import pytest

from symflow.conslaw import transcription_residual
from symflow.expr import to_text
from symflow.jetsys import (
    ManifestError,
    builtin_hirota,
    builtin_prolonged,
    numbered_lines,
    parse_manifest,
    write_manifest,
)
from symflow.linsym import localized_characteristic, parse_symmetry_manifest


def symmetry_text() -> str:
    sigma = localized_characteristic()
    return "[symmetry]\n" + "".join(f"sigma_{n} = {to_text(e)}\n" for n, e in sigma.items())


def read_symmetry(text):
    return parse_symmetry_manifest(text, builtin_prolonged())


def hirota_text() -> str:
    return write_manifest(builtin_hirota())


def line_of(text: str, start: str) -> int:
    """The number of the last line of ``text`` that starts with ``start``."""
    return max(n for n, line in enumerate(text.splitlines(), 1) if line.startswith(start))


def test_numbered_lines_drop_blank_lines_and_comments():
    text = "a = 1\n\n   \n  # note\n  b = 2  \n#\n"
    assert numbered_lines(text) == [(1, "a = 1"), (5, "b = 2")]


@pytest.mark.parametrize("read, text, key", [
    (parse_manifest, hirota_text() + "Diff(u,t) = u\n", "Diff(u,t)"),
    (read_symmetry, symmetry_text() + "\n# again\nsigma_u = phi^2\n", "sigma_u"),
    (transcription_residual, "T1 = u\nT2 = v\n\nT1 = v\n", "T1"),
], ids=["solved", "symmetry", "transcription"])
def test_repeated_key_names_its_line(read, text, key):
    number = line_of(text, key)
    with pytest.raises(
        ManifestError, match=rf"^line {number}: {re.escape(key)} is given twice, again in '"
    ):
        read(text)


@pytest.mark.parametrize("read, text, start", [
    (parse_manifest, hirota_text().replace("[equations]\n", "[equations]\nu^^2\n"), "u^^2"),
    (parse_manifest, hirota_text().replace("Diff(v,t) = ", "Diff(v,t) = v^^2 + "), "Diff(v,t)"),
    (read_symmetry, symmetry_text().replace("sigma_v = ", "sigma_v = psi^^2 + "), "sigma_v"),
    (transcription_residual, "# transcribed\nT1 = u^^2\nT2 = v\n", "T1"),
], ids=["equations", "solved", "symmetry", "transcription"])
def test_parse_error_names_its_line(read, text, start):
    with pytest.raises(ManifestError, match=rf"^line {line_of(text, start)}: .*byte offset"):
        read(text)


@pytest.mark.parametrize("read, text, start, message", [
    (parse_manifest, hirota_text() + "Diff(u,x,x,t)\n", "Diff(u,x,x,t)",
     "bad line 'Diff(u,x,x,t)'"),
    (parse_manifest, hirota_text() + "Diff(u,t)^2 = u\n", "Diff(u,t)^2",
     "solved-form key must be a bare jet"),
    (parse_manifest, hirota_text().replace("u 3", "u three"), "u three",
     "bad dependent line 'u three'"),
    (parse_manifest, hirota_text().replace("u 3", "u \u00b3"), "u \u00b3",
     "bad dependent line 'u \u00b3'"),
    (read_symmetry, symmetry_text() + "sigma_u phi^2\n", "sigma_u phi", "bad line 'sigma_u phi^2'"),
    (read_symmetry, symmetry_text() + "sigma_w = 1\n", "sigma_w", "bad line 'sigma_w = 1'"),
    (transcription_residual, "T1 = u\nT3 = v\n", "T3", "bad line 'T3 = v'"),
], ids=["solved-no-equals", "solved-key", "dependents", "dependent-order-superscript",
        "symmetry-no-equals", "symmetry-key", "transcription-key"])
def test_bad_line_names_its_line(read, text, start, message):
    with pytest.raises(ManifestError, match=rf"^line {line_of(text, start)}: {re.escape(message)}"):
        read(text)


@pytest.mark.parametrize("section, line, name", [
    ("[independents]", "y-1", "y-1"),
    ("[independents]", "Diff", "Diff"),
    ("[dependents]", "w-1 2", "w-1"),
    ("[dependents]", "I 1", "I"),
    ("[parameters]", "gamma delta", "gamma delta"),
    ("[parameters]", "2*x", "2*x"),
    ("[parameters]", "\u03bb", "\u03bb"),
    ("[parameters]", "Exp", "Exp"),
])
def test_a_name_no_expression_can_name_is_refused(section, line, name):
    # a declared name is an ASCII identifier other than I, Diff and Exp
    text = hirota_text().replace(f"{section}\n", f"{section}\n{line}\n")
    number = text.splitlines().index(section) + 2
    with pytest.raises(ManifestError, match=rf"^line {number}: cannot declare '{re.escape(name)}'"):
        parse_manifest(text)


@pytest.mark.parametrize("read, text", [
    (parse_manifest, hirota_text()),
    (read_symmetry, symmetry_text()),
], ids=["system", "symmetry"])
def test_stray_lines_outside_known_sections_are_refused(read, text):
    with pytest.raises(ManifestError, match=r"^line 2: content before any section header: 'x'$"):
        read("# header\nx\n" + text)
    misspelled = text.replace("\n", "\n[symetry]\n", 1)
    with pytest.raises(ManifestError, match=r"^line 2: unknown section header '\[symetry\]'$"):
        read(misspelled)


def test_symmetry_manifest_skips_the_system_manifest_sections():
    text = write_manifest(builtin_prolonged()) + symmetry_text()
    assert read_symmetry(text) == localized_characteristic()
    with pytest.raises(ManifestError, match=r"^manifest has no \[symmetry\] section$"):
        read_symmetry(write_manifest(builtin_prolonged()))
