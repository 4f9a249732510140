"""README command samples reproduce: each `$ latquad ...` line that shows
output is run through ``cli.main`` in a temporary directory, and the shown
lines, up to a `...` line, must equal the first lines printed (stdout, then
stderr)."""
import re
import shlex
from pathlib import Path

import pytest

from latquad.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _samples():
    """(argv, shown lines) for every README sample that shows output."""
    out, in_block, cmd, shown = [], False, None, []

    def flush():
        if cmd is not None and shown:
            out.append((shlex.split(cmd)[1:], list(shown)))

    lines = README.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("```"):
            if in_block:
                flush()
                cmd, shown = None, []
            in_block = not in_block
        elif in_block and line.startswith("$ latquad "):
            flush()
            cmd, shown = line[2:], []
            while cmd.endswith("\\"):
                cmd = cmd[:-1] + " " + lines[i].strip()
                i += 1
        elif in_block and cmd is not None:
            shown.append(line)
    return out


SAMPLES = _samples()


def test_readme_has_the_output_samples():
    commands = [argv[0] for argv, _ in SAMPLES]
    assert commands.count("wce") >= 2
    assert {"cbc", "points", "integrate", "bound"} <= set(commands)


@pytest.mark.parametrize(
    "argv,shown", SAMPLES, ids=[" ".join(argv) for argv, _ in SAMPLES]
)
def test_readme_sample_reproduces(tmp_path, monkeypatch, capsys, argv, shown):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    cap = capsys.readouterr()
    printed = cap.out.splitlines() + cap.err.splitlines()
    if "..." in shown:
        shown = shown[: shown.index("...")]
    else:
        assert len(printed) == len(shown)
    assert printed[: len(shown)] == shown


_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def _readme_flags():
    """Every --flag of a `latquad` command line and of the Command line
    section; --no-build-isolation is pip's, in the install line."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = re.findall(r"^\$ (latquad .*(?:\\\n.*)*)", text, flags=re.M)
    return set(_FLAG.findall(section + "\n".join(commands))) - {"--no-build-isolation"}



def test_readme_names_only_flags_that_some_help_lists(capsys):
    assert main(["--help"]) == 0
    (names,) = re.findall(r"\{([a-z,]+)\}", capsys.readouterr().out)[:1]
    listed = set()
    for name in names.split(","):
        assert main([name, "--help"]) == 0
        listed |= set(_FLAG.findall(capsys.readouterr().out))
    flags = _readme_flags()
    assert {"--points-file", "--threads", "--no-dedupe", "--report"} <= flags
    assert flags <= listed, sorted(flags - listed)
