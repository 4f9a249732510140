"""README command samples reproduce: each `$ latquad ...` line that shows
output is run through ``cli.main`` in a temporary directory, and the shown
lines, up to a `...` line, must equal the first lines printed (stdout, then
stderr)."""
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
