"""The README's command-line transcripts, replayed.

A line of a fenced README block that starts with ``$ `` is a shell command,
and the lines below it, up to the next command or the end of the block, are
what it prints on stdout and stderr together.  Every command runs under
``sh`` in one shared temporary directory, in README order, so the set-up
lines (``printf``, ``mkdir``, ``generate -o``) make the files later commands
read.  ``python`` is the interpreter running the tests, with ``src`` on
``PYTHONPATH`` as the README's ``export`` line sets it.  Timings differ from
run to run, so every ``elapsed_ms`` value is masked on both sides.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def transcript(text: str) -> list[tuple[str, list[str]]]:
    """(command, printed lines) of every ``$`` line, in README order."""
    steps: list[tuple[str, list[str]]] = []
    in_block, printed = False, None
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, printed = not in_block, None
        elif in_block and line.startswith("$ "):
            printed = []
            steps.append((line[2:], printed))
        elif printed is not None:
            printed.append(line)
    return steps


def masked(lines: list[str]) -> list[str]:
    """``lines`` with each elapsed_ms value, in the text and JSON reports
    and in the CSV column of that name, replaced by ``<ms>``."""
    out, column = [], None
    for line in lines:
        line = re.sub(r'(elapsed_ms"?: )[-+.\deE]+', r"\1<ms>", line)
        fields = line.split(",")
        if "elapsed_ms" in fields:
            column = fields.index("elapsed_ms")
        elif (column is not None and len(fields) > column
              and re.fullmatch(r"[\d.]+", fields[column])):
            fields[column] = "<ms>"
            line = ",".join(fields)
        out.append(line)
    return out


def test_masked_hides_only_timings():
    assert masked(["elapsed_ms: 1.998", '{"size": 2, "elapsed_ms": 0.4e-3}',
                   "a,elapsed_ms,error", "x,1.025,", "y,,bad"]) == [
        "elapsed_ms: <ms>", '{"size": 2, "elapsed_ms": <ms>}',
        "a,elapsed_ms,error", "x,<ms>,", "y,,bad"]


def test_readme_transcripts_replay(tmp_path):
    steps = transcript((ROOT / "README.md").read_text())
    assert sum("python -m lbcut.cli" in cmd for cmd, _ in steps) >= 10
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    python = shlex.quote(sys.executable)
    for command, printed in steps:
        run = subprocess.run(
            ["sh", "-c", re.sub(r"^python ", python + " ", command)],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=120)
        assert masked(run.stdout.splitlines()) == masked(printed), command
