"""The CLI examples of README.md, run in order, against recorded outputs.

Every ``domsplit ...`` line of the README's ``sh`` blocks runs in one
directory, so the ``svg --input seq.json`` example reads the file the ``gen``
example wrote.  Its exit code and any text must match ``tests/golden/``
exactly; numbers must match within 1e-12 relative to max(1, |x|), so that the
last bits of another numpy build do not fail.

After a deliberate change to the README examples or their output, record
the goldens again with ``PYTHONPATH=src python tests/test_readme_examples.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import tempfile
from pathlib import Path

from domsplit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "examples.json"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12


def readme_commands() -> list[list[str]]:
    """The arguments of every ``domsplit`` line in the README's sh blocks."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["domsplit"]:
                commands.append(argv[1:])
    return commands


def run_example(argv: list[str]) -> tuple[int, str, str | None]:
    """(exit code, stdout, the --out file it wrote or None), run in the cwd."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    path = argv[argv.index("--out") + 1] if "--out" in argv else "-"
    return code, out.getvalue(), None if path == "-" else path


def assert_same(got: str, want: str, what: str) -> None:
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want), f"{what}: text differs"
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert abs(float(g) - float(w)) <= REL_TOL * max(1.0, abs(float(w))), (
            f"{what}: {g} != {w}")


def test_manifest_lists_the_readme_examples():
    assert [e["argv"] for e in json.loads(MANIFEST.read_text())] == readme_commands()


def test_readme_examples_match_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for k, example in enumerate(json.loads(MANIFEST.read_text())):
        what = "domsplit " + " ".join(example["argv"])
        code, out, path = run_example(example["argv"])
        assert code == example["exit"], what
        assert_same(out, (GOLDEN / f"{k:02d}.out").read_text(encoding="utf-8"), what)
        assert path == example["file"], what
        if path is not None:
            assert_same(Path(path).read_text(encoding="utf-8"),
                        (GOLDEN / path).read_text(encoding="utf-8"), f"{what}: {path}")


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for k, argv in enumerate(readme_commands()):
                code, out, path = run_example(argv)
                (GOLDEN / f"{k:02d}.out").write_text(out, encoding="utf-8")
                if path is not None:
                    (GOLDEN / path).write_text(Path(path).read_text(encoding="utf-8"),
                                               encoding="utf-8")
                manifest.append({"argv": argv, "exit": code, "file": path})
        finally:
            os.chdir(cwd)
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
