"""The demos and the README's library snippet run against the current API.

Demo 00 rebuilds the committed synthetic data byte for byte, and demos 01-05
run in-process on that data (their default --data-dir). The README's Python
block runs in a temporary directory that holds copies of that data under the
names the block reads, and the scriptmap commands of its shell blocks parse.
"""

from __future__ import annotations

import re
import runpy
import shlex
import shutil
import sys

import pytest

from conftest import DATA_DIR, REPO_ROOT
from scriptmap import cli

DEMOS = sorted((REPO_ROOT / "demos").glob("0[1-5]_*.py"))


def test_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


def run_demo(demo, monkeypatch, *args) -> int:
    monkeypatch.setattr(sys, "argv", [str(demo), *args])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(demo), run_name="__main__")
    return done.value.code


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, monkeypatch, capsys):
    assert run_demo(demo, monkeypatch) == 0
    assert capsys.readouterr().out


def test_corpus_builder_rebuilds_the_committed_data(tmp_path, monkeypatch, capsys):
    demo = REPO_ROOT / "demos" / "00_build_synthetic_corpus.py"
    assert run_demo(demo, monkeypatch, "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    committed = sorted(p.name for p in DATA_DIR.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    [snippet] = re.findall(r"```python\n(.*?)```", readme, re.S)
    for name, source in [("esds.tsv", "descript.tsv"), ("stories.tsv", "inscript.tsv"),
                         ("vectors.txt", "embeddings.txt")]:
        shutil.copy(DATA_DIR / source, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {"__name__": "readme"})
    assert (tmp_path / "riding_a_bus.crf.json").exists()
    assert (tmp_path / "labeled.tsv").exists()
    assert "tree+crf" in capsys.readouterr().out


def test_readme_commands_parse():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    commands = [shlex.split(line) for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("scriptmap ")]
    parser = cli.build_parser()
    for command in commands:
        parser.parse_args(command[1:])
    # one line per command, and per protocol of evaluate
    assert {tuple(c[1:3]) if c[1] == "evaluate" else c[1] for c in commands} == {
        "validate", "train-identify", "identify", "train-map", "map",
        ("evaluate", "identification"), ("evaluate", "classification"),
        ("evaluate", "pipeline"),
    }
