"""Run every CLI command and the Python quick start shown in the README."""

import ast
import hashlib
import re
from pathlib import Path

from graphmin.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_commands():
    commands = []
    for line in README.read_text().splitlines():
        if line.startswith("$ graphmin "):
            commands.append(line[len("$ "):])
    return commands


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


def test_every_fixture_is_exercised():
    mentioned = set(re.findall(r"fixtures/(\S+\.edges)", README.read_text()))
    shipped = {p.name for p in (ROOT / "fixtures").glob("*.edges")}
    primary = {n for n in shipped if not n.endswith("_target.edges")}
    assert primary <= mentioned, sorted(primary - mentioned)


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    moved = {}  # files that README commands write, moved under tmp_path
    for command in readme_commands():
        command, _, redirect = command.partition(" > ")
        code = main([moved.get(a, a) for a in command.split()[1:]])
        out = capsys.readouterr().out
        assert code == 0, (command, code)
        if redirect:
            moved[redirect.strip()] = str(tmp_path / Path(redirect.strip()).name)
            Path(moved[redirect.strip()]).write_text(out)


# sha256 over the stdout and exit code of every README command, each in text
# and in --json form, and of `foliage --level 1,2,3` on every fixture; any
# change of output, deliberate or not, has to update this value
PINNED_OUTPUT_DIGEST = "8a11a58b088e977c08a7216cc227e5b49f64102262fd9a00d0221fb74b99ec66"


def _output_digest(capsys, tmp_path):
    commands = readme_commands() + [f"graphmin foliage fixtures/{f.name} --level {level}"
                                    for f in sorted((ROOT / "fixtures").glob("*.edges"))
                                    for level in (1, 2, 3)]
    moved = {}  # files that README commands write, moved under tmp_path
    h = hashlib.sha256()
    for command in commands:
        command, _, redirect = command.partition(" > ")
        argv = command.split()[1:]
        plain = [a for a in argv if a != "--json"]
        for form in (plain, plain + ["--json"]):
            code = main([moved.get(a, a) for a in form])
            out = capsys.readouterr().out
            h.update(f"{' '.join(form)}\0{code}\0{out}\0".encode())
            if redirect and ("--json" in form) == ("--json" in argv):
                moved[redirect.strip()] = str(tmp_path / Path(redirect.strip()).name)
                Path(moved[redirect.strip()]).write_text(out)
    return h.hexdigest()


def test_readme_outputs_match_pinned_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _output_digest(capsys, tmp_path) == PINNED_OUTPUT_DIGEST


def test_readme_python_quick_start():
    """Run the README's Python block; each bare expression's repr is the comment below it."""
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = source.splitlines()
    namespace, shown = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            shown.append(("# " + repr(value), lines[node.end_lineno]))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown == [("# Partition({1,2}, {3,4})",) * 2, ("# 'yes'",) * 2]
