"""The README's examples run against the current code, and its names resolve."""

import dataclasses
import pkgutil
import re
import shlex
from pathlib import Path

import grover_ev
from grover_ev import cli

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = [m.name for m in pkgutil.iter_modules(grover_ev.__path__) if m.name != "__main__"]


def section(heading):
    """The README text under the ``## heading``, up to the next ``## ``."""
    return README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_block():
    """The first ``python`` code block under the README's Library heading."""
    return re.search(r"```python\n(.*?)```", section("Library"), re.DOTALL).group(1)


def command_lines():
    """The argv of each ``grover-ev`` line in the Command line section's
    ``bash`` block, continuation lines joined."""
    block = re.search(r"```bash\n(.*?)```", section("Command line"), re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("grover-ev ")]


def cited_names():
    """Each backticked dotted name outside code blocks that starts at
    ``grover_ev``, one of its modules or an exported name, a trailing call
    dropped."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    roots = {"grover_ev", *MODULES, *grover_ev.__all__}
    names = {re.sub(r"\(.*\)$", "", " ".join(span.split()))
             for span in re.findall(r"`([^`]+)`", text)}
    return sorted(name for name in names
                  if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", name)
                  and name.split(".")[0] in roots)


def resolves(name):
    """Whether ``name``, read from ``grover_ev`` unless it starts there,
    names a module, an attribute, or a field of a dataclass."""
    path = name if name.startswith("grover_ev.") else f"grover_ev.{name}"
    try:
        pkgutil.resolve_name(path)
        return True
    except (ImportError, AttributeError):
        owner, _, field = path.rpartition(".")
    try:
        cls = pkgutil.resolve_name(owner)
    except (ImportError, AttributeError):
        return False
    return dataclasses.is_dataclass(cls) and field in {f.name for f in dataclasses.fields(cls)}


def test_readme_library_example_runs():
    exec(compile(library_block(), str(README), "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Run from a scratch directory, so that ``--out rates.csv`` lands there.
    monkeypatch.chdir(tmp_path)
    argvs = command_lines()
    assert argvs
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1]).read_text()
        assert out, argv


def test_readme_names_resolve():
    # A rename in the code fails here instead of leaving a stale name.
    names = cited_names()
    assert names
    assert [name for name in names if not resolves(name)] == []
