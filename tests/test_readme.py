"""The README's examples run as written: the library snippet, every
`algdyn ...` line that needs no input file, and the shadow config; and
every function the README names exists."""

import builtins
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import algdyn
from algdyn.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the given heading line."""
    start = README.index(heading)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def _cli_lines() -> list[list[str]]:
    lines = _block("## Quick start (CLI)", "sh").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("algdyn ")]


def test_library_snippet_runs(capsys):
    # the snippet prints what its comments say
    exec(compile(_block("## Quick start (library)", "python"), "README.md", "exec"), {})
    residual, value, mahler = capsys.readouterr().out.splitlines()
    assert float(residual) < 1e-14
    assert value == "(0.4472135954999579,)"
    assert mahler.startswith("0.9624")


@pytest.mark.parametrize(
    "argv",
    [a for a in _cli_lines() if not any(t.endswith(".json") for t in a)],
    ids=" ".join,
)
def test_cli_line_without_files_exits_zero(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "csv" not in argv:
        json.loads(out)


def test_cli_not_expansive_line_reports_its_witness(capsys):
    (argv,) = [a for a in _cli_lines() if "4 - u1 - u1^-1 - u2 - u2^-1" in a]
    assert main(argv) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["verdict"] == "NotExpansive"
    assert rep["certificate"]["witness"] == ["0", "0"]


def test_shadow_config_runs_with_the_shadow_line(tmp_path, capsys):
    cfg = json.loads(_block("defining each homoclinic block", "json"))
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(cfg))
    (argv,) = [a for a in _cli_lines() if a[0] == "shadow"]
    assert main([str(path) if t == "blocks.json" else t for t in argv]) == 0
    assert json.loads(capsys.readouterr().out)["all_blocks_within_eps"]


def _namespace() -> dict:
    """Every algdyn module by name, then every attribute of each module and
    of each class it holds, first come first kept."""
    mods = {"algdyn": algdyn}
    for info in pkgutil.iter_modules(algdyn.__path__):
        mods[info.name] = importlib.import_module(f"algdyn.{info.name}")
    ns = dict(mods)
    for mod in mods.values():
        for name, obj in vars(mod).items():
            ns.setdefault(name, obj)
            if isinstance(obj, type):
                for attr in dir(obj):
                    ns.setdefault(attr, getattr(obj, attr))
    return ns


def test_every_named_function_exists():
    ns = _namespace()
    called = set(re.findall(r"`([A-Za-z_][\w.]*)\(", README))
    assert len(called) >= 20  # the scan still finds the README's calls
    missing = []
    for name in sorted(called):
        first, *rest = name.split(".")
        if not rest and hasattr(builtins, first):
            continue
        obj = ns.get(first)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"the README names functions algdyn does not have: {missing}"
    assert [n for n in algdyn.__all__ if not hasattr(algdyn, n)] == []
