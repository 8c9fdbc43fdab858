"""The README's examples run as written: the library quick tour, and every
``renyi-ent`` line of the command-line block, in-process from a scratch directory."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np

from renyi_ent import density, random_density, save_operator_json
from renyi_ent.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour():
    exec(compile(_block("Library quick tour", "python"), "README quick tour", "exec"), {})


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rho = random_density(4, 4, seed=0, dims=(2, 2))
    save_operator_json(rho, "rho.json")
    save_operator_json(random_density(4, 4, seed=1, dims=(2, 2)), "sigma.json")
    save_operator_json(density(np.diag(np.diag(rho.entries).real), (2, 2)), "tau.json")
    lines = [shlex.split(ln, comments=True) for ln in _block("Command line", "sh").splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "renyi-ent"]
    assert len(commands) == 11
    outputs = {}
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        outputs[" ".join(argv)] = out
    assert json.loads(outputs["value ghz:d=4,M=3"])["value"] == 2.0
    assert abs(json.loads(outputs["counterexample --d 3"])["gap"] - math.log2(1.5)) <= 1e-9
