"""README.md names every command-line option, config key, report field, error
stage and exit code the program has, and its examples run as written."""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from mbofs import cli
from mbofs.corpus import CorpusStats
from mbofs.harness import ExperimentConfig, MethodResult, RunReport

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _named(word: str) -> bool:
    """`word` stands in README on its own, not as part of a longer name."""
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", README) is not None


def test_every_command_option_and_choice_is_named():
    missing = []
    for command, parser in _subparsers().items():
        words = [f"mbofs {command}"]
        for action in parser._actions:
            words += [o for o in action.option_strings if o.startswith("--")]
            words += list(action.choices or ())
        missing += [f"{command}: {w}" for w in words if not _named(w)]
    assert missing == []


@pytest.mark.parametrize("cls", [ExperimentConfig, RunReport, MethodResult, CorpusStats])
def test_every_config_key_and_report_field_is_named(cls):
    assert [f.name for f in dataclasses.fields(cls) if f"`{f.name}`" not in README] == []


def test_config_table_gives_each_key_its_default():
    defaults = ExperimentConfig()
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]*) \|", README, re.M))
    for field in dataclasses.fields(ExperimentConfig):
        cell = rows[field.name].strip()
        shown = re.fullmatch(r"`(.*)`", cell)  # a cell of words stands for ""
        default = getattr(defaults, field.name)
        assert type(default)(shown.group(1) if shown else "") == default, field.name


def test_every_error_stage_is_named():
    source = "".join(p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py"))
    # a stage is raised by name, or mapped from a module's own errors by _stage
    stages = set(re.findall(r'(?:PipelineError|_stage)\("(\w+)"', source))
    assert {"config", "load", "ig", "evaluate", "mask", "report", "output", "checkpoint",
            "search"} <= stages
    assert sorted(s for s in stages if f"`error: [{s}]" not in README) == []


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_every_exit_code_has_a_row(code):
    assert re.search(rf"^\| {code} \|", README, re.M)


def test_config_example_is_a_valid_config(tmp_path):
    (example,) = [body for info, body in FENCES if info == "ini"]
    path = tmp_path / "exp.cfg"
    path.write_text(example, encoding="utf-8")
    ExperimentConfig.from_file(path).validate()
    keys = re.findall(r"^(\w+) =", example, re.M)
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_command_examples_parse():
    lines = [line for _, body in FENCES for line in body.splitlines()
             if line.startswith("mbofs ")]
    assert len(lines) == 4
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
