"""The README's examples run: the CLI config and the library example."""

import json
import re
from pathlib import Path

from qpkam.cli import ExperimentConfig, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(section: str, lang: str) -> str:
    """The first ```lang block after the '## section' heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_cli_config_solves(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(code_block("CLI", "json"))
    loaded = ExperimentConfig.load(str(cfg))
    assert loaded.omega == json.loads(cfg.read_text())["omega"]
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_library_example_runs():
    exec(compile(code_block("Library example", "python"), "README.md", "exec"), {})
