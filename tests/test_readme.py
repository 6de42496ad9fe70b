"""README's lists of CLI verbs and export kinds name exactly what the CLI accepts."""

import argparse
import re
from pathlib import Path

from starkchain.cli import build_parser
from starkchain.export import EXPORT_KINDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_verbs_block_lists_every_subcommand():
    block = README.split("\nVerbs:\n", 1)[1].split("```", 2)[1]  # the fenced block after it
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("starkchain ")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == list(sub.choices)


def test_readme_export_kinds_sentence_lists_every_kind():
    sentence = README.split("\nExport kinds: ", 1)[1].split("(", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(EXPORT_KINDS)
