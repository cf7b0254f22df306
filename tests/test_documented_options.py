"""Every command-line option is documented.

Each long option of each subcommand of ``build_parser()`` (``--help``
aside) must be mentioned as a whole word in ``README.md``, so that no
knob of the CLI is known only to its help text.
"""

import argparse
import re
from pathlib import Path

from evidkit.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _subcommands(parser):
    """The subcommand parsers of ``parser``, by name."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _undocumented(parser) -> list[tuple[str, str]]:
    """(command, option) for each long option that README.md never mentions."""
    return [(command, option)
            for command, sub in _subcommands(parser).items()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
            and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README)]


def test_every_option_is_in_the_readme():
    undocumented = _undocumented(build_parser())
    assert not undocumented, f"options missing from README.md: {undocumented}"


def test_a_planted_option_is_caught():
    # --lr is documented, so a longer option that starts with it is not
    parser = build_parser()
    _subcommands(parser)["train"].add_argument("--lr-spare", type=float)
    _subcommands(parser)["eval"].add_argument("--spare")
    assert _undocumented(parser) == [("train", "--lr-spare"), ("eval", "--spare")]
