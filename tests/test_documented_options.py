"""Every command-line option is documented, and the README names no other.

Each long option of each subcommand of ``build_parser()`` (``--help``
aside) must be mentioned as a whole word in ``README.md``, so that no
knob of the CLI is known only to its help text. In the other direction,
every ``--option`` that ``README.md`` names must belong to some
subcommand, so that no removed flag lingers in the documentation; the
one exception is pip's ``--no-build-isolation`` in the install steps.
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


def _options(parser) -> list[tuple[str, str]]:
    """(command, option) for each long option of each subcommand, ``--help`` aside."""
    return [(command, option)
            for command, sub in _subcommands(parser).items()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"]


def _undocumented(parser) -> list[tuple[str, str]]:
    """(command, option) for each long option that README.md never mentions."""
    return [(command, option) for command, option in _options(parser)
            if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README)]


def _unknown(parser, text) -> list[str]:
    """The ``--option`` words of ``text`` that no subcommand of ``parser`` takes."""
    known = {option for _, option in _options(parser)} | {"--no-build-isolation"}
    return sorted(set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text)) - known)


def test_every_option_is_in_the_readme():
    undocumented = _undocumented(build_parser())
    assert not undocumented, f"options missing from README.md: {undocumented}"


def test_a_planted_option_is_caught():
    # --lr is documented, so a longer option that starts with it is not
    parser = build_parser()
    _subcommands(parser)["train"].add_argument("--lr-spare", type=float)
    _subcommands(parser)["eval"].add_argument("--spare")
    assert _undocumented(parser) == [("train", "--lr-spare"), ("eval", "--spare")]


def test_every_readme_option_is_in_the_parser():
    unknown = _unknown(build_parser(), README)
    assert not unknown, f"README.md names options no command takes: {unknown}"


def test_a_planted_readme_option_is_caught():
    # --lr is an option, so a longer word that starts with it is not
    text = README + "\nUseful knobs: `train --hidden 64,64 --lr-spare 1`.\n"
    assert _unknown(build_parser(), text) == ["--hidden", "--lr-spare"]
