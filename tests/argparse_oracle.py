"""An argparse parser built from the CLI's command tables, as an oracle.

``ocp2d.cli._parse`` reads every argv itself.  This parser reads the same
tables (``_COMMANDS``, ``_flags``, ``_OPTIONS``) with argparse's own grammar,
so the tests can check that both give the same namespace wherever argparse
accepts an argv that spells every option name in full and has no '--'.
"""

import argparse
import contextlib
import functools
import io

from ocp2d.cli import _COMMANDS, _OPTIONS, _flags


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="ocp2d")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, positional, reads) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        if positional:
            choices = tuple(reads)
            sub.add_argument(positional, type=type(choices[0]), choices=choices)
        for flag, kind in _flags(name).items():
            spec = ({"action": "store_true"} if kind is bool else
                    {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            sub.add_argument(f"--{flag}", help=_OPTIONS[flag][1], **spec)
        sub.set_defaults(handler=handler)
    return parser


def parse(argv):
    """The names and values argparse reads from argv, or None where it
    prints help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None
