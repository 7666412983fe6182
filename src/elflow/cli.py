"""Command-line entry point.

Subcommands: ``run``, ``compare``, ``verify-identities``, ``bounds-report``,
``pair-dispersion``. Each takes ``--config PATH`` (or ``--preset NAME``) and
``--out DIR``. Exit codes: 0 pass, 1 usage/configuration error or an output
directory that cannot be written, 2 solver failure, 3 bound/identity
assertion failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import PRESETS, load_config, preset
from .errors import ConfigError, ElflowError
from .runner import COMMANDS, execute


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elflow",
        description="Periodic-box incompressible flow in displacement / "
                    "virtual-velocity variables, with a classical "
                    "pseudo-spectral reference solver and bound diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", help="path to a JSON run configuration")
        group.add_argument("--preset", choices=sorted(PRESETS),
                           help="shipped desk-scale configuration")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else preset(args.preset)
        return execute(cfg, args.out, command=args.command)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 1
    except ElflowError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:   # e.g. an --out path that cannot be a directory
        print(json.dumps({"error": "output", "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
