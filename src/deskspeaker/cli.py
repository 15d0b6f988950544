"""Command-line front door: run pipeline stages against a config file."""

from __future__ import annotations

import argparse
import sys

from .config import KNOWN_SYSTEMS, default_config, load_config
from .errors import DeskSpeakerError
from .harness import PIPELINE, run_pipeline


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH",
                   help="YAML config overlaying the built-in defaults")
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default from config)")
    p.add_argument("--seed", type=int, metavar="N",
                   help="master random seed (default from config)")
    p.add_argument("--systems", metavar="LIST",
                   help=f"comma-separated subset of {','.join(KNOWN_SYSTEMS)}")
    p.add_argument("--soft-vad", choices=("on", "off", "both"),
                   help="soft VAD reweighting variants to run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskspeaker",
        description="Desk-scale speaker recognition pipeline on synthetic "
                    "speech-like data.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="STAGE")
    for stage in PIPELINE:
        _add_common(sub.add_parser(
            stage.name, help=stage.run.__doc__.splitlines()[0]))
    _add_common(sub.add_parser("run-all", help="Run every stage in order."))
    return parser


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else default_config()
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.systems is not None:
        cfg.systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    if args.soft_vad is not None:
        cfg.soft_vad = args.soft_vad
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        stages = None if args.command == "run-all" else [args.command]
        report = run_pipeline(cfg, stages=stages, echo=print)
        if report is not None:
            print(report.to_text(), end="")
    except (DeskSpeakerError, ValueError, OSError) as exc:
        print(f"deskspeaker: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
