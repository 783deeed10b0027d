"""Command line front end.

Each subcommand runs one pipeline stage against an output directory so a long
certification can be resumed or inspected stage by stage; `casestudy` runs
everything end to end.  Exit codes: 0 when the stage (or full run) succeeds,
1 when it completes but the outcome is negative (certification failed, a
trajectory left the safe set, circularity violated), 2 when a stage errors.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from .errors import ConfigError, SymabsError
from .extoracle import serve_oracle
from .model import build_room_network
from .pipeline import (PipelineConfig, run_pipeline, stage_abstract,
                       stage_certify, stage_compose, stage_report,
                       stage_sample, stage_simulate, stage_synthesize)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="YAML pipeline configuration")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the configured seed")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="artifact directory (default: out)")
    parser.add_argument("--rooms", type=int, metavar="M",
                        help="override the number of rooms")


def load_config(args) -> PipelineConfig:
    # the overrides go into the mapping, so that the config's checks see them
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                # the parser's message names the file, line and column
                raise ConfigError(f"the config is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("the config must be a mapping")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.rooms is not None:
        system = data.get("system") or {}
        if isinstance(system, dict):  # else from_mapping refuses it
            if system.get("kind", "rooms") != "rooms":
                raise SymabsError("--rooms only applies to the room network")
            data["system"] = dict(system, num_rooms=args.rooms)
    return PipelineConfig.from_mapping(data)


def _cmd_casestudy(args) -> int:
    config = load_config(args)
    result = run_pipeline(config, args.out)
    print(result.summary, end="")
    return 0 if result.ok else 1


def _cmd_sample(args) -> int:
    stage_sample(load_config(args), args.out)
    return 0


def _cmd_certify(args) -> int:
    payload = stage_certify(load_config(args), args.out)
    certified = all(c["certified"] for c in payload["certificates"])
    for i, cert in enumerate(payload["certificates"]):
        print(f"subsystem {i}: certified={cert['certified']} "
              f"margin={cert['margin']!r}")
    return 0 if certified else 1


def _cmd_abstract(args) -> int:
    payload = stage_abstract(load_config(args), args.out)
    print(f"abstractions written for {payload['subsystems']} subsystems")
    return 0


def _cmd_synthesize(args) -> int:
    payload = stage_synthesize(load_config(args), args.out)
    print(f"winning cells per subsystem: {payload['winning']}")
    return 0 if payload["ok"] else 1


def _cmd_simulate(args) -> int:
    payload = stage_simulate(load_config(args), args.out)
    print(f"runs: {payload['runs']} all_safe: {payload['all_safe']}")
    return 0 if payload["all_safe"] else 1


def _cmd_compose(args) -> int:
    payload = stage_compose(load_config(args), args.out)
    print(f"circularity_ok: {payload['circularity_ok']}")
    if payload["circularity_ok"]:
        print(f"gamma={payload['gamma']!r} mu={payload['mu']!r} "
              f"theta={payload['theta']!r} confidence={payload['confidence']!r}")
    return 0 if payload["circularity_ok"] else 1


def _cmd_report(args) -> int:
    print(stage_report(load_config(args), args.out), end="")
    return 0


def _cmd_oracle_server(args) -> int:
    config = load_config(args)
    if config.system.kind != "rooms":
        raise SymabsError("oracle-server serves a room subsystem; "
                          "configure system.kind: rooms")
    _, _, rooms = build_room_network(config.system.room_params())
    if not 0 <= args.subsystem < len(rooms):
        raise SymabsError(f"subsystem index {args.subsystem} out of range")
    serve_oracle(rooms[args.subsystem])
    return 0


_COMMANDS = {
    "casestudy": (_cmd_casestudy, "run the full pipeline on the room network"),
    "sample": (_cmd_sample, "draw and store the sample batches"),
    "certify": (_cmd_certify, "solve the scenario programs and certify"),
    "abstract": (_cmd_abstract, "enumerate the finite abstractions"),
    "synthesize": (_cmd_synthesize, "solve the safety games"),
    "simulate": (_cmd_simulate, "run the refined controllers in closed loop"),
    "compose": (_cmd_compose, "check circularity and compose the certificates"),
    "report": (_cmd_report, "summarize the artifacts in the output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symabs",
        description="data-driven certification of symbolic abstractions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, descr) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=descr)
        _add_common(cmd)
        cmd.set_defaults(func=func)
    server = sub.add_parser(
        "oracle-server",
        help="serve one room subsystem over stdin/stdout (STEP protocol)")
    _add_common(server)
    server.add_argument("--subsystem", type=int, default=0, metavar="I",
                        help="which subsystem to serve (default: 0)")
    server.set_defaults(func=_cmd_oracle_server)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SymabsError, OSError) as exc:
        print(f"error in stage {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
