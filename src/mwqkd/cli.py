"""Command-line front end.

Subcommands:
    sweep       key rates over a grid of channel noise occupations
    protocol    simulate one protocol run end to end, write key material
    linkbudget  asymptotic maximum tolerable loss and distance versus background
    report      single security report for a fixed channel

Each subcommand takes only the flags it reads (`_COMMAND_FLAGS`), but
every field of a --config file, which it checks and echoes. Flag
precedence is built-in defaults, then --config file values, then
explicit flags. Every flag but --config, --out and --format sets the
config field its destination names (--preset also clears the chain,
which the config resolves to the preset's), so a command body reads
only the resolved config, args.out and args.out_format. Exit codes: 0
success, 2 bad configuration or arguments, 3 not enough data for
channel estimation, 4 I/O or memory failure. The `sweep` CSV rows come from the numpy kernel
`_floatrepr.write_table`, imported on that branch only; the other tables
are written with `str`.

This module computes no model quantity and no analysis: the run's channel
and seeds come from :class:`~mwqkd.config.ExperimentConfig`, the
background coupling from :mod:`mwqkd.devices`, and a protocol run's
report and histogram from :func:`mwqkd.protocol.analyze`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import linkbudget as lb
from . import protocol as proto
from . import security, stats
from .config import (
    CHAIN_PRESETS,
    CONFIG_SCHEMA,
    ExperimentConfig,
    load_config,
)
from .devices import ChannelParams
from .errors import InsufficientDataError


# Every flag and its add_argument keywords. A flag whose destination is an
# ExperimentConfig field overrides that field (see resolve_config).
_FLAGS = {
    "--config": dict(metavar="FILE", help="JSON configuration file"),
    "--preset": dict(choices=sorted(CHAIN_PRESETS), help="calibrated device chain"),
    "--out": dict(metavar="PATH", help="output file (default stdout), or protocol's directory"),
    "--loss": dict(type=float, dest="channel_loss", metavar="EPS", help="channel loss in [0, 1)"),
    "--nbar": dict(type=float, dest="noise_photons", metavar="N", help="channel noise photons"),
    "--n-symbols": dict(type=int, metavar="N", help="raw symbols sent, N"),
    "--no-delta": dict(dest="include_delta", action="store_false", default=None,
                       help="drop the finite-size penalty term"),
    "--no-pe": dict(dest="include_estimation_penalty", action="store_false", default=None,
                    help="use estimated channel parameters directly, no confidence widening"),
    "--e-ec": dict(type=float, metavar="E", help="error-correction failure probability"),
    "--beta": dict(type=float, dest="beta_ec", metavar="B", help="reconciliation efficiency"),
    "--n-ec-fraction": dict(type=float, metavar="F", help="key share of the sifted symbols"),
    "--seed": dict(type=int, metavar="N", help="codebook seed; the transmission takes N + 1"),
    "--announce-bases": dict(action="store_true", default=None, help="the receiver measures "
                             "in the sender's basis, so no symbol is lost to sifting"),
    "--format": dict(choices=("csv", "json"), dest="out_format", default="csv",
                     help="output format (csv)"),
    "--medium": dict(choices=sorted(lb.MEDIA), help="link medium (cryo-15mK)"),
}
_SHARED = ("--config", "--preset", "--out", "--loss")
_FINITE_SIZE = ("--n-symbols", "--no-delta", "--no-pe", "--e-ec", "--beta", "--n-ec-fraction")
# command -> its help and the flags it reads; argparse refuses any other
_COMMAND_FLAGS = {
    "sweep": ("key rate vs channel noise", (*_SHARED, *_FINITE_SIZE, "--format")),
    "protocol": ("simulate one run", (*_SHARED, "--nbar", *_FINITE_SIZE, "--seed",
                                      "--announce-bases")),
    "linkbudget": ("asymptotic loss and range limits", (*_SHARED, "--format", "--medium")),
    "report": ("security report, one channel", (*_SHARED, "--nbar", *_FINITE_SIZE)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged and returns a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="mwqkd",
        description="Simulator and security analyzer for a microwave "
        "continuous-variable QKD link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()
    # a flag overrides the config field its destination is named after
    overrides = {
        name: getattr(args, name)
        for name in CONFIG_SCHEMA
        if getattr(args, name, None) is not None
    }
    if args.preset is not None:
        overrides["chain"] = None  # the config takes the preset's chain
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


@contextlib.contextmanager
def _output(out):
    """stdout, or the text file `out`, opened for writing and closed after."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write_text(out, text: str) -> None:
    with _output(out) as fh:
        fh.write(text)


def _csv_head(header, config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True) + "\n" + ",".join(header) + "\n"


def _write_csv(out, header, rows, config: dict) -> None:
    # str of a Python float is its shortest round-trip repr
    lines = [",".join(map(str, row)) + "\n" for row in rows]
    _write_text(out, _csv_head(header, config) + "".join(lines))


def _write_json(out, payload: dict) -> None:
    # compact, so json uses its C encoder; strict, so no NaN or Infinity
    _write_text(out, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    sweep = security.sweep_noise(cfg.chain, cfg.channel_loss, cfg.noise_grid, **cfg.key_settings)
    crossing = security.noise_tolerance(cfg.chain, cfg.channel_loss)

    if args.out_format == "json":
        settings, points = sweep.split_grid()
        payload = {
            "config": cfg.to_dict(),
            "asymptotic_noise_crossing": crossing,
            "settings": settings,
            "reports": points,
        }
        _write_json(args.out, payload)
    else:
        header, columns = zip(
            ("nbar", cfg.noise_grid),
            ("snr", sweep.snr),
            ("mi_bits", sweep.mi_bits),
            ("holevo_bits", sweep.holevo_bits),
            ("asymptotic_key_bits", sweep.asymptotic_key_bits),
            ("composite_key_bits_per_raw_symbol", sweep.finite_size.bits_per_raw_symbol),
        )
        from . import _floatrepr  # here: only the CSV branch needs the numpy kernel

        with _output(args.out) as fh:
            fh.write(_csv_head(header, cfg.to_dict()))
            _floatrepr.write_table(fh, columns)
    if args.out is not None:
        print(f"asymptotic key rate crosses zero at nbar = {crossing:.6f}")
    return 0


def _in_child(fn, *args):
    """Start fn(*args), which returns a float, in a forked child; return
    a join(redo=True) that waits for it.

    The child sends ``repr`` of the float through a pipe, which reads back
    to the same value, and ends in os._exit: it never unwinds into the
    caller or flushes the stdio buffers it inherited. join() returns the
    child's float. Where os.fork is missing or fails, or the child did not
    exit 0 (fn raised, or the child was killed), join() calls fn(*args) in
    this process, which raises the real error. join(redo=False), for a
    caller that leaves without the result, only waits for and reaps a child
    not yet joined, and never calls fn.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no fork on this platform, or none now
        pid = None
    if pid == 0:
        status = 1
        try:
            # a float's repr is far below PIPE_BUF, so this write never blocks
            os.write(write_fd, repr(float(fn(*args))).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    if pid is None:
        os.close(read_fd)

    def join(redo=True):
        nonlocal pid
        if pid is not None:
            status = os.waitpid(pid, 0)[1]
            pid = None
            with open(read_fd, "rb") as pipe:
                payload = pipe.read()
            if status == 0:
                return float(payload)
        return fn(*args) if redo else None

    return join


def cmd_protocol(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("protocol needs --out DIRECTORY for its key material")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    codebook = proto.generate_codebook(
        cfg.n_symbols, cfg.chain.codebook_variance, seed=cfg.seed
    )
    record = proto.simulate_transmission(
        codebook,
        cfg.chain,
        cfg.channel,
        seed=cfg.transmission_seed,
        announce_bases=cfg.announce_bases,
    )
    alpha, beta = proto.sift(record)
    # the bootstrap needs only the sifted pairs, so a child runs it beside the
    # rest; reading it here runs stats' lazy body in this process, not the child
    mi_sigma = functools.partial(stats.bootstrap_mi_sigma, seed=cfg.bootstrap_seed)
    join_mi_sigma = _in_child(mi_sigma, alpha, beta)
    try:
        # key.csv, then its manifest, whatever the analysis does
        proto.write_key_records(record, outdir.joinpath("key.csv"))
        _write_json(outdir.joinpath("manifest.json"), proto.key_manifest(record, cfg))
        payload, rows = proto.analyze(alpha, beta, cfg, join_mi_sigma)
    finally:
        join_mi_sigma(redo=False)
    _write_json(outdir.joinpath("report.json"), payload)
    _write_csv(outdir.joinpath("histogram.csv"), proto.HISTOGRAM_COLUMNS, rows, cfg.to_dict())

    empirical, est = payload["empirical"], payload["inputs"]["estimate"]
    print(f"matched symbols: {empirical['n_matched']} of {cfg.n_symbols}")
    print(f"estimated loss: {est['loss']:.6f} +- {est['loss_sigma']:.6f}")
    print(f"estimated noise: {est['noise_photons']:.6f} +- {est['noise_sigma']:.6f} photons")
    print(f"empirical mutual information: {empirical['mutual_information_bits']:.4f} bits"
          f" (sigma {empirical['mutual_information_sigma']:.4f})")
    print(f"composite key: {payload['finite_size']['bits_per_raw_symbol']:.6f} bits/raw symbol")
    return 0


def cmd_linkbudget(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    medium = lb.MEDIA[cfg.medium]
    occupancies = sorted(set(cfg.occupancies) | {medium.background_photons})
    table = lb.sweep_occupancy(cfg.chain, occupancies, medium.attenuation_db_per_m)
    _, eps_max, distance = table[occupancies.index(medium.background_photons)]
    channel = ChannelParams.from_environment(cfg.channel_loss, medium.background_photons)
    rate = lb.raw_key_rate(cfg.chain, channel, cfg.bandwidth_hz)

    if args.out_format == "json":
        payload = {
            "config": cfg.to_dict(),
            "medium": security._fields_dict(medium),
            "max_tolerable_loss": eps_max,
            "distance_limit_m": distance,
            "raw_key_rate_bits_per_s": rate,
            "rows": [
                {"nbar_th": o, "eps_max": e, "distance_m": d} for o, e, d in table
            ],
        }
        _write_json(args.out, payload)
    else:
        _write_csv(args.out, ("nbar_th", "eps_max", "distance_m"), table, cfg.to_dict())
    if args.out is not None:
        print(f"medium: {medium.label}")
        print(f"max tolerable loss: {eps_max:.6f}")
        print(f"distance limit: {distance:.1f} m")
        print(f"raw key rate at configured loss: {rate:.1f} bit/s")
    return 0


def cmd_report(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = security.build_report(
        cfg.chain, cfg.channel, extra_inputs={"config": cfg.to_dict()}, **cfg.key_settings
    )
    _write_json(args.out, report.to_dict())
    return 0


_COMMANDS = {
    "sweep": cmd_sweep,
    "protocol": cmd_protocol,
    "linkbudget": cmd_linkbudget,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        # a MemoryError raised by the interpreter itself has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
