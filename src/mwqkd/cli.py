"""Command-line front end.

Subcommands:
    sweep       key rates over a grid of channel noise occupations
    protocol    simulate one protocol run end to end, write key material
    linkbudget  asymptotic maximum tolerable loss and distance versus background
    report      single security report for a fixed channel

Each subcommand takes only the flags it reads (`_COMMAND_FLAGS`), but
every field of a --config file, which it checks and echoes. Flag
precedence is built-in defaults, then --config file values, then
explicit flags. Exit codes: 0 success, 2 bad configuration or arguments,
3 not enough data for channel estimation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import linkbudget as lb
from . import protocol as proto
from . import security, stats
from .config import (
    CHAIN_PRESETS,
    CONFIG_SCHEMA,
    DEFAULT_OCCUPANCY_GRID,
    ExperimentConfig,
    load_config,
)
from .devices import ChannelParams, response_and_noise
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
    "--format": dict(choices=("csv", "json"), dest="out_format", help="output format (csv)"),
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
        overrides["chain"] = CHAIN_PRESETS[args.preset]
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


def _write_float_csv(out, header, columns, config: dict) -> None:
    """The bytes of :func:`_write_csv` for equal-length float columns.

    The rows go through the repr kernel ``_floatrepr.table_rows`` in
    blocks of ``_floatrepr.BLOCK_CELLS`` cells, so memory stays flat.
    """
    import numpy as np

    from . import _floatrepr

    step = max(1, _floatrepr.BLOCK_CELLS // len(columns))
    with _output(out) as fh:
        fh.write(_csv_head(header, config))
        for start in range(0, len(columns[0]), step):
            block = np.column_stack([column[start : start + step] for column in columns])
            fh.write(_floatrepr.table_rows(block).tobytes().decode())


def _write_json(out, payload: dict) -> None:
    # compact, so json uses its C encoder; strict, so no NaN or Infinity
    _write_text(out, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    sweep = security.sweep_noise(cfg.chain, cfg.channel_loss, cfg.noise_grid, **cfg.key_settings)
    crossing = security.noise_tolerance(cfg.chain, cfg.channel_loss)

    if (args.out_format or "csv") == "json":
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
        _write_float_csv(args.out, header, columns, cfg.to_dict())
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

    config = cfg.to_dict()
    channel = ChannelParams(loss=cfg.channel_loss, noise_photons=cfg.noise_photons)
    codebook = proto.generate_codebook(
        cfg.n_symbols, cfg.chain.codebook_variance, seed=cfg.seed
    )
    record = proto.simulate_transmission(
        codebook,
        cfg.chain,
        channel,
        seed=cfg.seed + 1,
        announce_bases=bool(args.announce_bases),
    )
    alpha, beta = proto.sift(record)
    manifest = proto.key_manifest(
        codebook, record, cfg.chain, channel, cfg.seed + 1, bool(args.announce_bases)
    )
    manifest["config"] = config
    # the bootstrap needs only the sifted pairs, so a child runs it beside the rest
    join_mi_sigma = _in_child(stats.bootstrap_mi_sigma, alpha, beta, 200, cfg.seed + 2)
    try:
        # key.csv, then its manifest, whatever the analysis does
        proto.write_key_records(record, outdir / "key.csv")
        _write_json(outdir / "manifest.json", manifest)

        n_ec = cfg.key_settings["n_ec"]
        estimate = proto.estimate_channel(alpha[n_ec:], beta[n_ec:], cfg.chain)
        report = security.build_report(
            cfg.chain,
            estimate=estimate,
            extra_inputs={
                "codebook_seed": cfg.seed,
                "transmission_seed": cfg.seed + 1,
                "n_matched": int(alpha.size),
                "config": config,
            },
            **cfg.key_settings,
        )

        slope, variance = response_and_noise(cfg.chain, channel, matched=True)
        mi_emp = stats.empirical_mutual_information(alpha, beta)
        hist = stats.build_histogram(beta)
        overlap = stats.histogram_vs_gaussian(
            hist, 0.0, slope**2 * cfg.chain.codebook_variance + variance
        )
        mi_sigma = join_mi_sigma()
    finally:
        join_mi_sigma(redo=False)
    payload = report.to_dict()
    payload["empirical"] = {
        "n_matched": int(alpha.size),
        "mutual_information_bits": mi_emp,
        "mutual_information_sigma": mi_sigma,
        "bhattacharyya_vs_model": overlap,
        "hellinger_vs_model": stats.hellinger_from_coefficient(overlap),
    }
    _write_json(outdir / "report.json", payload)

    edges = hist.bin_edges.tolist()
    rows = zip(edges[:-1], edges[1:], hist.counts.tolist(), hist.densities().tolist())
    _write_csv(
        outdir / "histogram.csv", ("bin_lo", "bin_hi", "count", "density"), rows, config
    )

    print(f"matched symbols: {alpha.size} of {cfg.n_symbols}")
    print(f"estimated loss: {estimate.loss:.6f} +- {estimate.loss_sigma:.6f}")
    print(
        f"estimated noise: {estimate.noise_photons:.6f}"
        f" +- {estimate.noise_sigma:.6f} photons"
    )
    print(f"empirical mutual information: {mi_emp:.4f} bits (sigma {mi_sigma:.4f})")
    print(f"composite key: {report.finite_size.bits_per_raw_symbol:.6f} bits/raw symbol")
    return 0


def cmd_linkbudget(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    medium = lb.MEDIA[cfg.medium]
    grid = cfg.occupancies if cfg.occupancies is not None else DEFAULT_OCCUPANCY_GRID
    occupancies = sorted(set(grid) | {medium.background_photons})
    table = lb.sweep_occupancy(cfg.chain, occupancies, medium.attenuation_db_per_m)
    _, eps_max, distance = table[occupancies.index(medium.background_photons)]
    channel = ChannelParams(
        loss=cfg.channel_loss, noise_photons=cfg.channel_loss * medium.background_photons / 2.0
    )
    rate = lb.raw_key_rate(cfg.chain, channel, cfg.bandwidth_hz)

    if (args.out_format or "csv") == "json":
        payload = {
            "config": cfg.to_dict(),
            "medium": asdict(medium),
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
    channel = ChannelParams(loss=cfg.channel_loss, noise_photons=cfg.noise_photons)
    report = security.build_report(
        cfg.chain, channel, extra_inputs={"config": cfg.to_dict()}, **cfg.key_settings
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
