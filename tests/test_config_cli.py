"""Configuration parsing and the command-line surface."""

import ast
import contextlib
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mwqkd
from mwqkd import _floatrepr, cli, security, stats
from mwqkd import protocol as proto
from mwqkd.config import (
    CONFIG_SCHEMA,
    DEFAULT_CHANNEL_LOSS,
    DEFAULT_NOISE_GRID,
    DEFAULT_OCCUPANCY_GRID,
    MAX_SEED,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from mwqkd.devices import ChannelEstimate, ChannelParams, DeviceChainParams
from mwqkd.errors import InsufficientDataError

from test_protocol import _repr_cases, _traced_peak
from test_security import _chains, count_calls, merge_point


def test_default_config_uses_run1():
    cfg = ExperimentConfig()
    assert cfg.preset == "run1"
    assert cfg.chain == mwqkd.RUN1_CHAIN
    assert cfg.channel_loss == DEFAULT_CHANNEL_LOSS
    assert cfg.n_symbols == 16665


def test_config_json_roundtrip_is_identity():
    cfg = ExperimentConfig(
        preset="run2",
        chain=mwqkd.RUN2_CHAIN,
        noise_photons=0.004,
        noise_grid=(0.0, 0.01, 0.02),
        seed=99,
        occupancies=(1e-6, 1.0),
    )
    again = config_from_dict(json.loads(json.dumps(cfg.to_dict(), indent=2, sort_keys=True)))
    assert again == cfg
    # the schema table places every field
    assert set(CONFIG_SCHEMA) == {f.name for f in fields(ExperimentConfig)}


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"preset": "run1", "bogus": 1})
    with pytest.raises(ValueError, match="unknown security keys"):
        config_from_dict({"preset": "run1", "security": {"foo": 1}})
    with pytest.raises(ValueError, match="unknown chain keys"):
        config_from_dict({"preset": "run1", "chain": {"giggle_db": 3}})
    with pytest.raises(ValueError, match="unknown preset"):
        config_from_dict({"preset": "run9"})
    with pytest.raises(ValueError, match="unknown channel keys"):
        config_from_dict({"preset": "run1", "channel": {"los": 0.2}})
    with pytest.raises(ValueError, match="channel must be a JSON object"):
        config_from_dict({"preset": "run1", "channel": [1]})
    for grid in ({"start": 0.0, "stop": 0.1, "num": 5, "step": 0.025},
                 {"start": 0.0, "num": 5}):
        with pytest.raises(ValueError, match="exactly start, stop and num"):
            config_from_dict({"preset": "run1", "noise_grid": grid})


def test_config_chain_overrides_preset():
    cfg = config_from_dict({"preset": "run1", "chain": {"antisqueezing_db": 7.6}})
    assert cfg.chain.antisqueezing_db == 7.6
    assert cfg.chain.quantum_efficiency == 0.65  # the rest stays run1


def test_config_explicit_chain_without_preset():
    cfg = config_from_dict(
        {
            "chain": {
                "squeezing_db": 2.0,
                "antisqueezing_db": 5.0,
                "quantum_efficiency": 0.7,
                "measurement_gain_db": 15.0,
            }
        }
    )
    assert cfg.preset is None
    assert cfg.chain.squeezing_db == 2.0
    with pytest.raises(ValueError, match="preset or explicit chain"):
        config_from_dict({"n_symbols": 100})


def test_every_field_declares_its_json_place():
    # the schema is the fields' own declarations, one JSON place per field
    from mwqkd import config

    places = {f.name: f.metadata["json"] for f in fields(ExperimentConfig)}
    assert CONFIG_SCHEMA == places
    located = [(section, key) for section, key, _ in places.values()]
    assert len(set(located)) == len(located)
    # a section is no top-level key, and every declared type has a check
    sections = {section for section, _ in located} - {None}
    assert not sections & {key for section, key in located if section is None}
    assert {json_type for _, _, json_type in places.values()} <= set(config._JSON_TYPES)


def test_the_chain_keys_follow_device_chain_params():
    # a key's JSON type is its field's: a number array where the default
    # is a tuple, else a number
    for f in fields(DeviceChainParams):
        json_type = "number array" if isinstance(f.default, tuple) else "number"
        wrong = 1.0 if json_type == "number array" else [1.0]
        with pytest.raises(ValueError, match=re.escape(f"chain.{f.name} must be a JSON "
                                                       f"{json_type}, got {wrong!r}")):
            config_from_dict({"preset": "run1", "chain": {f.name: wrong}})
    # a null key keeps the preset's value, or the field's default without one
    chain = {"squeezing_db": 2.0, "antisqueezing_db": 5.0, "quantum_efficiency": 0.7,
             "measurement_gain_db": 15.0}
    assert config_from_dict({"chain": {**chain, "hemt_noise_photons": None}}).chain == (
        DeviceChainParams(**chain))


def test_a_null_chain_key_keeps_the_presets_value(tmp_path):
    cfg = tmp_path / "null.json"
    cfg.write_text(json.dumps({"preset": "run1", "chain": {"squeezing_db": None}}))
    assert load_config(cfg) == ExperimentConfig(preset="run1")
    reports = []
    for argv in (("--config", str(cfg)), ("--preset", "run1")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run_cli("report", *argv) == 0
        reports.append(json.loads(stdout.getvalue()))
    # run1's chain, and the echo is --preset run1's
    assert reports[0] == reports[1]


def test_config_grid_shorthand():
    cfg = config_from_dict(
        {"preset": "run1", "noise_grid": {"start": 0.0, "stop": 0.1, "num": 5}}
    )
    assert cfg.noise_grid == pytest.approx((0.0, 0.025, 0.05, 0.075, 0.1))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    for text in (b"{nope", *(text for text, _ in _UNREADABLE_JSON.values())):
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"^invalid JSON in {re.escape(str(path))}: "):
            load_config(path)


def run_cli(*argv):
    return cli.main(list(argv))


def test_sweep_writes_csv_with_config_echo(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--preset", "run2", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    echo = json.loads(lines[0][len("# config: "):])
    assert echo["preset"] == "run2"
    assert lines[1].split(",")[0] == "nbar"
    assert len(lines) == 2 + 41  # default grid
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == pytest.approx(0.8105382529199553, rel=1e-9)


def _perfbench_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli("sweep", "--preset", "run1", "--format", "json",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["asymptotic_noise_crossing"] == pytest.approx(0.062379, abs=2e-5)
    assert len(data["reports"]) == 41
    assert data["config"]["preset"] == "run1"

    # constants once in "settings", the varying fields per point; together
    # they are the scalar report at that point, bit for bit
    extract = _perfbench_checks().extract
    for flags in ((), ("--no-pe",)):
        out = tmp_path / f"sweep{len(flags)}.json"
        assert run_cli("sweep", "--preset", "run2", "--loss", "0.02", "--format", "json",
                       *flags, "--out", str(out)) == 0
        data = json.loads(out.read_text())
        cfg = config_from_dict(data["config"])
        assert cfg.include_estimation_penalty == (not flags)
        rows = []
        for nbar, point in zip(cfg.noise_grid, data["reports"], strict=True):
            want = security.build_report(
                cfg.chain, ChannelParams(cfg.channel_loss, nbar), **cfg.key_settings
            )
            merged = merge_point(data["settings"], point)
            assert json.dumps(merged, sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)
            rows.append([nbar, want.snr, want.mi_bits, want.holevo_bits,
                         want.asymptotic_key_bits, want.finite_size.bits_per_raw_symbol])
        # every path the benchmark reads is present
        values = extract("sweep", str(out), "")
        assert values["rows"] == rows
        assert values["crossing"] == data["asymptotic_noise_crossing"]

    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps({"preset": "run1", "noise_grid": []}))
    assert run_cli("sweep", "--config", str(cfg_path), "--format", "json",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["reports"] == []


def test_csv_cells_are_reprs_of_the_scalar_values(tmp_path):
    argv = ["sweep", "--preset", "run2", "--loss", "0.02"]
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    out = tmp_path / "sweep.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "# config: " + json.dumps(cfg.to_dict(), sort_keys=True)
    assert lines[-1] == ""
    want = []
    for nbar in cfg.noise_grid:
        rep = security.build_report(
            cfg.chain, ChannelParams(cfg.channel_loss, nbar), **cfg.key_settings
        )
        want.append([nbar, rep.snr, rep.mi_bits, rep.holevo_bits,
                     rep.asymptotic_key_bits, rep.finite_size.bits_per_raw_symbol])
    assert [line.split(",") for line in lines[2:-1]] == [list(map(repr, r)) for r in want]

    argv = ["linkbudget", "--preset", "run1", "--medium", "openair-300K"]
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    out = tmp_path / "lb.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "# config: " + json.dumps(cfg.to_dict(), sort_keys=True)
    medium = mwqkd.linkbudget.MEDIA["openair-300K"]
    occupancies = sorted(set(DEFAULT_OCCUPANCY_GRID) | {medium.background_photons})
    table = mwqkd.linkbudget.sweep_occupancy(cfg.chain, occupancies, medium.attenuation_db_per_m)
    assert [line.split(",") for line in lines[2:-1]] == [list(map(repr, r)) for r in table]


def _fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process that imports mwqkd from this
    checkout, with stdout and stderr captured as bytes."""
    src = Path(mwqkd.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    # as the suite's filterwarnings: a RuntimeWarning fails the child too
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"},
        capture_output=True,
        timeout=120,
    )


def _fresh_process(argv):
    done = _fresh_interpreter("-m", "mwqkd", *argv)
    return done.returncode, done.stdout


def _tree_bytes(path: Path) -> dict:
    if not path.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_reused_parser_leaks_no_state(tmp_path, capsysbinary, monkeypatch):
    # one process runs the commands in turn through the cached parser; each
    # must give what the same command gives as the first in a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    commands = [
        ["--help"],
        ["protocol", "--announce-bases", "--n-symbols", "2000"],
        ["protocol", "--n-symbols", "2000"],
        ["report", "--no-delta"],
        ["report"],
    ]
    for i, argv in enumerate(commands):
        if argv[0] == "protocol":
            argv = [*argv, "--out", str(tmp_path / "in-process" / str(i))]
        if argv == ["--help"]:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            code = exc.value.code
        else:
            code = cli.main(argv)
        got = (code, capsysbinary.readouterr().out, _tree_bytes(tmp_path / "in-process" / str(i)))
        argv = [a.replace("in-process", "fresh") for a in argv]
        want = (*_fresh_process(argv), _tree_bytes(tmp_path / "fresh" / str(i)))
        assert got == want, argv
        assert code == 0


def test_sweep_empty_grid_gives_header_only(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "run1", "noise_grid": []}))
    out = tmp_path / "empty.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # comment + header, no rows


SWEEP_HEADER = "nbar,snr,mi_bits,holevo_bits,asymptotic_key_bits,composite_key_bits_per_raw_symbol"


def _sweep_columns(cfg, grid):
    sweep = security.sweep_noise(cfg.chain, cfg.channel_loss, grid, **cfg.key_settings)
    return (grid, sweep.snr, sweep.mi_bits, sweep.holevo_bits, sweep.asymptotic_key_bits,
            sweep.finite_size.bits_per_raw_symbol)


def _str_sweep_csv(cfg) -> bytes:
    """The sweep CSV with every float written by ``str``, row by row."""
    grid, *columns = _sweep_columns(cfg, cfg.noise_grid)
    lines = ["# config: " + json.dumps(cfg.to_dict(), sort_keys=True), SWEEP_HEADER]
    lines += [",".join(map(str, row)) for row in zip(grid, *(c.tolist() for c in columns))]
    return ("\n".join(lines) + "\n").encode()


# grids whose values cross repr's notation switches (1e-4, 1e16), with
# zeros, subnormals and points past the largest background of any medium
_sweep_grids = st.one_of(
    st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-5, 1e-4, 0.0625, 1e16, 1e20])
        | st.floats(0.0, 1e20),
        max_size=12,
    ),
    st.fixed_dictionaries({
        "start": st.sampled_from([0.0, 1e-300, 1e-5]),
        "stop": st.sampled_from([1e-6, 0.1, 3.0, 1e20]) | st.floats(0.0, 1e20),
        "num": st.integers(1, 80),
    }),
)


@given(preset=st.sampled_from(["run1", "run2"]), grid=_sweep_grids)
@example(preset="run1", grid=[0.0, -0.0, 5e-324, 1e-300])
@example(preset="run2", grid={"start": 0.0, "stop": 1e-6, "num": 41})
@example(preset="run2", grid={"start": 0.0, "stop": 1e20, "num": 41})
@example(preset="run1", grid={"start": 1e-05, "stop": 0.0, "num": 21})
def test_sweep_csv_is_the_str_csv(preset, grid):
    # the kernel writes the bytes str writes, to --out and to stdout
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "cfg.json")
        config.write_text(json.dumps({"preset": preset, "noise_grid": grid}))
        want = _str_sweep_csv(load_config(config))
        out, stdout = Path(tmp, "sweep.csv"), io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 0
        assert out.read_bytes() == want
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run_cli("sweep", "--config", str(config)) == 0
        assert stdout.getvalue().encode() == want


def _write_table(path, columns):
    with open(path, "w") as fh:
        _floatrepr.write_table(fh, columns)


def test_float_csv_is_the_str_csv_across_blocks(tmp_path):
    # every case of the digit kernel, in five columns over many blocks
    cases = np.concatenate([_repr_cases(), [math.inf, -math.inf, math.nan]])
    columns = cases[: cases.size // 5 * 5].reshape(5, -1)
    _write_table(tmp_path / "kernel.csv", columns)
    want = "".join(",".join(map(str, row)) + "\n" for row in zip(*columns.tolist()))
    assert (tmp_path / "kernel.csv").read_bytes() == want.encode()


def test_sweep_table_memory_is_flat_in_the_grid(tmp_path):
    # beyond the sweep's arrays the CSV writer holds one block of rows
    cfg = ExperimentConfig()
    peaks = []
    for n in (10**4, 10**5):
        columns = _sweep_columns(cfg, tuple(np.linspace(0.0, 0.1, n).tolist()))
        _, peak = _traced_peak(_write_table, tmp_path / f"{n}.csv", columns)
        peaks.append(peak)
    assert max(peaks) < 4 << 20, peaks
    assert abs(peaks[1] - peaks[0]) < 128 * 1024, peaks


def test_sweep_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "run1", "seed": 5}))
    out = tmp_path / "s.json"
    assert run_cli("sweep", "--config", str(cfg), "--preset", "run2",
                   "--format", "json", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["config"]["preset"] == "run2"
    assert data["config"]["seed"] == 5


# A value off the default for each flag that takes one, None for a switch.
# On the FLAG_BASE configuration every command runs quickly and exits 0.
FLAG_VALUES = {
    "--preset": "run2", "--loss": "0.02", "--nbar": "0.01", "--n-symbols": "3000",
    "--no-delta": None, "--no-pe": None, "--e-ec": "1e-5", "--beta": "0.95",
    "--n-ec-fraction": "0.3", "--seed": "7", "--announce-bases": None,
    "--format": "json", "--medium": "openair-300K",
}
FLAG_BASE = {"preset": "run1", "n_symbols": 2000}
TAKEN = [(command, flag) for command, (_, flags) in cli._COMMAND_FLAGS.items() for flag in flags]
CHANGING = [pair for pair in TAKEN if pair[1] not in ("--config", "--out")]
REFUSED = [(command, flag) for command in cli._COMMAND_FLAGS for flag in cli._FLAGS
           if (command, flag) not in TAKEN]


def _flag_argv(flag):
    value = FLAG_VALUES[flag]
    return (flag,) if value is None else (flag, value)


def _without_config(value):
    if isinstance(value, dict):
        return {key: _without_config(item) for key, item in value.items() if key != "config"}
    return value


def _output_without_config(capsys, out, argv) -> list:
    """stdout and every file written under `out` by one run that exits 0,
    each without its echo of the configuration."""
    assert run_cli(*argv, "--out", str(out)) == 0
    output = [capsys.readouterr().out]
    for path in sorted(out.iterdir()) if out.is_dir() else [out]:
        text = path.read_text()
        try:
            output.append(_without_config(json.loads(text)))
        except json.JSONDecodeError:
            output.append([line for line in text.splitlines() if not line.startswith("# config:")])
    return output


@pytest.mark.parametrize("command, flag", REFUSED, ids=map("".join, REFUSED))
def test_a_flag_the_command_does_not_read_exits_2_naming_it(tmp_path, capsys, command, flag):
    # a flag the command would only echo is refused: linkbudget's reach is
    # asymptotic, report and sweep draw nothing seeded, a sweep's noise is its grid
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *_flag_argv(flag), "--out", str(out))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, flag", CHANGING, ids=map("".join, CHANGING))
def test_every_flag_a_command_takes_changes_its_output(tmp_path, capsys, command, flag):
    cfg = tmp_path / "base.json"
    cfg.write_text(json.dumps(FLAG_BASE))
    argv = (command, "--config", str(cfg))
    plain = _output_without_config(capsys, tmp_path / "plain", argv)
    flagged = _output_without_config(capsys, tmp_path / "flagged", (*argv, *_flag_argv(flag)))
    assert flagged != plain


def test_protocol_outputs_are_deterministic(tmp_path):
    args = ("protocol", "--preset", "run2", "--n-symbols", "2000")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    for name in ("key.csv", "manifest.json", "report.json", "histogram.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
    # a different seed changes the transcript
    assert run_cli(*args, "--seed", "777", "--out", str(tmp_path / "c")) == 0
    assert (tmp_path / "a" / "key.csv").read_bytes() != (
        tmp_path / "c" / "key.csv"
    ).read_bytes()


def test_protocol_report_embeds_config_and_empirics(tmp_path):
    out = tmp_path / "run"
    assert run_cli("protocol", "--preset", "run2", "--n-symbols", "4000",
                   "--nbar", "0.002", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["empirical"]["n_matched"] > 1500
    assert 0.0 < report["empirical"]["bhattacharyya_vs_model"] <= 1.0
    assert report["inputs"]["estimate"]["samples"] > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["channel"]["noise_photons"] == 0.002
    assert manifest["codebook_seed"] == manifest["config"]["seed"]

    key_lines = (out / "key.csv").read_text().splitlines()
    assert key_lines[0] == "index,alice_basis,bob_basis,alpha,beta,matched"
    assert len(key_lines) == 4001


def test_protocol_manifest_regenerates_announced_transcript(tmp_path):
    out = tmp_path / "run"
    assert run_cli("protocol", "--preset", "run2", "--n-symbols", "2000",
                   "--announce-bases", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["announce_bases"] is True
    codebook = proto.generate_codebook(
        manifest["n_symbols"], manifest["codebook_variance"],
        seed=manifest["codebook_seed"],
    )
    regenerated = proto.simulate_transmission(
        codebook,
        mwqkd.DeviceChainParams(**manifest["chain"]),
        mwqkd.ChannelParams(**manifest["channel"]),
        seed=manifest["transmission_seed"],
        announce_bases=manifest["announce_bases"],
    )
    written = proto.read_key_records(out / "key.csv")
    for name in ("alice_symbols", "alice_bases", "bob_bases", "outcomes", "matched"):
        assert np.array_equal(getattr(regenerated, name), getattr(written, name)), name
    assert written.matched.all()


def test_a_run_reproduces_from_its_config_echo(tmp_path, capsys):
    # the echo holds every input of the run: fed back as --config, it
    # writes the same bytes, announced bases included
    first, second, echo = tmp_path / "first", tmp_path / "second", tmp_path / "echo.json"
    assert run_cli("protocol", "--preset", "run2", "--seed", "7", "--announce-bases",
                   "--n-symbols", "2000", "--out", str(first)) == 0
    config = json.loads((first / "report.json").read_text())["inputs"]["config"]
    assert config["announce_bases"] is True
    echo.write_text(json.dumps(config))
    assert run_cli("protocol", "--config", str(echo), "--out", str(second)) == 0
    capsys.readouterr()
    for name in ("key.csv", "manifest.json", "histogram.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_announce_bases_and_the_occupancy_grid_are_config_fields(tmp_path, capsys):
    # the key, and the flag over a config's false, give the flag's bytes
    flagged = tmp_path / "flagged"
    assert run_cli("protocol", "--preset", "run2", "--announce-bases", "--out", str(flagged)) == 0
    config = tmp_path / "announce.json"
    for value, flag in ((True, ()), (False, ("--announce-bases",))):
        config.write_text(json.dumps({"preset": "run2", "announce_bases": value}))
        out = tmp_path / f"keyed-{value}"
        assert run_cli("protocol", "--config", str(config), *flag, "--out", str(out)) == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(flagged))
        for name in os.listdir(flagged):
            assert (out / name).read_bytes() == (flagged / name).read_bytes(), (value, name)
    # a key that is not a JSON boolean exits 2 naming it, before writing
    config.write_text(json.dumps({"preset": "run2", "announce_bases": "yes"}))
    capsys.readouterr()
    assert run_cli("protocol", "--config", str(config), "--out", str(tmp_path / "bad")) == 2
    assert capsys.readouterr().err == "error: announce_bases must be a JSON boolean, got 'yes'\n"
    assert not (tmp_path / "bad").exists()
    # the echo holds the grid a linkbudget run used; null keeps it
    assert ExperimentConfig().to_dict()["linkbudget"]["occupancies"] == list(
        DEFAULT_OCCUPANCY_GRID)
    null = config_from_dict({"preset": "run1", "linkbudget": {"occupancies": None}})
    assert null.occupancies == DEFAULT_OCCUPANCY_GRID and not null.announce_bases


def test_protocol_without_enough_data_exits_3(tmp_path, capsys):
    code = run_cli("protocol", "--preset", "run1", "--n-symbols", "100",
                   "--out", str(tmp_path / "x"))
    assert code == 3
    assert "matched pairs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["report", "--n-symbols", "4"],
    ["sweep", "--n-symbols", "5"],
    ["report", "--n-ec-fraction", "0.9999"],
])
def test_too_few_estimation_symbols_exit_3(tmp_path, capsys, argv):
    # fewer than 2 symbols left for estimation: the documented exit 3 of
    # a protocol run short of data, with nothing written
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 3
    assert "at least 2 estimation symbols" in capsys.readouterr().err
    assert not out.exists()
    # without the estimation penalty the same configuration has a bound
    assert run_cli(*argv, "--no-pe", "--out", str(out)) == 0
    assert out.exists()


def test_lossless_channel_with_noise_exits_0(tmp_path, capsys):
    # the estimated loss clamps to 0 while the noise estimate stays positive
    assert run_cli("protocol", "--preset", "run2", "--loss", "0.0005", "--nbar", "0",
                   "--seed", "3", "--out", str(tmp_path / "p")) == 0
    assert run_cli("report", "--loss", "0", "--nbar", "0.05",
                   "--out", str(tmp_path / "r.json")) == 0
    assert run_cli("sweep", "--loss", "0", "--out", str(tmp_path / "s.csv")) == 0
    capsys.readouterr()
    # a lossless channel carries its noise into the transcript
    for nbar in ("0", "0.05"):
        assert run_cli("protocol", "--loss", "0", "--nbar", nbar, "--n-symbols", "2000",
                       "--out", str(tmp_path / nbar)) == 0
    assert (tmp_path / "0" / "key.csv").read_bytes() != (tmp_path / "0.05" / "key.csv").read_bytes()


def _output_bytes(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_unmodulated_chain_reports_no_key_and_its_protocol_exits_3(tmp_path, capsys):
    # I_AB = chi = 0 at every channel, so the estimation widening cannot
    # move the bound: report and sweep give it unwidened, in strict JSON;
    # the protocol's regression has no slope, the documented exit 3
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps(
        {"preset": "run1", "chain": {"squeezing_db": 0.0, "antisqueezing_db": 0.0}}
    ))
    outputs = {}
    for argv in (("report",), ("report", "--no-pe"), ("sweep", "--format", "json"),
                 ("sweep",)):
        out = tmp_path / "_".join(argv)
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 0, argv
        outputs[argv] = out.read_text()
    report, no_pe, sweep = (
        json.loads(outputs[argv], parse_constant=_reject_constant)
        for argv in (("report",), ("report", "--no-pe"), ("sweep", "--format", "json"))
    )
    bound = report["finite_size"]
    assert report["asymptotic_key_bits"] == bound["mi_bits"] == bound["holevo_bits"] == 0.0
    assert bound["bits_per_symbol"] == -bound["delta_bits"] < 0.0
    assert bound["worst_case_loss"] is None and bound["worst_case_noise"] is None
    assert bound["include_estimation_penalty"] and bound["w"] > 0.0
    for name in ("bits_per_symbol", "bits_per_raw_symbol", "holevo_bits"):
        assert no_pe["finite_size"][name] == bound[name], name
    assert len(sweep["reports"]) == len(DEFAULT_NOISE_GRID)
    for row in outputs[("sweep",)].splitlines()[2:]:
        assert [float(x) for x in row.split(",")[1:]] == [
            0.0, 0.0, 0.0, 0.0, bound["bits_per_raw_symbol"]
        ]

    out = tmp_path / "protocol"
    capsys.readouterr()
    assert run_cli("protocol", "--config", str(cfg), "--out", str(out)) == 3
    assert "unmodulated" in capsys.readouterr().err
    assert sorted(_output_bytes(out)) == ["key.csv", "manifest.json"]


def _recording_forks(monkeypatch) -> list:
    """Patch os.fork to record the pid of every child it starts."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _run(argv, out) -> tuple:
    """Exit code, stdout, stderr and output files of one CLI run into `out`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(*argv, "--out", str(out))
    return code, stdout.getvalue(), stderr.getvalue(), _output_bytes(out)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), n=st.integers(64, 6000), announce=st.booleans())
@example(seed=7, n=16665, announce=False)
@example(seed=7, n=100, announce=False)
def test_a_forked_run_is_the_in_process_run(seed, n, announce):
    # a child runs the bootstrap; without os.fork the parent runs it at the join
    argv = ["protocol", "--preset", "run2", "--seed", str(seed), "--n-symbols", str(n)]
    argv += ["--announce-bases"] if announce else []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        forks = _recording_forks(patch)
        forked = _run(argv, Path(tmp, "forked"))
        assert len(forks) == 1
        patch.delattr(os, "fork")
        assert _run(argv, Path(tmp, "in process")) == forked
    files = {0: ["histogram.csv", "key.csv", "manifest.json", "report.json"],
             3: ["key.csv", "manifest.json"]}
    assert sorted(forked[3]) == files[forked[0]]


def _recording_bootstraps(monkeypatch, tmp_path, bootstrap) -> Path:
    """Patch the bootstrap to log its pid to a file, then call `bootstrap`."""
    log = tmp_path / "bootstraps"

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return bootstrap(*args, **kwargs)

    monkeypatch.setattr(stats, "bootstrap_mi_sigma", logged)
    return log


def test_a_bootstrap_that_raises_in_the_child_is_the_in_process_raise(tmp_path, monkeypatch):
    argv = ("protocol", "--n-symbols", "2000")
    whole = _run(argv, tmp_path / "whole")[3]

    def fails(*args, **kwargs):
        raise OSError("the bootstrap failed")

    log = _recording_bootstraps(monkeypatch, tmp_path, fails)
    forks = _recording_forks(monkeypatch)
    forked = _run(argv, tmp_path / "forked")
    assert len(forks) == 1
    # once in the child, then once here at the join, which raises for real
    assert log.read_text().split() == [str(forks[0]), str(os.getpid())]
    monkeypatch.delattr(os, "fork")
    assert _run(argv, tmp_path / "in process") == forked
    assert forked == (
        4, "", "error: the bootstrap failed\n",
        {name: whole[name] for name in ("key.csv", "manifest.json")},
    )


@pytest.mark.parametrize("error, code", [(ValueError, 2), (InsufficientDataError, 3)])
def test_a_raise_in_the_analysis_leaves_the_key_and_its_manifest(
    tmp_path, monkeypatch, error, code
):
    argv = ("protocol", "--n-symbols", "2000")
    whole = _run(argv, tmp_path / "whole")[3]

    def fails(*args, **kwargs):
        raise error("the bootstrap failed")

    monkeypatch.setattr(stats, "bootstrap_mi_sigma", fails)
    forked = _run(argv, tmp_path / "forked")
    monkeypatch.delattr(os, "fork")
    assert _run(argv, tmp_path / "in process") == forked
    assert forked == (
        code, "", "error: the bootstrap failed\n",
        {name: whole[name] for name in ("key.csv", "manifest.json")},
    )


@settings(max_examples=6, deadline=None, derandomize=True)
@given(preset=st.sampled_from(["run1", "run2"]), seed=st.integers(0, 2**32),
       announce=st.booleans(), n=st.sampled_from([2000, 3001, 4166]))
def test_a_transcript_replays_to_its_report(preset, seed, announce, n):
    # key.csv and the config its manifest echoes give report.json and
    # histogram.csv back, byte for byte, through protocol.analyze
    argv = ["protocol", "--preset", preset, "--seed", str(seed), "--n-symbols", str(n)]
    argv += ["--announce-bases"] if announce else []
    with tempfile.TemporaryDirectory() as tmp:
        run, replay = Path(tmp, "run"), Path(tmp, "replay")
        assert run_cli(*argv, "--out", str(run)) == 0
        alpha, beta = proto.sift(proto.read_key_records(run / "key.csv"))
        cfg = config_from_dict(json.loads((run / "manifest.json").read_text())["config"])
        payload, rows = proto.analyze(
            alpha, beta, cfg, lambda: stats.bootstrap_mi_sigma(alpha, beta, seed=cfg.bootstrap_seed)
        )
        replay.mkdir()
        cli._write_json(replay / "report.json", payload)
        cli._write_csv(replay / "histogram.csv", proto.HISTOGRAM_COLUMNS, rows, cfg.to_dict())
        for name in ("report.json", "histogram.csv"):
            assert (replay / name).read_bytes() == (run / name).read_bytes(), name


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_child_that_dies_mid_send_leaves_the_bytes_unchanged(tmp_path, monkeypatch, death):
    argv = ("protocol", "--preset", "run2", "--n-symbols", "3000", "--announce-bases")
    whole = _run(argv, tmp_path / "whole")
    parent = os.getpid()
    write = os.write

    def dies_in_the_child(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        write(fd, data[: len(data) // 2])  # part of sigma's repr
        if death == "exit":
            os._exit(1)
        os.kill(os.getpid(), signal.SIGKILL)

    log = _recording_bootstraps(monkeypatch, tmp_path, stats.bootstrap_mi_sigma)
    monkeypatch.setattr(os, "write", dies_in_the_child)
    forks = _recording_forks(monkeypatch)
    assert _run(argv, tmp_path / "died") == whole
    assert log.read_text().split() == [str(forks[0]), str(parent)]


def test_the_exit_3_path_waits_for_and_reaps_the_child(tmp_path, monkeypatch):
    parent = os.getpid()
    bootstrap = stats.bootstrap_mi_sigma

    def slow_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(0.5)
        return bootstrap(*args, **kwargs)

    log = _recording_bootstraps(monkeypatch, tmp_path, slow_in_the_child)
    forks = _recording_forks(monkeypatch)
    argv = ("protocol", "--n-symbols", "100")
    start = time.monotonic()
    forked = _run(argv, tmp_path / "forked")
    assert time.monotonic() - start >= 0.5  # waited for, not left behind
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)
    assert log.read_text().split() == [str(forks[0])]  # never run again here
    code, _, err, files = forked
    assert code == 3 and "matched pairs" in err
    assert sorted(files) == ["key.csv", "manifest.json"]
    monkeypatch.delattr(os, "fork")
    assert _run(argv, tmp_path / "in process") == forked


def test_the_exit_4_path_reaps_the_child_and_never_reruns_the_bootstrap(tmp_path, monkeypatch):
    def fails(record, path):
        raise OSError("the write failed")

    monkeypatch.setattr(proto, "write_key_records", fails)
    log = _recording_bootstraps(monkeypatch, tmp_path, stats.bootstrap_mi_sigma)
    forks = _recording_forks(monkeypatch)
    argv = ("protocol", "--n-symbols", "2000")
    forked = _run(argv, tmp_path / "forked")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)
    assert log.read_text().split() == [str(forks[0])]
    assert forked == (4, "", "error: the write failed\n", {})
    monkeypatch.delattr(os, "fork")
    assert _run(argv, tmp_path / "in process") == forked
    assert log.read_text().split() == [str(forks[0])]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    preset=st.sampled_from(["run1", "run2"]),
    loss=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
    nbar=st.one_of(st.just(0.0), st.floats(0.0, 0.02)),
    seed=st.integers(0, 2**32),
    announce=st.booleans(),
    n=st.integers(64, 4000),
)
@example(preset="run2", loss=0.0, nbar=0.01, seed=3, announce=False, n=2000)
@example(preset="run1", loss=5e-324, nbar=0.02, seed=0, announce=True, n=4000)
def test_protocol_exits_0_or_3_reproducibly_and_books_its_counts(
    preset, loss, nbar, seed, announce, n
):
    argv = ["protocol", "--preset", preset, "--loss", repr(loss), "--nbar", repr(nbar),
            "--seed", str(seed), "--n-symbols", str(n)]
    argv += ["--announce-bases"] if announce else []
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, run) for run in ("a", "b"))
        code = run_cli(*argv, "--out", first)
        assert code in (0, 3)
        assert run_cli(*argv, "--out", second) == code
        assert _output_bytes(first) == _output_bytes(second)
        if code == 0:
            report = json.loads(Path(first, "report.json").read_text())
            assert report["finite_size"]["n_sifted"] == report["empirical"]["n_matched"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    loss=st.sampled_from([0.0, 5e-324]) | st.floats(-300.0, math.log10(0.999)).map(
        lambda exponent: 10.0**exponent
    ),
    nbar=st.just(0.0) | st.floats(-12.0, 300.0).map(lambda exponent: 10.0**exponent),
)
@example(loss=0.0115, nbar=1e160)  # m^2, and so chi's invariants, overflow
@example(loss=1e-300, nbar=1e12)  # 2 nbar / loss is past the largest float
@example(loss=1e-300, nbar=1e80)
def test_every_channel_in_the_domain_exits_0_or_3_or_names_its_value(loss, nbar):
    # loss in [0, 1) and nbar finite and >= 0 is the one channel domain:
    # report and sweep exit 0 or 3 there, or exit 2 naming the noise at
    # which chi's invariants overflow; every JSON they write is strict
    channel = ["--loss", repr(loss), "--nbar", repr(nbar)]
    with tempfile.TemporaryDirectory() as tmp:
        grid = Path(tmp, "grid.json")
        grid.write_text(json.dumps({"preset": "run1", "noise_grid": [0.0, nbar]}))
        # the grid carries the noise to sweep, so sweep takes only the loss
        for argv in (["report", *channel], ["report", *channel, "--no-pe"],
                     ["sweep", "--config", str(grid), *channel[:2], "--format", "json"]):
            out, err = Path(tmp, "out.json"), io.StringIO()
            out.unlink(missing_ok=True)
            with contextlib.redirect_stderr(err):
                code = run_cli(*argv, "--out", str(out))
            if code == 2:
                named = err.getvalue().split("noise_photons=")[1].split()[0]
                assert float(named) >= nbar > 1e100, argv
                assert not out.exists()
            else:
                assert code in (0, 3), argv
                if code == 0:
                    json.loads(out.read_text(), parse_constant=_reject_constant)


def test_protocol_requires_out(capsys):
    assert run_cli("protocol", "--preset", "run1") == 2


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"presett": "run1"}))
    assert run_cli("sweep", "--config", str(cfg)) == 2
    cfg.write_text("not json at all")
    assert run_cli("sweep", "--config", str(cfg)) == 2
    cfg.write_text(json.dumps({"channel": [1]}))
    assert run_cli("sweep", "--config", str(cfg)) == 2
    assert "channel must be a JSON object" in capsys.readouterr().err
    # values of the wrong JSON type
    for data, message in (
        ({"preset": "run1", "n_symbols": "100"}, "n_symbols must be a JSON integer"),
        ({"preset": "run1", "channel": {"loss": "0.01"}}, "channel.loss must be a JSON number"),
        ({"preset": "run1", "seed": 1.5}, "seed must be a JSON integer"),
        ({"preset": "run1", "channel": {"loss": True}}, "channel.loss must be a JSON number"),
        ({"preset": "run1", "chain": {"hemt_noise_photons": "46"}},
         "chain.hemt_noise_photons must be a JSON number"),
        ({"preset": "run1", "noise_grid": [0.0, float("nan")]},
         "noise_grid must be a JSON number array"),
    ):
        cfg.write_text(json.dumps(data))
        assert run_cli("report", "--config", str(cfg)) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (("report", "--loss", "1.0"), None, "loss must be in [0, 1), got 1.0"),
        (("report", "--loss", "-0.1"), None, "loss must be in [0, 1), got -0.1"),
        (("report", "--n-symbols", "3"), None, "n_raw (the symbol count N) must be >= 4, got 3"),
        (("report", "--n-ec-fraction", "1.0"), None, "n_ec_fraction must be in (0, 1)"),
        (("linkbudget",), {"preset": "run1", "linkbudget": {"medium": "vacuum"}},
         "unknown medium 'vacuum'"),
        (("sweep",), {"preset": "run1", "noise_grid": {"start": 0.0, "stop": 0.1, "num": 0}},
         "noise_grid num must be >= 1"),
    ],
    ids=["loss-1", "loss-negative", "n-symbols-3", "n-ec-fraction-1", "medium", "grid-num-0"],
)
def test_out_of_range_settings_exit_2_naming_the_field(tmp_path, capsys, argv, config, named):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = (*argv, "--config", str(path))
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "sweep", "protocol", "linkbudget"])
@pytest.mark.parametrize("field, named", [
    ({"bandwidth_hz": -5}, "bandwidth_hz must be finite and > 0, got -5"),
    ({"linkbudget": {"occupancies": [1.0, -1]}}, "occupancies must be finite and >= 0, got -1.0"),
    ({"noise_grid": [0.0, -0.1]}, "noise_photons must be finite and >= 0, got -0.1"),
], ids=["bandwidth", "occupancies", "noise-grid"])
def test_every_command_refuses_a_config_outside_the_domain(tmp_path, capsys, command, field, named):
    # the configuration is checked whole, whichever fields the command reads
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "run1", **field}))
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: {named}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "sweep", "protocol", "linkbudget"])
@pytest.mark.parametrize("preset", [{}, {"preset": None}], ids=["no-preset", "null-preset"])
def test_an_explicit_chain_missing_parameters_exits_2_naming_them(
    tmp_path, capsys, command, preset
):
    # without a preset, the chain names every DeviceChainParams field that
    # has no default (S, A, eta and G); a null counts as missing
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({**preset, "chain": {"squeezing_db": 2.0,
                                                   "quantum_efficiency": None}}))
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", "error: a chain without a preset needs antisqueezing_db, "
                                       "quantum_efficiency, measurement_gain_db\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "sweep", "protocol", "linkbudget"])
@pytest.mark.parametrize("field, named", [
    ({"channel": {"loss": 10**400}}, "channel.loss"),
    ({"channel": {"noise_photons": -(10**400)}}, "channel.noise_photons"),
    ({"linkbudget": {"occupancies": [1.0, 10**400]}}, "linkbudget.occupancies"),
    ({"noise_grid": [0.0, 10**400]}, "noise_grid"),
], ids=["loss", "noise", "occupancies", "noise-grid"])
def test_an_integer_past_the_largest_float_exits_2_naming_the_field(
    tmp_path, capsys, command, field, named
):
    # json.dump writes the int whole, and json.load reads it back as one
    cfg = tmp_path / "huge.json"
    with open(cfg, "w") as fh:
        json.dump({"preset": "run1", **field}, fh)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith(f"error: {named} must be a JSON number")
    assert not out.exists()


# JSON that json.loads cannot read: text -> the start of the reason given.
# None of these raise a JSONDecodeError: the digit limit is a plain
# ValueError, the nesting a RecursionError, the byte a UnicodeDecodeError.
_UNREADABLE_JSON = {
    "digit-limit": (
        b'{"preset": "run1", "channel": {"loss": 1' + b"0" * 5000 + b"}}",
        f"an integer has more than {sys.get_int_max_str_digits()} digits\n",
    ),
    "nesting": (b"[" * 100_000, "maximum recursion depth exceeded"),
    "not-utf-8": (b'{"preset": "run\xff1"}', "'utf-8' codec can't decode byte 0xff"),
}


@pytest.mark.parametrize("command", ["report", "sweep", "protocol", "linkbudget"])
@pytest.mark.parametrize("case", sorted(_UNREADABLE_JSON))
def test_json_the_parser_cannot_read_exits_2_naming_the_file(tmp_path, capsys, command, case):
    text, reason = _UNREADABLE_JSON[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"error: invalid JSON in {cfg}: {reason}")
    assert stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field", [
    {"bandwidth_hz": 0.0}, {"bandwidth_hz": math.inf}, {"bandwidth_hz": math.nan},
    {"occupancies": (math.inf,)}, {"noise_grid": (math.nan,)}, {"noise_grid": (-0.0, -1e-300)},
])
def test_config_grids_and_bandwidth_are_finite_and_in_range(field):
    with pytest.raises(ValueError, match="must be finite"):
        ExperimentConfig(**field)


def test_a_chain_that_overflows_chi_alone_is_named_not_the_noise(tmp_path, capsys):
    # 3000 dB is a finite linear ratio, but its channel-input variances
    # overflow chi's invariants at zero noise: the chain is refused
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps(
        {"preset": "run1", "chain": {"squeezing_db": 3000, "antisqueezing_db": 3000}}
    ))
    for argv in (("report", "--no-pe"), ("sweep",), ("protocol", "--n-symbols", "200")):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "chain channel-input variances (2.5e+299, 2.5e+299) overflow chi" in err
        assert "noise_photons" not in err
        assert not out.exists()


def test_protocol_names_the_noise_that_overflows_the_record_variance(tmp_path, capsys):
    # nbar = 1e308 is finite, but times the measurement gain the record
    # variance is not: refused before any draw, so nothing is written
    out = tmp_path / "run"
    assert run_cli("protocol", "--preset", "run1", "--nbar", "1e308", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "noise_photons=1e+308 at loss=0.0115 overflows the record variance" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("squeezing, antisqueezing, named", [
    (-1, 0, "antisqueezing_db=0.0, squeezing_db=-1.0: A < -S"),
    (3, 1, "antisqueezing_db=1.0, squeezing_db=3.0: A < S"),
], ids=["no-covering-codebook", "below-the-uncertainty-bound"])
def test_every_command_refuses_levels_outside_the_chain_domain(
    tmp_path, capsys, squeezing, antisqueezing, named
):
    # a negative squeezing level with A < -S has a negative codebook
    # variance; A < S is not a physical state
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps(
        {"preset": "run1", "chain": {"squeezing_db": squeezing, "antisqueezing_db": antisqueezing}}
    ))
    for argv in (("report", "--no-pe"), ("sweep", "--no-pe"), ("protocol",)):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("gain_db, code", [(3040, 0), (3050, 2), (3080, 2)])
def test_protocol_refuses_a_gain_whose_sums_of_squares_overflow(tmp_path, capsys, gain_db, code):
    # 3040 dB keeps the matched records' sums of squares finite; from 3050 dB
    # the bootstrap's and then the estimate's overflow: refused before the
    # outcomes are drawn. A RuntimeWarning is an error under this suite's
    # warning filter.
    cfg = tmp_path / "gain.json"
    cfg.write_text(json.dumps({"preset": "run1", "chain": {"measurement_gain_db": gain_db}}))
    out = tmp_path / "run"
    assert run_cli("protocol", "--config", str(cfg), "--out", str(out)) == code
    err = capsys.readouterr().err
    if code == 0:
        empirical = json.loads((out / "report.json").read_text())["empirical"]
        assert empirical["mutual_information_bits"] == 1.2723109422885874
        assert empirical["mutual_information_sigma"] == 0.01350370034581278
    else:
        assert f"measurement_gain_db={float(gain_db)!r} with noise_photons=0.0 at loss=0.0115" in err
        assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [("report", "--no-pe"), ("report",), ("sweep",), ("protocol",), ("linkbudget",)],
    ids=lambda argv: "_".join(argv),
)
def test_an_n_symbols_past_the_largest_float_exits_2_naming_n(tmp_path, capsys, argv):
    # Delta and the EC prefactor take N as a float: refused once, in key_settings.
    # linkbudget has no --n-symbols, but checks a config file's N all the same.
    if argv[0] == "linkbudget":
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({"preset": "run1", "n_symbols": 10**400}))
        argv = (*argv, "--config", str(cfg))
    else:
        argv = (*argv, "--n-symbols", str(10**400))
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: n_raw (the symbol count N) must be <= 1.7976931348623157e+308\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("n", [sys.maxsize + 1, 10**20])
def test_a_protocol_n_symbols_past_sys_maxsize_exits_2_naming_n_symbols(tmp_path, capsys, n):
    # the bound takes such an N, as a float; a run cannot index its symbols
    out = tmp_path / "run"
    assert run_cli("protocol", "--n-symbols", str(n), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: n_symbols must be <= sys.maxsize ({sys.maxsize}), got {n}\n"
    )
    assert list(out.iterdir()) == []
    assert run_cli("report", "--n-symbols", str(n), "--out", str(tmp_path / "n.json")) == 0


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 2.73 TiB for an array with shape (3000000000000,) and data type int8",
     "Unable to allocate 2.73 TiB for an array with shape (3000000000000,) and data type int8"),
    ("", "out of memory"),
])
def test_a_memory_error_exits_4_in_one_line(tmp_path, capsys, monkeypatch, message, line):
    # raised here, not allocated: on an overcommitting machine an allocation
    # that large can succeed and then be filled block by block
    def fails(rng, n):
        raise MemoryError(message)

    monkeypatch.setattr(proto, "_fair_coins", fails)
    out = tmp_path / "run"
    assert run_cli("protocol", "--n-symbols", "3000000000000", "--out", str(out)) == 4
    assert capsys.readouterr().err == f"error: {line}\n"
    assert list(out.iterdir()) == []


def test_linkbudget_takes_every_finite_background(tmp_path):
    # past the PLOB zero no loss is tolerable: eps_max and distance_m are
    # 0.0, never -0.0, up to the largest float
    hot = (1e30, 1e200, sys.float_info.max)
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"preset": "run1", "linkbudget": {"occupancies": hot}}))
    argv = ("linkbudget", "--config", str(cfg), "--out")
    assert run_cli(*argv, str(tmp_path / "lb.json"), "--format", "json") == 0
    assert run_cli(*argv, str(tmp_path / "lb.csv")) == 0
    rows = json.loads((tmp_path / "lb.json").read_text())["rows"]
    csv_rows = [
        dict(zip(("nbar_th", "eps_max", "distance_m"), map(float, line.split(","))))
        for line in (tmp_path / "lb.csv").read_text().splitlines()[2:]
    ]
    assert csv_rows == rows
    assert [row for row in rows if row["nbar_th"] in hot] == [
        {"nbar_th": n_th, "eps_max": 0.0, "distance_m": 0.0} for n_th in hot
    ]
    for row in rows:
        assert all(math.copysign(1.0, x) == 1.0 for x in row.values()), row


def test_unwritable_path_exits_4(tmp_path):
    assert run_cli("sweep", "--preset", "run1",
                   "--out", str(tmp_path / "no" / "dir" / "x.csv")) == 4


def test_linkbudget_csv(tmp_path):
    out = tmp_path / "lb.csv"
    assert run_cli("linkbudget", "--preset", "run2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "nbar_th,eps_max,distance_m"
    rows = [line.split(",") for line in lines[2:]]
    eps = [float(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    # the cryo operating point appears in the table
    assert any(abs(float(r[2]) - 1161.9) < 1.0 for r in rows)


def test_linkbudget_limits_come_from_the_medium_row(tmp_path):
    for medium in mwqkd.linkbudget.MEDIA.values():
        out = tmp_path / f"{medium.label}.json"
        assert run_cli("linkbudget", "--preset", "run1", "--medium", medium.label,
                       "--format", "json", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        (row,) = [r for r in data["rows"] if r["nbar_th"] == medium.background_photons]
        assert data["max_tolerable_loss"] == row["eps_max"]
        assert data["distance_limit_m"] == row["distance_m"]


def test_linkbudget_medium_flag(tmp_path):
    out = tmp_path / "lb.json"
    assert run_cli("linkbudget", "--preset", "run2", "--medium", "openair-300K",
                   "--format", "json", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["medium"]["label"] == "openair-300K"
    assert data["distance_limit_m"] == pytest.approx(74.6, abs=0.5)


@pytest.mark.parametrize(
    "preset, medium, evals",
    # ids without the count, so they stay stable when a count changes
    [
        pytest.param(preset, medium, evals, id=f"{preset}-{medium}")
        for preset, medium, evals in (
            ("run1", "cryo-15mK", 84),
            ("run1", "openair-300K", 84),
            ("run2", "cryo-15mK", 78),
            ("run2", "openair-300K", 80),
        )
    ],
)
def test_linkbudget_key_evaluations_are_pinned(monkeypatch, tmp_path, preset, medium, evals):
    # 14 crossings and the key rate at the configured loss; bisection
    # that evaluates every midpoint made 14 * 22 + 1 = 309, cold
    # bracket-guided crossings 150 to 159; each crossing after the first
    # now starts from the previous row's root. The key's last bits move
    # the Illinois points, so these counts follow g(nu)'s rounding; every
    # key evaluation is a call of KeyEvaluator.key
    calls = count_calls(monkeypatch, "key", security.KeyEvaluator)
    assert run_cli("linkbudget", "--preset", preset, "--medium", medium,
                   "--out", str(tmp_path / "lb.csv")) == 0
    assert len(calls) == evals


# sha256 of each output of each command line, its config echo masked.
# Every output but key.csv holds the echo, json.dumps(cfg.to_dict(),
# sort_keys=True), exactly once; it is hashed as ECHO_MASK, so a new config
# key or default moves PRESET_ECHOES and none of these. A speed-up, a root
# estimate among them, must keep these bytes. The reports are at the
# paper's point (loss 0.0115, nbar 1.7e-6) and on a lossless channel with
# noise. protocol's report.json is not pinned: its bootstrap sigma and the
# estimate's dot products go through BLAS.
GOLDEN_OUTPUTS = {
    "linkbudget --preset run1 --medium cryo-15mK --format csv":
        "b7681142727319c2fce9e1c9c6ed0ce4a8fe1d6a6e7e6f1ae815729e309e4015",
    "linkbudget --preset run1 --medium cryo-15mK --format json":
        "167fea28447416b78b0b0dbf91b486e6e49b79f92445e81df8b9c49c17838eef",
    "linkbudget --preset run1 --medium openair-300K --format csv":
        "e39b026afe76939ee00c23eef00903874f247a58b73665d18b39bdc883f72e94",
    "linkbudget --preset run1 --medium openair-300K --format json":
        "0ba42de5b24ae5cf5a692acacfd48ca19219d74a817a6ff962c569173a1b9ecc",
    "linkbudget --preset run2 --medium cryo-15mK --format csv":
        "345dab199d7f388626efd88aa7112e350f4d375d95fa814b9a938341baf54307",
    "linkbudget --preset run2 --medium cryo-15mK --format json":
        "1b263ad86c3b3678457370d86b208a234d40fd340c3ff3cef500800ef8f78727",
    "linkbudget --preset run2 --medium openair-300K --format csv":
        "63ccb074fa2afde15de591891dfdbf3807ab61afa01b53dbc56d6f8b40765e4a",
    "linkbudget --preset run2 --medium openair-300K --format json":
        "d771a56a21b9a4ac1d7f32fdbe1d0e2c9e4d99fc84606dddfb8a672e8a116531",
    "report --preset run1 --loss 0 --nbar 0.01":
        "a78a45c1f5cb98605123babdf1d364aa9b3f934fedebfc76321adfe8691993f5",
    "report --preset run1 --loss 0.0115 --nbar 1.7e-06":
        "89fa1b674feef7f22f9739b848dc2c8c0dfe3162bec4a3b1e1564c59b4445ddd",
    "report --preset run2 --loss 0 --nbar 0.01":
        "20f42e1fa9d3574cd1f0b931008a99a5c7f1606c7f39b6c8584a387e0e292a2b",
    "report --preset run2 --loss 0.0115 --nbar 1.7e-06":
        "41a7f4bb756a27bb99b1cd959b7e0b0dee1a9857f0f0c879289747fb30689067",
    "sweep --preset run1 --format csv":
        "046e69e62a074cb967144a864d01193380055aaadfb4d83878ea34d2e4f57116",
    "sweep --preset run1 --format json":
        "4841fa6a2e5c46aafc1324304eac79ac67bfc6285f500694e46d0b990f0c58f3",
    "sweep --preset run2 --format csv":
        "aaaad0549412157cc9e9785dd01a17783ef0f4c3ec477b5ea4e63591ed27cd8b",
    "sweep --preset run2 --format json":
        "3fa51bb97f7c5125a513f6084504e4ad5ed67df4a287dbb1386b679c80149b76",
    "protocol --preset run1 --seed 7 --nbar 1.7e-06": {
        "histogram.csv": "a2af33fade258f049c6c287a57aad65558e2a468233dad6149cd486851edb8f4",
        "key.csv": "a26fe9fd4fbe5f06a8fd92ff8da0ad199cc2b418fd5e2a0f1d632f706ef553d3",
        "manifest.json": "0630a2c1cfad196e18e2dc78ba966bd1d1958780a65bd4747330cdaf28584068",
    },
    "protocol --preset run1 --seed 7 --nbar 1.7e-06 --announce-bases": {
        "histogram.csv": "af2f58161419e948b9cd2c600d5d0aa012c1d409ae731be08f50269f111b7980",
        "key.csv": "57e35eefc69d8d2c72a7f9899d1346e4ba00c61faeebad62e64602aa645d01cc",
        "manifest.json": "21819ad6e0d3e65b8e6caacbf55b0beca068213ad73f31384ed5085be000c791",
    },
    "protocol --preset run2 --seed 7 --nbar 1.7e-06": {
        "histogram.csv": "5c9e0bb69caae576c27a700f0caf47aa3ce30437b278d50da7ed6a0370544f5b",
        "key.csv": "ff4315f99ca4eb2d92a76bbda44469ed9c6d1dd09bc9f8b7828826f852f419d1",
        "manifest.json": "027f3890accc071f07e156354ecb39c2d0d7913df1f527a03ea9451f25d25eca",
    },
    "protocol --preset run2 --seed 7 --nbar 1.7e-06 --announce-bases": {
        "histogram.csv": "2e201d8ace481ace4030c14ce5f7d35058ad57c186271ea1b780a2541ca1282c",
        "key.csv": "02a78ef55ea2d46e146f75c30948651c85913490edfd00809f5017aa5c6766dd",
        "manifest.json": "47b2127f90e67f521c1edeef8cc8a4fa0665c97ed1d21a3dff495d375f1b4d78",
    },
}

ECHO_MASK = b"<config>"
# sha256 of the echoes of ExperimentConfig(preset="run1") and of run2, a
# line each. With the check that each output holds its own echo, this pins
# every echo byte.
PRESET_ECHOES = "95997eeb9b3e2e89cfb510814b7d2b6eb0bf94680330908bf7202936d71aa00b"


def _preset_echoes() -> str:
    lines = (json.dumps(ExperimentConfig(preset=p).to_dict(), sort_keys=True) + "\n"
             for p in ("run1", "run2"))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _assert_pinned(command: str, out: Path) -> None:
    """Run `command` into `out` and check each output against its pin."""
    argv = [*command.split(), "--out", str(out)]
    assert run_cli(*argv) == 0
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    echo = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    got = {}
    for path in sorted(out.iterdir()) if out.is_dir() else [out]:
        data = path.read_bytes()
        held = data.count(echo)
        assert held == (path.name != "key.csv"), f"{command}: {path.name} holds its echo {held}x"
        if path.name != "report.json":
            got[path.name] = hashlib.sha256(data.replace(echo, ECHO_MASK)).hexdigest()
    want = GOLDEN_OUTPUTS[command]
    want = {out.name: want} if isinstance(want, str) else want
    moved = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not moved, "\n".join(f"{command}: {name} now hashes to {got.get(name)}" for name in moved)


@pytest.mark.parametrize("command", sorted(GOLDEN_OUTPUTS))
def test_every_output_is_pinned_with_its_config_echo_masked(tmp_path, command):
    _assert_pinned(command, tmp_path / "out")


def test_the_preset_config_echoes_are_pinned():
    got = _preset_echoes()
    assert got == PRESET_ECHOES, f"the preset echoes now hash to {got}"


def test_a_new_setting_moves_only_the_preset_echo_pin(tmp_path, monkeypatch):
    to_dict = ExperimentConfig.to_dict

    def with_a_new_key(cfg):
        data = to_dict(cfg)
        data["security"]["a_new_setting"] = 0.5
        return data

    monkeypatch.setattr(ExperimentConfig, "to_dict", with_a_new_key)
    commands = [
        "sweep --preset run1 --format csv",
        "report --preset run2 --loss 0 --nbar 0.01",
        "linkbudget --preset run2 --medium openair-300K --format json",
        "protocol --preset run1 --seed 7 --nbar 1.7e-06 --announce-bases",
    ]
    for i, command in enumerate(commands):
        _assert_pinned(command, tmp_path / str(i))
    assert _preset_echoes() != PRESET_ECHOES


def test_report_command_stdout(capsys):
    assert run_cli("report", "--preset", "run2", "--nbar", "1.7e-6") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["asymptotic_key_bits"] == pytest.approx(0.8103797032259793)
    assert data["inputs"]["config"]["preset"] == "run2"


def test_report_ablation_flags(capsys):
    assert run_cli("report", "--preset", "run2", "--nbar", "1.7e-6",
                   "--no-delta", "--no-pe") == 0
    data = json.loads(capsys.readouterr().out)
    fs = data["finite_size"]
    assert fs["delta_bits"] == 0.0
    assert fs["include_estimation_penalty"] is False
    assert fs["bits_per_symbol"] == pytest.approx(0.8103797032259793, rel=1e-9)


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test oracle only: a fresh interpreter running every
    # command must never load it
    done = _fresh_interpreter("-c", f"""
import sys
from mwqkd import cli
out = {str(tmp_path)!r}
assert cli.main(["sweep", "--out", out + "/sweep.csv"]) == 0
assert cli.main(["sweep", "--format", "json", "--out", out + "/sweep.json"]) == 0
assert cli.main(["report", "--out", out + "/report.json"]) == 0
assert cli.main(["linkbudget", "--out", out + "/lb.csv"]) == 0
assert cli.main(["protocol", "--n-symbols", "2000", "--out", out + "/run"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
""")
    assert done.returncode == 0, done.stderr.decode()


def test_scalar_commands_run_without_numpy(tmp_path):
    # importing the CLI registers every layer module but runs none of the
    # numpy ones, the CSV float kernel included; help, linkbudget and
    # report stay on Python floats and str, and the array commands load
    # numpy when used; no command runs the covariance oracle, and only a
    # read-back loads the key.csv reader;
    # `statistics` (for the confidence factor w) waits for the first w
    done = _fresh_interpreter("-c", f"""
import contextlib
import io
import sys
import types

from mwqkd import cli

def numpy_modules():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))

def oracle_idle():
    # a lazily registered module turns into a plain module when its body runs
    return type(sys.modules["mwqkd.gaussian"]) is not types.ModuleType

layers = ("gaussian", "devices", "security", "linkbudget", "protocol", "stats", "cli", "config")
missing = [m for m in layers if "mwqkd." + m not in sys.modules]
assert not missing, missing
assert not numpy_modules(), numpy_modules()
assert "mwqkd._floatrepr" not in sys.modules
assert "statistics" not in sys.modules
# pickle comes in with numpy; the scalar commands load neither
assert "pickle" not in sys.modules

out = {str(tmp_path)!r}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    assert cli.main(["linkbudget", "--out", out + "/lb.csv"]) == 0
    assert cli.main(["linkbudget", "--medium", "openair-300K", "--format", "json",
                     "--out", out + "/lb.json"]) == 0
    assert oracle_idle()
    assert "statistics" not in sys.modules
    assert cli.main(["report", "--out", out + "/report.json"]) == 0
    assert oracle_idle()
assert not numpy_modules(), numpy_modules()
assert "mwqkd._floatrepr" not in sys.modules
assert "pickle" not in sys.modules

assert cli.main(["sweep", "--out", out + "/sweep.csv"]) == 0
assert oracle_idle()
assert "numpy" in sys.modules
assert "mwqkd._floatrepr" in sys.modules
# the key.csv reader is compiled only where a transcript is read
assert "mwqkd._floatparse" not in sys.modules
assert cli.main(["protocol", "--n-symbols", "2000", "--out", out + "/run"]) == 0
assert oracle_idle()
assert "mwqkd._floatparse" not in sys.modules

import mwqkd
channel = mwqkd.ChannelParams(0.0115, 1e-3)
mean, variance = mwqkd.bob_output_distribution(mwqkd.RUN1_CHAIN, channel, 1.0)
slope, noise = mwqkd.response_and_noise(mwqkd.RUN1_CHAIN, channel)
assert abs(mean - slope) <= 1e-9 * slope and abs(variance - noise) <= 1e-9 * noise
""")
    assert done.returncode == 0, done.stderr.decode()


# Package constants of __all__, by defining module; classes and functions
# name theirs in __module__.
_CONSTANT_OWNERS = {
    "CHAIN_PRESETS": "config",
    "DEFAULT_CHANNEL_LOSS": "config",
    "DEFAULT_N_RAW": "config",
    "RUN1_CHAIN": "config",
    "RUN2_CHAIN": "config",
    "CRYO_LINK": "linkbudget",
    "MEDIA": "linkbudget",
    "OPEN_AIR": "linkbudget",
    "VACUUM_VARIANCE": "devices",
}


# The hand-kept __all__ the derived one replaced.
_PUBLIC_NAMES = set("""
    CHAIN_PRESETS CRYO_LINK DEFAULT_CHANNEL_LOSS DEFAULT_N_RAW MEDIA OPEN_AIR RUN1_CHAIN
    RUN2_CHAIN VACUUM_VARIANCE ChannelEstimate ChannelParams Codebook CompositeKeyBound
    DeviceChainParams ExperimentConfig GaussianState Histogram InsufficientDataError
    KeyRecord MediumSpec PhysicalityError ReadoutModel SecurityReport analyze
    apply_beamsplitter apply_loss apply_phase_sensitive_amp apply_squeeze asymptotic_key
    bob_output_distribution bootstrap_mi_sigma build_histogram build_report
    codebook_variance composite_key condition_on_classical_gaussian confidence_w
    config_from_dict displace distance_limit distance_to_loss efficiency_to_noise
    empirical_mutual_information estimate_channel finite_size_delta
    gaussian_bin_probabilities generate_codebook hellinger_from_coefficient
    histogram_vs_gaussian holevo_dr key_manifest level_to_variance load_config
    loss_to_distance make_thermal make_vacuum max_tolerable_loss mutual_information
    noise_crossing noise_tolerance partial_trace predicted_estimate raw_key_rate
    read_key_records response_and_noise sift simulate_transmission snr sweep_noise
    sweep_occupancy symplectic_eigenvalues tensor thermal_occupancy
    trusted_readout_constants two_mode_squeezed_thermal von_neumann_entropy
    write_key_records
""".split())


def test_package_namespace_is_whole():
    assert len(_PUBLIC_NAMES) == 77
    assert set(mwqkd.__all__) == _PUBLIC_NAMES
    assert len(mwqkd.__all__) == len(_PUBLIC_NAMES)
    for name in mwqkd.__all__:
        value = getattr(mwqkd, name)
        if name in _CONSTANT_OWNERS:
            owner = sys.modules["mwqkd." + _CONSTANT_OWNERS[name]]
        else:
            owner = sys.modules[value.__module__]
        assert getattr(owner, name) is value, name
        assert not isinstance(value, type(sys)), name
    assert set(mwqkd.__all__) <= set(dir(mwqkd))
    star: dict = {}
    exec("from mwqkd import *", star)
    assert all(star[name] is getattr(mwqkd, name) for name in mwqkd.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        mwqkd.no_such_name
    # each piece the numpy and numpy-free modules share has one definition
    from mwqkd import devices, gaussian

    assert proto.ChannelEstimate is devices.ChannelEstimate
    assert gaussian.entropy_of_nu is security.entropy_of_nu
    assert gaussian.VACUUM_VARIANCE is devices.VACUUM_VARIANCE
    assert gaussian.PHYSICALITY_TOL is security.PHYSICALITY_TOL


def test_every_export_resolves_through_its_owner(monkeypatch):
    from mwqkd import config

    asymptotic_key, run1 = object(), object()
    monkeypatch.setattr(security, "asymptotic_key", asymptotic_key)
    monkeypatch.setattr(config, "RUN1_CHAIN", run1)
    assert mwqkd.asymptotic_key is asymptotic_key
    assert mwqkd.RUN1_CHAIN is run1
    # a layer module too: a lazy one always, an imported one once the
    # binding the import system left on the package is gone
    assert mwqkd.stats is stats
    monkeypatch.delattr(mwqkd, "security")
    assert mwqkd.security is security
    assert set(mwqkd._EXPORTS) <= set(dir(mwqkd))
    # a bare import loads no layer; each resolves on first read, and the
    # numpy ones stay unrun
    done = _fresh_interpreter("-c", """
import sys
import types

import mwqkd

layers = ("config", "devices", "errors", "linkbudget", "security")
assert not [m for m in layers if "mwqkd." + m in sys.modules]
for layer in layers:
    assert getattr(mwqkd, layer) is sys.modules["mwqkd." + layer], layer
assert mwqkd.security.key_settings(n_raw=16665)["n_raw"] == 16665
for layer in ("gaussian", "protocol", "stats"):
    assert getattr(mwqkd, layer) is sys.modules["mwqkd." + layer], layer
    assert type(sys.modules["mwqkd." + layer]) is not types.ModuleType, layer
assert "numpy" not in sys.modules
""")
    assert done.returncode == 0, done.stderr.decode()


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "mwqkd.security.key_settings(" in example
    done = _fresh_interpreter("-c", example)
    assert done.returncode == 0, done.stderr.decode()


def test_benchmark_tracer_targets_exist():
    # perfbench/tracer.py (read here, not imported) wraps each (layer,
    # attribute) of TRACED and counts the lines of each LAYERS module; a
    # renamed or deleted target would break `perfbench/run.py --trace 1`
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in
        ("TRACED", "LAYERS")
    }
    assert tables["TRACED"] and tables["LAYERS"]
    for layer, attr in tables["TRACED"]:
        assert hasattr(importlib.import_module(f"mwqkd.{layer}"), attr), f"{layer}.{attr}"
    assert "__post_init__" in mwqkd.GaussianState.__dict__
    # the oracle's chain lives in gaussian; devices binds its entry point
    # for the tracer, and only that name
    from mwqkd import devices, gaussian

    assert ("devices", "bob_output_distribution") in tables["TRACED"]
    assert devices.bob_output_distribution is gaussian.bob_output_distribution
    assert not hasattr(devices, "channel_input_state")
    for layer in tables["LAYERS"]:
        assert Path(mwqkd.__file__).with_name(f"{layer}.py").is_file(), layer


def test_the_public_surface_is_what_the_program_runs():
    # `bench/unreached.py --names` lists the public names that no code in
    # src/, bench/ or perfbench/ names; these six are kept for a stated use
    # (ROADMAP Housekeeping), and any other is dead or needs its reason there
    script = Path(__file__).resolve().parents[1] / "bench" / "unreached.py"
    done = subprocess.run([sys.executable, str(script), "--names"], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *lines, summary = done.stdout.splitlines()
    listed = {re.fullmatch(r"src/mwqkd/(\w+)\.py:\d+: (\w+)( \(oracle\))?", line).group(1, 2)
              for line in lines}
    assert listed == {
        ("gaussian", "make_vacuum"), ("gaussian", "two_mode_squeezed_thermal"),
        ("gaussian", "partial_trace"), ("linkbudget", "distance_to_loss"),
        ("linkbudget", "distance_limit"), ("security", "predicted_estimate"),
    }
    assert summary.startswith(f"{len(lines)} public names")


# What only the key.csv and float-table kernels know: their block sizes,
# the reader's pad before a block, and the functions of one block.
_KERNELS = {"_floatrepr", "_floatparse"}
_KERNEL_PRIVATE = {
    "BLOCK_CELLS", "PAD", "_PAD", "READ_BLOCK", "_READ_BLOCK", "key_rows", "key_columns",
    "table_rows",
}


def _kernel_names_read(source: str) -> set:
    """The names a module's source reads from either kernel: as attributes
    of the kernel module, under any alias, or by ``from ... import``."""
    tree = ast.parse(source)
    modules, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _KERNELS:  # from . import _floatrepr
                    modules.add(alias.asname or alias.name)
                elif (node.module or "").split(".")[-1] in _KERNELS:
                    read.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            read.add(node.attr)
    return read


def test_key_csv_layout_is_known_to_the_kernels_only():
    # key.csv's blocks, read buffer and basis-pair code live in _floatrepr
    # and _floatparse; every other module calls their whole-file entry points
    package = Path(mwqkd.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem not in _KERNELS:
            read = _kernel_names_read(path.read_text())
            assert not read & _KERNEL_PRIVATE, (path.name, sorted(read & _KERNEL_PRIVATE))
    assert _kernel_names_read("from . import _floatrepr as f\nf.BLOCK_CELLS") == {"BLOCK_CELLS"}
    assert _kernel_names_read("from ._floatparse import PAD") == {"PAD"}
    # the column names and labels have one definition
    assert proto.KEY_CSV_COLUMNS is _floatrepr.KEY_CSV_COLUMNS
    assert proto.BASIS_LABELS is _floatrepr.BASIS_LABELS


_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


def test_each_model_rule_has_one_owner():
    # a command wires the config's channel and seeds to the devices' record
    # variance and coupling; it computes no model quantity itself
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {node.name for node in commands} == {f"cmd_{name}" for name in cli._COMMANDS}
    for command in commands:
        arithmetic = [ast.unparse(node) for node in ast.walk(command)
                      if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITHMETIC)]
        assert not arithmetic, (command.name, arithmetic)
    # a run's analysis is protocol.analyze's: the commands name none of its steps
    source = Path(cli.__file__).read_text()
    for name in ("estimate_channel", "empirical_mutual_information", "build_histogram",
                 "histogram_vs_gaussian", "hellinger_from_coefficient", "record_variance"):
        assert not re.search(rf"\b{name}\b", source), name
    # the estimate's inverse of the readout is the readout model's, and
    # the streams' seeds are the config's
    package = Path(mwqkd.__file__).parent
    assert "VACUUM_VARIANCE" not in (package / "protocol.py").read_text()
    for path in sorted(package.glob("*.py")):
        if path.stem != "config":
            assert not re.search(r"seed \+ [12]\b", path.read_text()), path.name


def _raisers(module, word: str) -> set:
    """The functions of `module` that raise a message naming `word`."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Raise) and re.search(rf"\b{word}\b", ast.unparse(node))}


def test_each_setting_rule_has_one_owner():
    from mwqkd import config, linkbudget

    # a finite-size setting's default is key_settings' alone, and the EC
    # fraction's ec_block's: the config's field defaults to None and
    # resolves through its owner
    parameters = inspect.signature(security.key_settings).parameters.values()
    names = [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]
    assert sorted(names) == sorted(
        {"e_ec", "beta_ec", "p_ec", "include_delta", "include_estimation_penalty"})
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    unset = (*names, "n_ec_fraction", "chain")
    assert {name: defaults[name] for name in unset} == dict.fromkeys(unset)
    source = Path(config.__file__).read_text()
    assert "DEFAULT_CORRECTNESS_EPSILON" not in source
    assert not re.search(r"\b0\.5\b", source)
    resolved = ExperimentConfig()
    assert {name: getattr(resolved, name) for name in names} == {
        name: security.key_settings(16665)[name] for name in names}
    fraction = inspect.signature(security.ec_block).parameters["n_ec_fraction"].default
    assert resolved.n_ec_fraction == fraction
    assert resolved.key_settings["n_ec"] == security.ec_block(16665)
    # each domain is checked by its layer once: e_ec for key_settings and w
    # alike, the EC fraction by ec_block, the bandwidth and the attenuation
    # by linkbudget
    assert _raisers(security, "e_ec") == {"_e_ec_tail"}
    assert not _raisers(security, "correctness_epsilon")
    assert _raisers(security, "n_ec_fraction") == {"ec_block"}
    assert _raisers(linkbudget, "bandwidth_hz") == {"_check_bandwidth"}
    assert _raisers(linkbudget, "attenuation_db_per_m") == {"_check_attenuation"}
    for word in (*names, "n_ec_fraction", "bandwidth_hz", "n_symbols"):
        assert not _raisers(config, word), word
    # the preset's chain is the config's: the CLI names CHAIN_PRESETS only
    # for --preset's choices
    tree = ast.parse(Path(cli.__file__).read_text())
    [flags] = [node.value for node in tree.body
               if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_FLAGS"]
    [preset_flag] = [value for key, value in zip(flags.keys, flags.values)
                     if ast.literal_eval(key) == "--preset"]
    [choices] = [keyword.value for keyword in preset_flag.keywords if keyword.arg == "choices"]
    named = [node for node in ast.walk(tree)
             if "CHAIN_PRESETS" in (getattr(node, "id", None), getattr(node, "attr", None))]
    in_choices = [node for node in ast.walk(choices)
                  if getattr(node, "id", None) == "CHAIN_PRESETS"]
    assert len(in_choices) == 1 and named == in_choices
    assert not re.search(r"\bRUN[12]_CHAIN\b", Path(cli.__file__).read_text())
    for preset, chain in mwqkd.CHAIN_PRESETS.items():
        assert ExperimentConfig(preset=preset).chain == chain
        args = cli.build_parser().parse_args(["report", "--preset", preset])
        assert cli.resolve_config(args) == ExperimentConfig(preset=preset)


def test_finite_and_nonnegative_has_one_raiser():
    # every photon number and error bar, of the chain, the channel, its
    # estimate, the background, the config's grids and the oracle's
    # states, is refused by one function, whose message names the value
    from mwqkd import config, devices, gaussian, linkbudget

    raisers = {module.__name__: _raisers(module, "finite and >= 0")
               for module in (devices, linkbudget, config, gaussian, security, proto, stats, cli)}
    assert raisers.pop("mwqkd.devices") == {"check_nonnegative"}
    assert not any(raisers.values()), raisers


def test_commands_read_only_the_config_and_their_output_flags():
    # every setting reaches a command through ExperimentConfig: a flag's
    # destination is a config field or one of the flags below
    outputs = {"out", "out_format"}
    for flag, keywords in cli._FLAGS.items():
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        assert dest in {*CONFIG_SCHEMA, *outputs, "config", "preset"}, flag
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {node.name for node in commands} == {f"cmd_{name}" for name in cli._COMMANDS}
    for command in commands:
        args = command.args.args[1].arg
        names = [node for node in ast.walk(command)
                 if isinstance(node, ast.Name) and node.id == args]
        read = [node.attr for node in ast.walk(command)
                if isinstance(node, ast.Attribute) and node.value in names]
        # args is only ever read as args.out or args.out_format, never passed on
        assert len(read) == len(names) and set(read) <= outputs, (command.name, read)


_ESTIMATE = dict(loss=0.01, loss_sigma=1e-3, noise_photons=0.0, noise_sigma=1e-3, samples=100)
_UNMODULATED = DeviceChainParams(0.0, 0.0, 0.65, 19.1)

# Refusals no other test reaches: call -> its ValueError's message.
_REFUSALS = {
    "security.predicted_estimate-unmodulated": (
        lambda: security.predicted_estimate(_UNMODULATED, ChannelParams(0.01), 100),
        "an unmodulated chain (zero codebook variance) cannot estimate the channel"),
    "security.predicted_estimate-samples<2": (
        lambda: security.predicted_estimate(mwqkd.RUN1_CHAIN, ChannelParams(0.01), 1),
        "samples must be >= 2"),
    "security.key_settings-n_raw<4": (
        lambda: security.key_settings(3), "n_raw (the symbol count N) must be >= 4, got 3"),
    "security.key_settings-n_ec=0": (
        lambda: security.key_settings(100, 0), "n_ec must be in 1..sifted length"),
    "security.key_settings-n_ec>sifted": (
        lambda: security.key_settings(100, 51), "n_ec must be in 1..sifted length"),
    "security.sweep_noise-2d": (
        lambda: security.sweep_noise(mwqkd.RUN1_CHAIN, 0.01, [[0.0]]),
        "nbars must be a 1-D grid"),
    "devices.level_to_variance-inf": (
        lambda: mwqkd.level_to_variance(math.inf, "squeezed"), "level_db must be finite"),
    "devices.path_loss=1": (
        lambda: replace(mwqkd.RUN1_CHAIN, path_losses=(0.0, 1.0, 0.0, 0.0)),
        "path loss must be in [0, 1)"),
    "devices.ChannelEstimate-sigma<0": (
        lambda: ChannelEstimate(**{**_ESTIMATE, "noise_sigma": -1e-3}),
        "noise_sigma must be finite and >= 0, got -0.001"),
    # a NaN or infinite error bar is refused before any chi is taken of it
    "devices.ChannelEstimate-loss_sigma=nan": (
        lambda: ChannelEstimate(**{**_ESTIMATE, "loss_sigma": math.nan}),
        "loss_sigma must be finite and >= 0, got nan"),
    "devices.ChannelEstimate-loss_sigma=inf": (
        lambda: ChannelEstimate(**{**_ESTIMATE, "loss_sigma": math.inf}),
        "loss_sigma must be finite and >= 0, got inf"),
    "devices.ChannelEstimate-noise_sigma=nan": (
        lambda: ChannelEstimate(**{**_ESTIMATE, "noise_sigma": math.nan}),
        "noise_sigma must be finite and >= 0, got nan"),
    "devices.ChannelEstimate-noise_sigma=inf": (
        lambda: ChannelEstimate(**{**_ESTIMATE, "noise_sigma": math.inf}),
        "noise_sigma must be finite and >= 0, got inf"),
    "devices.hemt_noise_photons<0": (
        lambda: replace(mwqkd.RUN1_CHAIN, hemt_noise_photons=-1),
        "hemt_noise_photons must be finite and >= 0, got -1.0"),
    "devices.path_environment_photons<0": (
        lambda: replace(mwqkd.RUN1_CHAIN, path_environment_photons=(0.0, 0.0, -0.5, 0.0)),
        "path_environment_photons must be finite and >= 0, got -0.5"),
    "devices.ChannelEstimate-nan": (
        lambda: ChannelEstimate(**{**_ESTIMATE, "loss": math.nan}), "estimates must be finite"),
    "linkbudget.max_tolerable_loss-background<0": (
        lambda: mwqkd.max_tolerable_loss(mwqkd.RUN1_CHAIN, -2.0),
        "background_photons must be finite and >= 0, got -2.0"),
    "linkbudget.MediumSpec-background=nan": (
        lambda: mwqkd.MediumSpec(1e-3, math.nan, "bad"),
        "background_photons must be finite and >= 0, got nan"),
    "linkbudget.MediumSpec-attenuation=0": (
        lambda: mwqkd.MediumSpec(0.0, 1.0, "lossless"), "attenuation_db_per_m must be > 0"),
    "linkbudget.loss_to_distance-attenuation=0": (
        lambda: mwqkd.loss_to_distance(0.1, 0.0), "attenuation_db_per_m must be > 0"),
    "linkbudget.distance_to_loss-attenuation=0": (
        lambda: mwqkd.distance_to_loss(1.0, 0.0), "attenuation_db_per_m must be > 0"),
    "linkbudget.loss_to_distance-loss=1": (
        lambda: mwqkd.loss_to_distance(1.0, 1e-3), "loss must be in [0, 1), got 1.0"),
    "linkbudget.distance_to_loss-distance<0": (
        lambda: mwqkd.distance_to_loss(-1.0, 1e-3), "distance_m must be >= 0"),
    "protocol.Codebook-unequal": (
        lambda: proto.Codebook(np.zeros(2), np.zeros(3, np.int8), 1.0),
        "symbols and bases must have equal length"),
    "protocol.KeyRecord-unequal": (
        lambda: proto.KeyRecord(np.zeros(2), np.zeros(3, np.int8), np.zeros(2, np.int8),
                                np.zeros(2)),
        "all record columns must have equal length"),
    "protocol.estimate_channel-2d": (
        lambda: proto.estimate_channel(np.ones((40, 2)), np.ones((40, 2)), mwqkd.RUN1_CHAIN),
        "alpha and beta must be 1-D arrays of equal length"),
    "stats.Histogram-count<0": (
        lambda: stats.Histogram(np.array([0.0, 1.0]), np.array([-1])), "counts must be >= 0"),
    "stats.build_histogram-empty": (
        lambda: stats.build_histogram([]), "need at least one sample"),
    "stats.hellinger_from_coefficient-1.5": (
        lambda: stats.hellinger_from_coefficient(1.5), "coefficient must be in [0, 1]"),
    "config.ExperimentConfig-preset": (
        lambda: ExperimentConfig(preset="nope"), "unknown preset 'nope'"),
    "config.ExperimentConfig-no-chain": (
        lambda: ExperimentConfig(preset=None),
        "config needs a preset or explicit chain parameters"),
    "security.ec_block-0": (
        lambda: security.ec_block(16665, 0.0), "n_ec_fraction must be in (0, 1)"),
    "security.ec_block-negative": (
        lambda: security.ec_block(16665, -0.1), "n_ec_fraction must be in (0, 1)"),
    "security.ec_block-1": (
        lambda: security.ec_block(16665, 1.0), "n_ec_fraction must be in (0, 1)"),
    "linkbudget.raw_key_rate-inf": (
        lambda: mwqkd.raw_key_rate(mwqkd.RUN1_CHAIN, ChannelParams(0.9), math.inf),
        "bandwidth_hz must be finite and > 0, got inf"),
    "linkbudget.raw_key_rate-nan": (
        lambda: mwqkd.raw_key_rate(mwqkd.RUN1_CHAIN, ChannelParams(0.9), math.nan),
        "bandwidth_hz must be finite and > 0, got nan"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals_name_what_they_refuse(case):
    call, message = _REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_seed_outside_the_philox_key_range_exits_2_before_writing(tmp_path, capsys):
    # the run keys Philox with seed, seed + 1 and seed + 2, all below 2**128
    for seed in (-1, MAX_SEED + 1):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=seed)
        out = tmp_path / str(seed)
        assert run_cli("protocol", "--seed", str(seed), "--n-symbols", "200",
                       "--out", str(out)) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
    assert MAX_SEED == 2**128 - 3
    assert run_cli("protocol", "--seed", str(MAX_SEED), "--n-symbols", "200",
                   "--out", str(tmp_path / "max")) == 0
    manifest = json.loads((tmp_path / "max" / "manifest.json").read_text())
    assert manifest["codebook_seed"] == MAX_SEED
    assert manifest["transmission_seed"] == MAX_SEED + 1
    top = ExperimentConfig(seed=MAX_SEED)
    assert (top.transmission_seed, top.bootstrap_seed) == (2**128 - 2, 2**128 - 1)
    assert ExperimentConfig(seed=0).seed == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--no-pe", "--e-ec", "0.7"),
        ("report", "--no-pe", "--e-ec", "-1"),
        ("report", "--e-ec", "0.5"),
        ("report", "--e-ec", "nan"),
        ("sweep", "--no-pe", "--e-ec", "0.7"),
        ("sweep", "--beta", "1.5"),
        ("protocol", "--no-pe", "--e-ec", "0.7", "--n-symbols", "200"),
        ("protocol", "--beta", "0", "--n-symbols", "200"),
    ],
    ids=lambda argv: "_".join(argv[:4]),
)
def test_security_settings_are_checked_whatever_the_penalty_flags(tmp_path, capsys, argv):
    # e_ec is used only with the estimation penalty, yet out of range it is
    # a bad configuration either way: exit 2, and nothing is written
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert "must be in" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_security_settings_out_of_range():
    for kwargs, message in (
        ({"e_ec": 0.7}, "e_ec"),
        ({"e_ec": 0.0}, "e_ec"),
        ({"e_ec": 0.7, "include_estimation_penalty": False}, "e_ec"),
        ({"beta_ec": 1.01}, "beta_ec"),
        ({"beta_ec": 0.0}, "beta_ec"),
        ({"p_ec": -0.5}, "p_ec"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)
    with pytest.raises(ValueError, match="p_ec"):
        config_from_dict({"preset": "run1", "security": {"p_ec": 2.0}})
    ExperimentConfig(e_ec=0.49, beta_ec=1.0, p_ec=1.0)


def test_key_settings_are_derived_not_a_field():
    cfg = ExperimentConfig(n_symbols=16670, n_ec_fraction=0.25)
    assert cfg.key_settings == security.key_settings(16670, security.ec_block(16670, 0.25))
    assert "key_settings" not in {f.name for f in fields(cfg)}
    assert "key_settings" not in asdict(cfg) and "key_settings" not in str(cfg.to_dict())
    # equality sees only the fields; a replaced config resolves again
    assert cfg == config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert replace(cfg, n_ec_fraction=0.5).key_settings == security.key_settings(16670)


_SECURITY = {
    "e_ec": st.floats(1e-16, 0.5, exclude_max=True),
    "beta_ec": st.floats(0.0, 1.0, exclude_min=True),
    "p_ec": st.floats(0.0, 1.0, exclude_min=True),
    "n_ec_fraction": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "include_delta": st.booleans(),
    "include_estimation_penalty": st.booleans(),
}
_LEVELS = {"squeezing_db", "antisqueezing_db"}
_REQUIRED_CHAIN = {*_LEVELS, "quantum_efficiency", "measurement_gain_db"}


@st.composite
def _documents(draw):
    """A config document: a preset or none, chain keys (the whole chain
    without a preset), N and any subset of the security settings."""
    preset = draw(st.sampled_from(["run1", "run2", None]))
    chain = {key: list(value) if isinstance(value, tuple) else value
             for key, value in asdict(draw(_chains())).items()}
    keys = draw(st.sets(st.sampled_from(sorted(chain))))
    if preset is None:
        keys |= _REQUIRED_CHAIN
    if keys & _LEVELS:  # anti-squeezing at or above squeezing
        keys |= _LEVELS
    return {
        "preset": preset,
        "chain": {key: chain[key] for key in keys},
        "n_symbols": draw(st.integers(4, 10**7)),
        "security": draw(st.fixed_dictionaries({}, optional=_SECURITY)),
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=_documents())
@example(doc={"preset": "run2", "chain": {}, "n_symbols": 16665, "security": {}})
@example(doc={"preset": "run1", "chain": {"path_losses": [0.0, 0.1, 0.0, 0.0]},
              "n_symbols": 4, "security": {"n_ec_fraction": 1e-300, "e_ec": 1e-16}})
def test_a_config_round_trips_and_resolves_through_the_owners(doc):
    cfg = config_from_dict(doc)
    # the echo parses back to the config, in memory and through JSON text
    assert config_from_dict(cfg.to_dict()) == cfg
    assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    # the chain is the preset's with the chain keys over it, or those keys
    preset, chain = doc["preset"], doc["chain"]
    want = (DeviceChainParams(**chain) if preset is None
            else replace(mwqkd.CHAIN_PRESETS[preset], **chain))
    assert cfg.chain == want
    # the settings are the library's, given only the ones the document set
    n, given = doc["n_symbols"], dict(doc["security"])
    fraction = [given.pop("n_ec_fraction")] if "n_ec_fraction" in given else []
    library = security.key_settings(n, security.ec_block(n, *fraction), **given)
    assert cfg.key_settings == library
    # each field holds its resolved value
    fields_set = library.keys() - {"n_raw", "n_ec"}
    assert {name: getattr(cfg, name) for name in fields_set} == {
        name: library[name] for name in fields_set}
    # and the constructor resolves the same config from the same inputs
    assert cfg == ExperimentConfig(preset=preset, chain=want if chain else None,
                                   n_symbols=n, **doc["security"])


def _booked_report(*argv) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli("report", "--no-pe", *argv) == 0
    return json.loads(stdout.getvalue())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(4, 10**7),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(n=16670, fraction=0.5)
@example(n=7, fraction=0.5)
@example(n=4, fraction=1e-300)
@example(n=10**7, fraction=math.nextafter(1.0, 0.0))
def test_report_books_the_library_ec_block(n, fraction):
    # the CLI books what key_settings gives for the shared EC-block rule
    data = _booked_report("--n-symbols", str(n), "--n-ec-fraction", repr(fraction))
    want = security.key_settings(
        n, security.ec_block(n, fraction), include_estimation_penalty=False
    )
    assert {name: data["inputs"][name] for name in want} == want
    booked = data["finite_size"]
    assert (booked["n_raw"], booked["n_sifted"], booked["n_ec"], booked["n_estimation"]) == (
        n, n // 2, want["n_ec"], n // 2 - want["n_ec"]
    )
    if fraction == 0.5:
        assert want["n_ec"] == security.key_settings(n)["n_ec"] == n // 2 // 2


def test_report_books_the_library_n_ec_at_16670():
    # half the sifted 8335 is 4167.5; the library floors it
    data = _booked_report("--n-symbols", "16670")
    library = security.build_report(
        mwqkd.RUN1_CHAIN, ChannelParams(DEFAULT_CHANNEL_LOSS, 0.0), n_raw=16670,
        include_estimation_penalty=False,
    )
    assert data["finite_size"]["n_ec"] == library.finite_size.n_ec == 4167
    assert data["inputs"]["n_ec"] == 4167


@pytest.mark.parametrize(
    "argv", [("report", "--no-pe"), ("report",), ("sweep",), ("protocol",)], ids="_".join
)
def test_an_e_ec_that_rounds_1_minus_2e_to_1_exits_2_before_writing(tmp_path, capsys, argv):
    # w = sqrt(2) erfinv(1 - 2 e_ec) needs 1 - 2 e_ec < 1 in floats: the
    # config refuses it before a command writes anything
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert run_cli(*argv, "--e-ec", "1e-17", "--out", str(outdir / "result")) == 2
    err = capsys.readouterr().err
    assert "e_ec=1e-17 is too small" in err and "correctness_epsilon" not in err
    assert list(outdir.iterdir()) == []
