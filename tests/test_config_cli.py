"""Configuration parsing and the command-line surface."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
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
from mwqkd import cli, security, stats
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
from mwqkd.devices import ChannelParams
from mwqkd.errors import InsufficientDataError

from test_protocol import _repr_cases, _traced_peak
from test_security import count_calls, merge_point


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


def test_config_grid_shorthand():
    cfg = config_from_dict(
        {"preset": "run1", "noise_grid": {"start": 0.0, "stop": 0.1, "num": 5}}
    )
    assert cfg.noise_grid == pytest.approx((0.0, 0.025, 0.05, 0.075, 0.1))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ValueError, match="invalid JSON"):
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


def test_float_csv_is_the_str_csv_across_blocks(tmp_path):
    # every case of the digit kernel, in five columns over many blocks
    cases = np.concatenate([_repr_cases(), [math.inf, -math.inf, math.nan]])
    columns = cases[: cases.size // 5 * 5].reshape(5, -1)
    header = ("a", "b", "c", "d", "e")
    cli._write_float_csv(tmp_path / "kernel.csv", header, columns, {"n": columns.shape[1]})
    cli._write_csv(tmp_path / "str.csv", header, zip(*columns.tolist()), {"n": columns.shape[1]})
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "str.csv").read_bytes()


def test_sweep_table_memory_is_flat_in_the_grid(tmp_path):
    # beyond the sweep's arrays the CSV writer holds one block of rows
    cfg = ExperimentConfig()
    peaks = []
    for n in (10**4, 10**5):
        columns = _sweep_columns(cfg, tuple(np.linspace(0.0, 0.1, n).tolist()))
        _, peak = _traced_peak(
            cli._write_float_csv, tmp_path / f"{n}.csv", SWEEP_HEADER.split(","), columns, {}
        )
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

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return bootstrap(*args)

    monkeypatch.setattr(stats, "bootstrap_mi_sigma", logged)
    return log


def test_a_bootstrap_that_raises_in_the_child_is_the_in_process_raise(tmp_path, monkeypatch):
    argv = ("protocol", "--n-symbols", "2000")
    whole = _run(argv, tmp_path / "whole")[3]

    def fails(*args):
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

    def fails(*args):
        raise error("the bootstrap failed")

    monkeypatch.setattr(stats, "bootstrap_mi_sigma", fails)
    forked = _run(argv, tmp_path / "forked")
    monkeypatch.delattr(os, "fork")
    assert _run(argv, tmp_path / "in process") == forked
    assert forked == (
        code, "", "error: the bootstrap failed\n",
        {name: whole[name] for name in ("key.csv", "manifest.json")},
    )


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

    def slow_in_the_child(*args):
        if os.getpid() != parent:
            time.sleep(0.5)
        return bootstrap(*args)

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
        (("report", "--n-symbols", "3"), None, "n_symbols must be >= 4"),
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
    # the Illinois points, so these counts follow g(nu)'s rounding
    calls = count_calls(monkeypatch, "asymptotic_key", security, mwqkd.linkbudget)
    assert run_cli("linkbudget", "--preset", preset, "--medium", medium,
                   "--out", str(tmp_path / "lb.csv")) == 0
    assert len(calls) == evals


# sha256 of the linkbudget outputs, recorded before the reach sweep was
# warm-started. A root estimate may only save key evaluations. The two
# cryo JSON files were re-recorded when g(nu) became one cancellation-free
# form: only `raw_key_rate_bits_per_s` moved, in its last digit.
GOLDEN_LINKBUDGETS = {
    ("run1", "cryo-15mK", "csv"): "8b1c89c9a03f88a80a9724ab7aab28b1226b1296434dd2e1f1381d3e96509fe1",
    ("run1", "cryo-15mK", "json"): "170de8f4c196d0f8449ee045cac8a82849594b2cfdada50951c8adbcace701b5",
    ("run1", "openair-300K", "csv"): "c8ecc87659e059b3f8dcbb932271a4d22054ca30886cef6ef8b8a8dc0c39a232",
    ("run1", "openair-300K", "json"): "e939c919545034f9d2900c1e9e9228a3e3d1248dc232e25e69cbee70a50cfdef",
    ("run2", "cryo-15mK", "csv"): "76e9a93316c05897d65a487759c4126fd301313cc0b8930963c5e3042829dca4",
    ("run2", "cryo-15mK", "json"): "e6c9d8fd6e513fe7498f66c753e5d26c63d73a54a02d8ffea06f391f29c3c740",
    ("run2", "openair-300K", "csv"): "b5d1cf20b3e83d16005fafd4fae6e50632f8607b92286de15ed60d7f61e9f4f6",
    ("run2", "openair-300K", "json"): "a60d5a7cc615de032fc54f581f4c5ecf96f722a6a69ce78eacd4dafeff4aa37d",
}


@pytest.mark.parametrize("preset, medium, fmt", sorted(GOLDEN_LINKBUDGETS))
def test_linkbudget_bytes_are_pinned(tmp_path, capsys, preset, medium, fmt):
    out = tmp_path / f"lb.{fmt}"
    assert run_cli("linkbudget", "--preset", preset, "--medium", medium,
                   "--format", fmt, "--out", str(out)) == 0
    capsys.readouterr()
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_LINKBUDGETS[preset, medium, fmt]


# sha256 of the report and sweep outputs, re-recorded when g(nu) became one
# cancellation-free form (only chi and the figures made from it moved, by
# at most ~1e-15 bits). The paper's point (loss 0.0115, nbar 1.7e-6) and
# a lossless channel with noise. The run1 sweeps were re-recorded when
# chi's split-branch gap lost its cancellation near full loss: chi at one
# grid point and the worst-case chi at three moved by at most 4.4e-16 bits.
GOLDEN_REPORTS = {
    ("run1", "0.0115", "1.7e-06"): "ede7ed36ce3f5f20adf7f07105f1d3ac0c95d5478688117103a7379cfbc10ce1",
    ("run1", "0", "0.01"): "2003ca377c46b7e95e7991f2bd0957f4e1a0960632455a930f6523ddfb6c0ebc",
    ("run2", "0.0115", "1.7e-06"): "3acab236816477f86c592c5b713b180f99112c1a5994c9b3bc4cdcfd0f87eb12",
    ("run2", "0", "0.01"): "e7b02be30fa6e4da11959513be775ee48c783d57acb2b5dd824bd59afe96a84b",
}
GOLDEN_SWEEPS = {
    ("run1", "csv"): "a46be873158d38d287851664f94af21ed3714100184275f95eb2bf3a1f701bc6",
    ("run1", "json"): "9e16943a35fc56df090b6f3b595ccfd0f0388b72d3fc4955505f810ca7cd0089",
    ("run2", "csv"): "ba9f5708d8f7557e0a7b3a3af3cf3bae2f7906bc0339158fa89038562ba43311",
    ("run2", "json"): "781cbaf032a506820d3ed0a1f984f2b4a78f6af7292357b94f48654474c76bd9",
}


@pytest.mark.parametrize("preset, loss, nbar", sorted(GOLDEN_REPORTS))
def test_report_bytes_are_pinned(tmp_path, preset, loss, nbar):
    out = tmp_path / "report.json"
    assert run_cli("report", "--preset", preset, "--loss", loss, "--nbar", nbar,
                   "--out", str(out)) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_REPORTS[preset, loss, nbar]


@pytest.mark.parametrize("preset, fmt", sorted(GOLDEN_SWEEPS))
def test_sweep_bytes_are_pinned(tmp_path, capsys, preset, fmt):
    out = tmp_path / f"sweep.{fmt}"
    assert run_cli("sweep", "--preset", preset, "--format", fmt, "--out", str(out)) == 0
    capsys.readouterr()
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_SWEEPS[preset, fmt]


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
    # report stay on Python floats and str, and the array commands and
    # the covariance oracle load numpy when used;
    # `statistics` (for the confidence factor w) waits for the first w
    done = _fresh_interpreter("-c", f"""
import contextlib
import io
import sys

from mwqkd import cli

def numpy_modules():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))

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
    assert "statistics" not in sys.modules
    assert cli.main(["report", "--out", out + "/report.json"]) == 0
assert not numpy_modules(), numpy_modules()
assert "mwqkd._floatrepr" not in sys.modules
assert "pickle" not in sys.modules

assert cli.main(["sweep", "--out", out + "/sweep.csv"]) == 0
assert "numpy" in sys.modules
assert "mwqkd._floatrepr" in sys.modules
assert cli.main(["protocol", "--n-symbols", "2000", "--out", out + "/run"]) == 0

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
    KeyRecord MediumSpec PhysicalityError ReadoutModel SecurityReport apply_beamsplitter
    apply_loss apply_phase_sensitive_amp apply_squeeze asymptotic_key bhattacharyya
    bhattacharyya_gaussian bob_output_distribution bootstrap_mi_sigma build_histogram
    build_report codebook_variance composite_key condition_on_classical_gaussian
    confidence_w config_from_dict displace distance_limit distance_to_loss
    efficiency_to_noise empirical_mutual_information estimate_channel finite_size_delta
    gaussian_bin_probabilities generate_codebook hellinger hellinger_from_coefficient
    histogram_vs_gaussian holevo_dr key_manifest level_to_variance load_config
    loss_to_distance make_thermal make_vacuum max_tolerable_loss mutual_information
    noise_crossing noise_tolerance partial_trace predicted_estimate raw_key_rate
    read_key_records response_and_noise sift simulate_transmission snr sweep_noise
    sweep_occupancy symplectic_eigenvalues tensor thermal_occupancy
    trusted_readout_constants two_mode_squeezed_thermal von_neumann_entropy
    worst_case_params write_key_records
""".split())


def test_package_namespace_is_whole():
    assert len(_PUBLIC_NAMES) == 80
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
    assert security._FLOAT.entropy is gaussian.entropy_of_nu
    assert gaussian.VACUUM_VARIANCE is devices.VACUUM_VARIANCE
    assert gaussian.PHYSICALITY_TOL is security.PHYSICALITY_TOL


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
    for layer in tables["LAYERS"]:
        assert Path(mwqkd.__file__).with_name(f"{layer}.py").is_file(), layer


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


# sha256 of key.csv and manifest.json of `protocol --seed 7 --nbar 1.7e-06`
# at the default N = 16 665, recorded before the draws and the key.csv
# writer went block-wise. A speed-up must keep these bytes.
GOLDEN_TRANSCRIPTS = {
    ("run1", False): (
        "a26fe9fd4fbe5f06a8fd92ff8da0ad199cc2b418fd5e2a0f1d632f706ef553d3",
        "ac5af54e2d09051bc56ff7f07aadafe696d1b216e2bda485e512a37a471260ee",
    ),
    ("run1", True): (
        "57e35eefc69d8d2c72a7f9899d1346e4ba00c61faeebad62e64602aa645d01cc",
        "a53b4ab6bb337515117cd2298a582ff174e9feca8eea623797f89339b5618ef0",
    ),
    ("run2", False): (
        "ff4315f99ca4eb2d92a76bbda44469ed9c6d1dd09bc9f8b7828826f852f419d1",
        "c76a03c856c17dd2b9cae708c76620a9da99af7f2786014f5e2f182f6d134bb5",
    ),
    ("run2", True): (
        "02a78ef55ea2d46e146f75c30948651c85913490edfd00809f5017aa5c6766dd",
        "0c271e9491b5e10f92e1f67f09a3da51a4fdae22032f38d3fc646dc63cb20dd5",
    ),
}


@pytest.mark.parametrize("preset, announce", sorted(GOLDEN_TRANSCRIPTS))
def test_protocol_transcript_bytes_are_pinned(tmp_path, capsys, preset, announce):
    # report.json is not pinned: its bootstrap sigma goes through BLAS
    out = tmp_path / "run"
    argv = ["protocol", "--preset", preset, "--seed", "7", "--nbar", "1.7e-06",
            "--out", str(out)]
    assert run_cli(*argv, *(["--announce-bases"] if announce else [])) == 0
    capsys.readouterr()
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("key.csv", "manifest.json")
    )
    assert got == GOLDEN_TRANSCRIPTS[preset, announce]
