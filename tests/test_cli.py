import contextlib
import io
import tracemalloc

import pytest

from vzor import sig
from vzor import trace as trace_mod
from vzor.cli import cmd_run, cmd_verify_trace, main
from vzor.scenario import ScenarioConfig, canonical_text, parse_config

SMALL = "seed = 7\nepochs = 10\n"
FRAUD = SMALL + "adversary_behavior = wrong_median_packet\nfraud_period = 5\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def run_dir(tmp_path):
    config = _write(tmp_path, "scenario.txt", FRAUD)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    return out


def test_run_writes_outputs(run_dir, capsys):
    for name in ("config.txt", "trace.txt", "epochs.csv", "metrics.txt"):
        assert (run_dir / name).exists(), name
    config = parse_config((run_dir / "config.txt").read_text())
    assert config.epochs == 10
    csv_lines = (run_dir / "epochs.csv").read_text().rstrip("\n").split("\n")
    assert len(csv_lines) == 11
    assert "slash_count = 2" in (run_dir / "metrics.txt").read_text()


def test_run_defaults_without_config(tmp_path, capsys):
    out = tmp_path / "out"
    # no --config runs the default scenario; trim it with a seeded override
    config = _write(tmp_path, "tiny.txt", "epochs = 3\n")
    assert main(["run", "--config", config, "--out", str(out), "--seed", "5"]) == 0
    echoed = parse_config((out / "config.txt").read_text())
    assert echoed.seed == 5
    assert "ran 3 epochs" in capsys.readouterr().out


def test_run_is_deterministic(tmp_path):
    config = _write(tmp_path, "scenario.txt", SMALL)
    assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", config, "--out", str(tmp_path / "b")]) == 0
    for name in ("trace.txt", "epochs.csv", "config.txt", "metrics.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_exit_2_on_config_errors(tmp_path, capsys):
    out = str(tmp_path / "out")
    bad = _write(tmp_path, "bad.txt", "no_such_key = 1\n")
    assert main(["run", "--config", bad, "--out", out]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.txt"), "--out", out]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_exit_3_on_invalid_scenario(tmp_path, capsys):
    out = str(tmp_path / "out")
    invalid = _write(tmp_path, "invalid.txt", "quorum = 20\n")  # above committee size
    assert main(["run", "--config", invalid, "--out", out]) == 3
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["run", "epoch_interval_s = nan"],
        ["run", "epoch_interval_s = inf"],
        ["run", "epoch_interval_s = 0.0004"],  # rounds to a 0 ms epoch interval
        ["run", "delta_net_max_s = inf"],
        ["run", "t_prove_s = nan"],
        ["run", "t_prove_s = inf"],
        ["sweep", "t_prove", "inf"],
    ],
    ids=["interval-nan", "interval-inf", "interval-0.4ms", "delta-max-inf", "t-prove-nan",
         "t-prove-inf", "sweep-t-prove-inf"],
)
def test_non_finite_and_sub_millisecond_times_exit_3(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    if command[0] == "run":
        config = _write(tmp_path, "times.txt", SMALL + command[1] + "\n")
        argv = ["run", "--config", config, "--out", out]
    else:
        config = _write(tmp_path, "scenario.txt", SMALL)
        argv = ["sweep", "--config", config, "--param", command[1], "--values", command[2],
                "--out", out]
    assert main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err


I64_MAX = 2**63 - 1
LIAR = "adversary_behavior = wrong_median_packet\nfraud_period = 1\n"


@pytest.mark.parametrize(
    "lines, code",
    [
        (f"value_min = {I64_MAX}\nvalue_max = {I64_MAX}\nvalue_base = {I64_MAX}\n" + LIAR, 3),
        (f"value_max = {10**20}\nvalue_base = {10**19}\n", 3),
        (f"value_min = {-(10**20)}\n", 3),
        ("initial_stake_eth = inf\n", 2),
        ("slash_cut_eth = Infinity\n", 2),
        ("governance = s_cut:inf@1\n", 2),
        ("slash_cut_eth = 1E+999999\n", 2),
    ],
    ids=["i64-max-liar", "value-max-1e20", "value-min-1e20", "stake-inf", "cut-infinity",
         "governed-cut-inf", "cut-above-uint256"],
)
def test_out_of_range_values_exit_cleanly(tmp_path, capsys, lines, code):
    config = _write(tmp_path, "scenario.txt", SMALL + lines)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_eth_amounts_beyond_28_digits_convert_and_echo_exactly(tmp_path):
    # 29 significant digits of wei: one more than the default decimal context holds
    amount = "12345678901.234567890123456789"
    config = _write(tmp_path, "scenario.txt", SMALL + f"slash_cut_eth = {amount}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    echo = (out / "config.txt").read_text()
    assert f"slash_cut_eth = {amount}\n" in echo
    assert parse_config(echo).slash_cut_wei == 12345678901234567890123456789
    assert main(["verify-trace", str(out / "trace.txt")]) == 0


def test_64_bit_value_edges_run_and_verify(tmp_path):
    # the lying aggregator claims median + 1 = 2^63 - 1, the largest i64
    edges = f"value_min = {-(2**63)}\nvalue_max = {I64_MAX - 1}\nvalue_base = {I64_MAX - 1}\n"
    config = _write(tmp_path, "scenario.txt", SMALL + edges + LIAR)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert main(["verify-trace", str(out / "trace.txt")]) == 0
    assert "slash_count = 10" in (out / "metrics.txt").read_text()


@pytest.mark.parametrize(
    "line", [f"value_max = {10**20}", f"value_min = {-(10**20)}"], ids=["max-1e20", "min-1e20"]
)
def test_verify_trace_exit_2_on_out_of_range_config(run_dir, tmp_path, capsys, line):
    text = (run_dir / "trace.txt").read_text()
    key = line.split(" = ")[0]
    recorded = next(row for row in text.split("\n") if row.startswith(key + " = "))
    edited = _write(tmp_path, "edited.txt", text.replace(recorded, line, 1))
    assert main(["verify-trace", edited]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_non_utf8_files_exit_2(run_dir, tmp_path, capsys):
    config = tmp_path / "latin1.txt"
    config.write_bytes(SMALL.encode() + b"# caf\xe9\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(config), "--out", out]) == 2
    assert main(["sweep", "--config", str(config), "--param", "n", "--values", "5",
                 "--out", out]) == 2
    trace = tmp_path / "trace.txt"
    trace.write_bytes((run_dir / "trace.txt").read_bytes().replace(b"[end]", b"[\xff]"))
    assert main(["verify-trace", str(trace)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "scenario.txt", SMALL)
    taken = _write(tmp_path, "taken", "not a directory\n")
    assert main(["run", "--config", config, "--out", taken]) == 2
    assert main(["sweep", "--config", config, "--param", "n", "--values", "5",
                 "--out", taken]) == 2
    err = capsys.readouterr().err
    assert err.count("cannot write outputs:") == 2
    assert "Traceback" not in err


def test_verify_trace_accepts_run_output(run_dir, capsys):
    assert main(["verify-trace", str(run_dir / "trace.txt")]) == 0
    assert "trace verified" in capsys.readouterr().out


def test_verify_trace_exit_4_on_tampering(run_dir, tmp_path, capsys):
    text = (run_dir / "trace.txt").read_text()
    tampered = _write(tmp_path, "tampered.txt", text.replace("accepted=1", "accepted=0", 1))
    assert main(["verify-trace", tampered]) == 4
    assert "epoch 0" in capsys.readouterr().err


def test_verify_trace_exit_2_on_corruption(run_dir, tmp_path, capsys):
    text = (run_dir / "trace.txt").read_text()
    corrupt = _write(tmp_path, "corrupt.txt", text.replace("vzor-trace v1", "vzor-trace v9", 1))
    assert main(["verify-trace", corrupt]) == 2
    assert main(["verify-trace", str(tmp_path / "absent.txt")]) == 2
    assert "corrupt trace" in capsys.readouterr().err


def test_sweep_writes_table_and_subruns(tmp_path, capsys):
    # quorum must stay below every swept committee size
    config = _write(tmp_path, "scenario.txt", SMALL + "quorum = 5\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--param", "n", "--values", "5,10,15",
                 "--out", str(out)]) == 0
    table = (out / "sweep.csv").read_text().rstrip("\n").split("\n")
    assert table[0] == (
        "param,value,epochs,accepted_epochs,throughput_pps,mean_e2e_s,stdev_e2e_s,"
        "slash_count,mean_slash_latency_s,liveness_violations,gas_sepolia,gas_scroll"
    )
    assert len(table) == 4
    for value in (5, 10, 15):
        assert (out / f"n_{value}" / "trace.txt").exists()
    # constant verify gas: per-chain totals match across committee sizes
    gas_cells = [row.split(",")[-2:] for row in table[1:]]
    assert gas_cells[0] == gas_cells[1] == gas_cells[2]


def test_sweep_quorum_requires_config_floor(tmp_path):
    # sweeping f_min within the committee bound works off the default config
    out = tmp_path / "sweep"
    config = _write(tmp_path, "scenario.txt", SMALL)
    assert main(["sweep", "--config", config, "--param", "f_min", "--values", "10,15",
                 "--out", str(out)]) == 0
    assert main(["sweep", "--config", config, "--param", "f_min", "--values", "16",
                 "--out", str(out)]) == 3


def test_sweep_delta_net_keeps_bounds_ordered(tmp_path):
    config = _write(tmp_path, "scenario.txt", SMALL)
    out = tmp_path / "sweep"
    # a sweep value below the configured minimum must not invert the window
    assert main(["sweep", "--config", config, "--param", "delta_net",
                 "--values", "0.05,1.0", "--out", str(out)]) == 0
    echoed = parse_config((out / "delta_net_0.05" / "config.txt").read_text())
    assert echoed.delta_net_min_s <= echoed.delta_net_max_s == 0.05


def test_sweep_exit_3_on_unknown_parameter(tmp_path, capsys):
    assert main(["sweep", "--param", "kappa", "--values", "1", "--out", str(tmp_path)]) == 3
    assert "unknown sweep parameter" in capsys.readouterr().err
    assert main(["sweep", "--param", "n", "--values", " , ", "--out", str(tmp_path)]) == 3
    assert main(["sweep", "--param", "n", "--values", "abc", "--out", str(tmp_path)]) == 3


def test_print_config_round_trips(capsys):
    assert main(["print-config"]) == 0
    printed = capsys.readouterr().out
    assert printed == canonical_text(ScenarioConfig())
    assert parse_config(printed) == ScenarioConfig()


def test_active_set_depletion_runs_and_verifies(tmp_path, capsys):
    # one slash of 15 signers at a full 32 ETH cut leaves 5 of 20 reporters
    # with stake: later epochs have no committee, no packet and no receipt
    config = _write(
        tmp_path,
        "depleted.txt",
        "epochs = 12\nregistry_size = 20\nadversary_behavior = wrong_median_packet\n"
        "fraud_period = 2\nslash_cut_eth = 32\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert main(["verify-trace", str(out / "trace.txt")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [row.split(",") for row in (out / "epochs.csv").read_text().split("\n")[1:-1]]
    assert [row[1] == "" for row in rows] == [False] * 2 + [True] * 10
    assert all(row[2] == "" and row[3] == "" for row in rows[2:])
    metrics = (out / "metrics.txt").read_text()
    assert "accepted_epochs = 1\n" in metrics and "slash_count = 1\n" in metrics
    names = {line.split(" = ")[0] for line in metrics.splitlines()}
    assert {name for name in names if not name.startswith(("gas_", "selected_"))} == {
        "epochs", "accepted_epochs", "throughput_pps", "mean_e2e_s", "stdev_e2e_s",
        "slash_count", "mean_slash_latency_s",
    }


def _peaks(tmp_path, epochs):
    """Peak traced memory of vzor run and of verify-trace, each from an
    empty memo as in a fresh process."""
    scenario = canonical_text(ScenarioConfig(seed=5, epochs=epochs))
    config = _write(tmp_path, f"{epochs}.txt", scenario)
    out = str(tmp_path / f"out{epochs}")
    peaks = []
    for call in (lambda: cmd_run(config, out, None), lambda: cmd_verify_trace(out + "/trace.txt")):
        sig.reset()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert call() == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_memory_does_not_grow_with_the_run(tmp_path, monkeypatch):
    # run and verify-trace hold one epoch's block at a time and a memo
    # capped to the epochs still open; a 96-epoch trace is about 400 kB,
    # and what still grows with the run is under 1 kB an epoch
    monkeypatch.delenv(sig.REAL_VERIFY_ENV, raising=False)
    try:
        short, long = _peaks(tmp_path, 24), _peaks(tmp_path, 96)
    finally:
        sig.reset()
    for few, many in zip(short, long):
        assert many < few + 128 * 1024, (few, many)


def test_interrupted_run_leaves_the_last_outputs_alone(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, "a.txt", SMALL), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def interrupt_at_epoch_3(record, chains, csv_line=trace_mod.csv_line):
        if record.epoch == 3:
            raise KeyboardInterrupt
        return csv_line(record, chains)

    monkeypatch.setattr(trace_mod, "csv_line", interrupt_at_epoch_3)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", _write(tmp_path, "b.txt", FRAUD), "--out", str(out)])
    # no .tmp file is left, and config.txt still describes trace.txt
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
