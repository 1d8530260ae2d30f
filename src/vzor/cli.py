"""Command-line front end: run scenarios, verify traces, sweep parameters.

``run`` and ``sweep`` write each epoch's trace block and CSV line as the
simulator closes the epoch, and ``verify-trace`` reads the trace line by
line, so neither holds a whole trace in memory.  Every file is written
under a ``.tmp`` name and renamed once complete.

Exit codes: 0 success; 2 config parse error, trace corruption, or outputs
that cannot be written; 3 scenario validation error, unknown sweep
parameter, or empty sweep; 4 trace outcome mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, Optional, TextIO

from . import netsim, trace as trace_mod
from .errors import ConfigError, InvalidScenario
from .scenario import ScenarioConfig, canonical_text, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID = 3

SWEEPABLE = {
    "n": ("committee_size", int),
    "f_min": ("quorum", int),
    "delta_net": ("delta_net_max_s", float),
    "t_prove": ("t_prove_s", float),
    "fraud_period": ("fraud_period", int),
    "b": ("adversary_count", int),
}


SWEEP_COLUMNS = (
    "param", "value", "epochs", "accepted_epochs", "throughput_pps", "mean_e2e_s",
    "stdev_e2e_s", "slash_count", "mean_slash_latency_s", "liveness_violations",
)  # then gas_<chain> for each chain


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """A file written as ``path.tmp`` and renamed to ``path`` once complete;
    the ``.tmp`` file is removed if writing fails or is interrupted."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


def _load_scenario(config_path: Optional[str], seed: Optional[int]) -> ScenarioConfig:
    config = ScenarioConfig() if config_path is None else load_config(config_path)
    if seed is not None:
        config = config._replace(seed=seed)
    return config


def _write_run_outputs(
    sim: netsim.Simulator, out_dir: str
) -> tuple[netsim.MetricsSummary, netsim.LivenessReport]:
    """Run ``sim``, writing its trace and CSV as each epoch closes, then its
    config and metrics.  A run that fails or is interrupted writes none."""
    config = sim.config
    tally = netsim.Tally(config)
    os.makedirs(out_dir, exist_ok=True)
    with (
        _atomic_open(os.path.join(out_dir, "trace.txt")) as trace_out,
        _atomic_open(os.path.join(out_dir, "epochs.csv")) as csv_out,
    ):
        csv_out.write(trace_mod.csv_head(config.chains))

        def write_csv_line(record: netsim.EpochRecord) -> None:
            csv_out.write(trace_mod.csv_line(record, config.chains))
            tally.add(record)

        run_trace = trace_mod.render_trace(sim, trace_out, write_csv_line)
    summary = tally.metrics(run_trace.gas_totals)
    _atomic_write(os.path.join(out_dir, "config.txt"), canonical_text(config))
    _atomic_write(os.path.join(out_dir, "metrics.txt"), summary.to_text())
    return summary, tally.liveness()


def _cannot_write(exc: OSError) -> int:
    print(f"cannot write outputs: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_run(config_path: Optional[str], out_dir: str, seed: Optional[int]) -> int:
    try:
        config = _load_scenario(config_path, seed)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sim = netsim.Simulator(config)
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        summary, _ = _write_run_outputs(sim, out_dir)
    except OSError as exc:
        return _cannot_write(exc)
    print(f"ran {summary.epochs} epochs, {summary.accepted_epochs} accepted, "
          f"{summary.slash_count} slash events")
    print(f"outputs in {out_dir}: config.txt trace.txt epochs.csv metrics.txt")
    return EXIT_OK


def cmd_verify_trace(trace_path: str) -> int:
    check = trace_mod.verify_trace_file(trace_path)
    if check.ok:
        print("trace verified: all recorded outcomes match replay")
    else:
        for problem in check.problems:
            print(problem, file=sys.stderr)
    return check.exit_code


def cmd_sweep(
    config_path: Optional[str], parameter: str, values_text: str, out_dir: str
) -> int:
    if parameter not in SWEEPABLE:
        print(
            f"unknown sweep parameter {parameter!r}; "
            f"choose from {', '.join(sorted(SWEEPABLE))}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    field, cast = SWEEPABLE[parameter]
    raw_values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not raw_values:
        print("empty sweep value list", file=sys.stderr)
        return EXIT_INVALID
    try:
        values = [cast(v) for v in raw_values]
    except ValueError as exc:
        print(f"bad sweep value: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        base = _load_scenario(config_path, None)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(out_dir, exist_ok=True)
        chains = tuple(base.chains)
        rows = [trace_mod.csv_row(SWEEP_COLUMNS + tuple(f"gas_{c}" for c in chains))]
        for value in values:
            config = base._replace(**{field: value})
            if parameter == "delta_net":
                config = config._replace(delta_net_min_s=min(config.delta_net_min_s, float(value)))
            try:
                sim = netsim.Simulator(config)
            except InvalidScenario as exc:
                print(f"invalid scenario at {parameter}={value}: {exc}", file=sys.stderr)
                return EXIT_INVALID
            run_dir = os.path.join(out_dir, f"{parameter}_{value}")
            summary, liveness = _write_run_outputs(sim, run_dir)
            gas_by_chain = {c: 0 for c in chains}
            for chain_id, _, total in summary.gas_totals:
                gas_by_chain[chain_id] += total
            cells = (parameter, value, summary.epochs, summary.accepted_epochs,
                     summary.throughput_pps, summary.mean_e2e_s, summary.stdev_e2e_s,
                     summary.slash_count, summary.mean_slash_latency_s, len(liveness.violations))
            rows.append(trace_mod.csv_row(cells + tuple(gas_by_chain.values())))
            print(f"{parameter}={value}: {summary.accepted_epochs}/{summary.epochs} accepted")
        _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(rows) + "\n")
    except OSError as exc:
        return _cannot_write(exc)
    print(f"sweep table written to {os.path.join(out_dir, 'sweep.csv')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vzor",
        description="Deterministic cross-chain oracle protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario and write its outputs")
    run_p.add_argument("--config", help="scenario file; defaults are used when omitted")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")

    verify_p = sub.add_parser("verify-trace", help="re-check a recorded trace")
    verify_p.add_argument("trace", help="path to a trace.txt produced by run")

    sweep_p = sub.add_parser("sweep", help="run a scenario across parameter values")
    sweep_p.add_argument("--config", help="base scenario file")
    sweep_p.add_argument("--param", required=True, help="parameter to sweep")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out", required=True, help="output directory")

    sub.add_parser("print-config", help="print the default scenario")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed)
    if args.command == "verify-trace":
        return cmd_verify_trace(args.trace)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.param, args.values, args.out)
    if args.command == "print-config":
        sys.stdout.write(canonical_text(ScenarioConfig()))
        return EXIT_OK
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
