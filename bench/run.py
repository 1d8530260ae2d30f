"""Benchmark `vzor run` and `vzor verify-trace` on one workload.

    python3 bench/run.py --workload honest-n15 --seed 1 --seconds 30 --trace 0

The workload and seed determine a scenario file, which is all the program
sees.  With ``--trace 0`` each round runs `vzor run` and then `vzor
verify-trace` on the trace it wrote, each as a fresh process
(``python -m vzor.cli`` with ``src`` on the path, as a user calls them),
and rounds repeat while the next one still fits in ``--seconds``; at least
two rounds run, so that two runs of one seed can be compared byte for
byte.  The end-to-end metrics are medians over the rounds, except
``setup_s``, which times one cold start of a process that builds the
simulator.  With ``--trace 1`` the same commands run in this process,
once untraced and once under the span tracer of ``tracer.py``, and the
per-layer metrics come from the traced run.

Every run checks the outputs with ``checks.py`` and shows that each check
fails on a trace altered to break it.  The last line of standard output
is one JSON object: correct, attempted and failed epochs, and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CHAINS = ("sepolia", "scroll")
# Scenario keys each workload sets; every other key keeps vzor's default.
WORKLOADS = {
    "honest-n15": dict(
        epochs=480, registry_size=50, committee_size=15, quorum=10,
        adversary_behavior="honest", fraud_period=60,
    ),
    "fraud-n100": dict(
        epochs=60, registry_size=200, committee_size=100, quorum=67,
        adversary_behavior="wrong_median_packet", fraud_period=2,
    ),
}
SORTITION_SAMPLE = 8  # epochs whose committee draw is recomputed

SETUP_CODE = (
    "import sys\n"
    "from vzor import netsim, scenario\n"
    "netsim.Simulator(scenario.load_config(sys.argv[1]))\n"
)


def scenario_for(workload: str, seed: int) -> checks.Scenario:
    w = WORKLOADS[workload]
    return checks.Scenario(
        seed=seed,
        epochs=w["epochs"],
        registry_size=w["registry_size"],
        committee_size=w["committee_size"],
        quorum=w["quorum"],
        chains=CHAINS,
        lying=w["adversary_behavior"] == "wrong_median_packet",
        fraud_period=w["fraud_period"],
    )


def scenario_text(workload: str, seed: int) -> str:
    keys = dict(seed=seed, chains=",".join(CHAINS), **WORKLOADS[workload])
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


# -- fresh processes -----------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "VZOR_REAL_VERIFY"}
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``python args`` to completion: (exit code, wall s, peak RSS MiB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=child_env(), cwd=ROOT, stdout=out, stderr=out
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def stop(started: float, rounds: list[dict], seconds: int, minimum: int) -> bool:
    """True once ``minimum`` rounds ran and the longest so far would not fit."""
    elapsed = time.perf_counter() - started
    longest = max(r["wall_s"] for r in rounds)
    return len(rounds) >= minimum and elapsed + longest > seconds


# -- end-to-end runs ------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: int, work: Path) -> dict:
    sc = scenario_for(workload, seed)
    scenario = work / "scenario.txt"
    scenario.write_text(scenario_text(workload, seed))
    code, setup_s, _ = timed_child(["-c", SETUP_CODE, str(scenario)], work / "setup.log")
    if code != 0:
        raise SystemExit(f"simulator set-up exited {code}; see {work / 'setup.log'}")

    rounds = []
    first = work / "first"
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        out = first if not rounds else work / "repeat"
        run_code, run_s, run_rss = timed_child(
            ["-m", "vzor.cli", "run", "--config", str(scenario), "--out", str(out)],
            work / "run.log",
        )
        verify_code, verify_s, verify_rss = timed_child(
            ["-m", "vzor.cli", "verify-trace", str(out / "trace.txt")], work / "verify.log"
        )
        ok = run_code == 0 and verify_code == 0
        if ok and rounds:
            ok = all(
                (out / name).read_bytes() == (first / name).read_bytes()
                for name in ("trace.txt", "metrics.txt")
            )
        rounds.append(dict(ok=ok, run_s=run_s, verify_s=verify_s, rss=max(run_rss, verify_rss),
                           wall_s=time.perf_counter() - round_start))
        print(
            f"round {len(rounds)}: run {run_s:.3f} s (exit {run_code}), verify {verify_s:.3f} s "
            f"(exit {verify_code}), peak RSS {rounds[-1]['rss']:.1f} MiB, "
            f"{'identical to round 1' if len(rounds) > 1 and ok else ''}"
        )
        if stop(started, rounds, seconds, minimum=2):
            break

    correct, failed_first = check_outputs(sc, first, seed)
    failed = sum(failed_first if r["ok"] else sc.epochs for r in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "verify_s": (statistics.median(r["verify_s"] for r in rounds), "s"),
        "peak_rss_mib": (statistics.median(r["rss"] for r in rounds), "MiB"),
    }
    return dict(correct=correct, attempted=sc.epochs * len(rounds), failed=failed, metrics=metrics)


def check_outputs(sc: checks.Scenario, out: Path, seed: int) -> tuple[bool, int]:
    """(every check catches its mutation, epochs that fail a check)."""
    rng = random.Random(seed)
    derived = checks.Derived(sc)
    sample = frozenset(rng.sample(range(sc.epochs), min(SORTITION_SAMPLE, sc.epochs)))
    try:
        trace_text = (out / "trace.txt").read_text()
        metrics_text = (out / "metrics.txt").read_text()
        failed = checks.check_run(sc, derived, trace_text, metrics_text, None, sample)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        print(f"check failed: outputs unreadable: {exc!r}")
        return True, sc.epochs
    missed = checks.self_test(sc, derived, trace_text, metrics_text, rng)
    for epoch, names in sorted(failed.items()):
        print(f"check failed: {'run' if epoch == checks.GLOBAL else f'epoch {epoch}'}: "
              f"{', '.join(sorted(names))}")
    for name in missed:
        print(f"check self-test: altered {name} was not caught")
    print(f"checks: {checks.failed_epochs(failed, sc.epochs)} of {sc.epochs} epochs failed; "
          f"sortition recomputed on epochs {sorted(sample)}; "
          f"{len(checks.MUTATIONS) - len(missed)} of {len(checks.MUTATIONS)} mutations caught")
    return not missed, checks.failed_epochs(failed, sc.epochs)


# -- traced run ----------------------------------------------------------------

# (name, unit, better); the values are computed in `layer_metrics`.
PER_LAYER = (
    ("sig.signs_per_epoch", "count", "lower"),
    ("sig.sign_us", "us", "lower"),
    ("sig.real_verifies_per_epoch.run", "count", "lower"),
    ("sig.real_verifies_per_epoch.verify", "count", "lower"),
    ("sig.memo_hits_per_epoch.run", "count", "lower"),
    ("sig.memo_hits_per_epoch.verify", "count", "lower"),
    ("sig.verify_us", "us", "lower"),
    ("sig.memo_entries", "count", "lower"),
    ("encoding.digests_per_epoch", "count", "lower"),
    ("vrf.evaluate_registry_ms", "ms", "lower"),
    ("vrf.select_committee_ms", "ms", "lower"),
    ("oracle.sign_observation_us", "us", "lower"),
    ("packets.build_packet_ms", "ms", "lower"),
    ("proofs.verify_ms", "ms", "lower"),
    ("chains.submit_packet_ms", "ms", "lower"),
    ("proofs.inclusion_proofs_per_epoch", "count", "lower"),
    ("hub.accuse_all_signers_ms", "ms", "lower"),
    ("hub.adjudicate_ms", "ms", "lower"),
    ("netsim.loop_self_s", "s", "lower"),
    ("netsim.setup_ms", "ms", "lower"),
    ("beacon.make_chain_ms", "ms", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.render_trace_ms", "ms", "lower"),
    ("trace.trace_bytes", "bytes", "lower"),
    ("trace.parse_trace_ms", "ms", "lower"),
    ("trace.verify_phase1_s", "s", "lower"),
    ("trace.verify_phase2_s", "s", "lower"),
)


def in_process(cli, sig, scenario: Path, out: Path, tracer=None) -> dict:
    """`vzor run` then `vzor verify-trace` through the CLI's own functions,
    each phase starting from an empty verdict memo like a fresh process."""
    counts = {}
    start = time.perf_counter()
    for phase, call in (
        ("run", lambda: cli.cmd_run(str(scenario), str(out), None)),
        ("verify", lambda: cli.cmd_verify_trace(str(out / "trace.txt"))),
    ):
        sig.reset()
        if tracer is not None:
            tracer.begin(phase)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            counts[phase + "_exit"] = call()
        counts[phase] = sig.counters()
        counts[phase + "_memo"] = sig.memo_size()
    counts["wall_s"] = time.perf_counter() - start
    return counts


def layer_metrics(tracer, counts: dict, epochs: int, trace_bytes: int, startup_s: float) -> dict:
    def per_call(phase: str, layer: str, scale: float) -> float:
        stats = tracer.get(phase, layer)
        return stats.total_ns / stats.calls / scale if stats.calls else 0.0

    def per_epoch(phase: str, layer: str) -> float:
        return tracer.get(phase, layer).calls / epochs

    run, verify = counts["run"], counts["verify"]
    verify_calls = [tracer.get(p, "sig.verify") for p in ("run", "verify")]
    (whole,) = tracer.find("trace.verify_trace_text")
    phase2_ns = sum(
        s[3] - s[2]
        for s in tracer.children(whole[0])
        if tracer.names[s[1]] in ("netsim.run", "trace.render_trace")
    )
    values = {
        "sig.signs_per_epoch": run.signs / epochs,
        "sig.sign_us": per_call("run", "sig.Signer.sign", 1e3),
        "sig.real_verifies_per_epoch.run": run.real_verifies / epochs,
        "sig.real_verifies_per_epoch.verify": verify.real_verifies / epochs,
        "sig.memo_hits_per_epoch.run": run.memo_hits / epochs,
        "sig.memo_hits_per_epoch.verify": verify.memo_hits / epochs,
        "sig.verify_us": sum(s.total_ns for s in verify_calls)
        / max(1, sum(s.calls for s in verify_calls)) / 1e3,
        "sig.memo_entries": counts["run_memo"],
        "encoding.digests_per_epoch": per_epoch("run", "encoding.tagged_digest"),
        "vrf.evaluate_registry_ms": per_call("run", "vrf.evaluate_registry", 1e6),
        "vrf.select_committee_ms": per_call("run", "vrf.select_committee", 1e6),
        "oracle.sign_observation_us": per_call("run", "oracle.sign_observation", 1e3),
        "packets.build_packet_ms": per_call("run", "packets.build_packet", 1e6),
        "proofs.verify_ms": per_call("run", "proofs.verify", 1e6),
        "chains.submit_packet_ms": per_call("run", "chains.Chain.submit_packet", 1e6),
        "proofs.inclusion_proofs_per_epoch": per_epoch("run", "proofs.inclusion_proof"),
        "hub.accuse_all_signers_ms": per_call("run", "hub.accuse_all_signers", 1e6),
        "hub.adjudicate_ms": per_call("run", "hub.Hub.adjudicate", 1e6),
        "netsim.loop_self_s": tracer.get("run", "netsim.Simulator.run").self_ns / 1e9,
        "netsim.setup_ms": per_call("run", "netsim.Simulator.__init__", 1e6),
        "beacon.make_chain_ms": per_call("run", "beacon.make_chain", 1e6),
        "cli.startup_s": startup_s,
        "trace.render_trace_ms": per_call("run", "trace.render_trace", 1e6),
        "trace.trace_bytes": trace_bytes,
        "trace.parse_trace_ms": per_call("verify", "trace.parse_trace", 1e6),
        "trace.verify_phase1_s": (whole[3] - whole[2] - phase2_ns) / 1e9,
        "trace.verify_phase2_s": phase2_ns / 1e9,
    }
    return values


def traced(workload: str, seed: int, seconds: int, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    os.environ.pop("VZOR_REAL_VERIFY", None)
    from vzor import cli, sig

    import tracer as tracer_mod

    sc = scenario_for(workload, seed)
    scenario = work / "scenario.txt"
    scenario.write_text(scenario_text(workload, seed))
    code, startup_s, _ = timed_child(["-m", "vzor.cli", "print-config"], work / "startup.log")
    if code != 0:
        raise SystemExit(f"vzor print-config exited {code}; see {work / 'startup.log'}")

    rounds = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain = in_process(cli, sig, scenario, work / "untraced")
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            counts = in_process(cli, sig, scenario, work / "traced", tracer)
        finally:
            tracer.uninstall()
        trace_text = (work / "traced" / "trace.txt").read_bytes()
        ok = (
            plain["run_exit"] == plain["verify_exit"] == 0
            and counts["run_exit"] == counts["verify_exit"] == 0
            and trace_text == (work / "untraced" / "trace.txt").read_bytes()
        )
        values = layer_metrics(tracer, counts, sc.epochs, len(trace_text), startup_s)
        overhead = counts["wall_s"] / plain["wall_s"] - 1
        rounds.append(dict(ok=ok, values=values, overhead=overhead,
                           wall_s=time.perf_counter() - round_start))
        print(
            f"round {len(rounds)}: in-process run + verify-trace {plain['wall_s']:.3f} s "
            f"untraced, {counts['wall_s']:.3f} s traced; tracing overhead {overhead:+.1%}; "
            f"{len(tracer.spans)} spans; traced trace "
            f"{'identical to' if ok else 'DIFFERS from'} untraced"
        )
        if stop(started, rounds, seconds, minimum=1):
            break

    tracer.write(
        str(work / "spans.json"),
        dict(workload=workload, seed=seed, epochs=sc.epochs, untraced_s=plain["wall_s"],
             traced_s=counts["wall_s"], overhead=rounds[-1]["overhead"]),
    )
    print(f"spans written to {work / 'spans.json'}")
    correct, failed_first = check_outputs(sc, work / "traced", seed)
    failed = sum(failed_first if r["ok"] else sc.epochs for r in rounds)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {
        name: (statistics.median(r["values"][name] for r in rounds), units[name])
        for name in units
    }
    return dict(correct=correct, attempted=sc.epochs * len(rounds), failed=failed, metrics=metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (SRC / "vzor" / "cli.py").is_file():
        print(f"bench: no vzor sources under {SRC}", file=sys.stderr)
        return 2
    # Measured processes load cached bytecode, as an installed vzor would,
    # whatever PYTHONDONTWRITEBYTECODE says in the caller's environment.
    compileall.compile_dir(str(SRC / "vzor"), quiet=1)

    work = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    measure = traced if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds, work)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
