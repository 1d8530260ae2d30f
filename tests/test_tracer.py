"""The benchmark's span tracer (`bench/tracer.py`) wraps vzor's functions by
name, and `bench/run.py --trace 1` reads its metrics by those names: a
traced in-process run and verify-trace must still give every metric, and
uninstalling must put every original back."""

from pathlib import Path

from vzor import cli, netsim, sig, trace
from vzor.scenario import ScenarioConfig, canonical_text

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_a_run_and_its_verify_then_unwraps(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delenv(sig.REAL_VERIFY_ENV, raising=False)
    import run as bench_run
    import tracer as tracer_mod

    scenario = tmp_path / "scenario.txt"
    scenario.write_text(canonical_text(ScenarioConfig(seed=3, epochs=2)))

    def bindings():
        return trace.verify_trace_text, trace.render_trace, netsim.Simulator.run, sig.Signer.sign

    originals = bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        counts = bench_run.in_process(cli, sig, scenario, tmp_path / "out", tracer)
    finally:
        tracer.uninstall()
        sig.reset()
    assert bindings() == originals
    assert counts["run_exit"] == counts["verify_exit"] == 0
    values = bench_run.layer_metrics(tracer, counts, 2, 1, 0.0)
    assert list(values) == [name for name, _, _ in bench_run.PER_LAYER]
    assert values["sig.signs_per_epoch"] == 65  # 50 VRF proofs and 15 observations
    assert values["netsim.loop_self_s"] > 0
    assert values["trace.render_trace_ms"] > 0
    assert values["trace.parse_trace_ms"] > 0
    # the replay streams inside verify_trace_text and calls no netsim.run:
    # the whole verify counts as phase 1
    assert values["trace.verify_phase1_s"] > 0
    assert values["trace.verify_phase2_s"] == 0
