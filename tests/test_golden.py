"""Golden outputs: the SHA-256 of trace.txt, epochs.csv and metrics.txt for
three 48-epoch scenarios, and the bytes of one small sweep's sweep.csv.

Any change to these bytes is a change to the simulator's observable
behaviour, so a refactor must leave them alone.  The beacon-period fix
(ROADMAP item 4: pulses spaced by the epoch interval instead of the default
60 s) changes every pulse digest and therefore these digests on purpose;
that change updates this table together with the code.
"""

import hashlib

import pytest

from vzor import netsim, sig
from vzor.cli import main
from vzor.scenario import ScenarioConfig
from vzor.trace import render_csv, render_trace

BASE = ScenarioConfig(epochs=48)

SCENARIOS = {
    "honest": BASE,
    "wrong_median_packet": BASE._replace(adversary_behavior="wrong_median_packet", fraud_period=2),
    "wrong_value": BASE._replace(adversary_behavior="wrong_value", adversary_count=5),
}

# (trace.txt, epochs.csv, metrics.txt)
GOLDEN = {
    "honest": (
        "0070b0b92b459e7d6782895f01be9b7f65257f52ecc21901644abf51a95d8dc7",
        "d8a44443ba98e2871ddc1b53bec61c32568274d77e9a85f312a3796386f2379d",
        "edbbbd7f3586ed2386bfac9e686238454424036617df443a1dbd744744af0aef",
    ),
    "wrong_median_packet": (
        "826fe35b9927cc5c8b1f2f706064b114349ef6346332d894c9dba6e242cdb0d3",
        "4549ff618e1aac10884fcf92298aae2d0aef0ed328acf12b5a3a6bf2c51622c9",
        "8c52bbd63fdcc0c9ebeaf188ef352acac26cfdd32a4aa88a5544868093b4bb44",
    ),
    "wrong_value": (
        "80327d1868cfe224babffc92787fe7466e216ace9297bb1b021d4db5b3977e93",
        "3778c1ca096dc08f6386f4381b4641ca8dba8cfa5f4ca7b8a540fbc5044efe9d",
        "edbbbd7f3586ed2386bfac9e686238454424036617df443a1dbd744744af0aef",
    ),
}


# each scenario signed by the backend vzor.sig chose at import, then by
# cryptography, the fallback: the same bytes either way
@pytest.mark.parametrize(
    "name, fallback",
    [pytest.param(name, False, id=name) for name in sorted(SCENARIOS)]
    + [pytest.param(name, True, id=f"{name}-cryptography") for name in sorted(SCENARIOS)],
)
def test_outputs_match_golden_digests(name, fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(sig, "_keypair", sig._openssl_keypair)
    run_trace = netsim.run(SCENARIOS[name])
    outputs = (render_trace(run_trace), render_csv(run_trace), netsim.metrics(run_trace).to_text())
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in outputs)
    assert digests == GOLDEN[name]


# a lying aggregator every second epoch of two: one slash per run, and an
# empty stdev_e2e_s cell since only one epoch is accepted
SWEEP_CONFIG = (
    "epochs = 2\nadversary_behavior = wrong_median_packet\nfraud_period = 2\nquorum = 5\n"
)
SWEEP_CSV = (
    "param,value,epochs,accepted_epochs,throughput_pps,mean_e2e_s,stdev_e2e_s,"
    "slash_count,mean_slash_latency_s,liveness_violations,gas_sepolia,gas_scroll\n"
    "n,5,2,1,0.016666666666666666,18.006,,1,1.896,0,592224,193962\n"
    "n,15,2,1,0.016666666666666666,18.006,,1,1.896,0,592224,193962\n"
)


def test_sweep_table_matches_golden_bytes(tmp_path):
    config = tmp_path / "scenario.txt"
    config.write_text(SWEEP_CONFIG)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--param", "n", "--values", "5,15",
                 "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == SWEEP_CSV.encode("ascii")
