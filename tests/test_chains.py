import random

import pytest

from vzor.chains import (
    CHAIN_PRESETS,
    GAS_CEILING,
    OP_FRAUD,
    OP_GOVERNANCE,
    OP_VERIFY,
    Chain,
    ChainConfig,
    scroll,
    sepolia,
)
from vzor.errors import UnknownOperation
from vzor.oracle import AggregationParams

from conftest import mutate_packet


def test_preset_gas_tables():
    l1 = sepolia()
    assert l1.block_time_seconds == 15.0
    assert l1.gas_table == {OP_VERIFY: 296_112, OP_FRAUD: 52_341, OP_GOVERNANCE: 38_220}
    l2 = scroll()
    assert l2.block_time_seconds == 2.0
    assert l2.gas_table == {OP_VERIFY: 88_029, OP_FRAUD: 17_904, OP_GOVERNANCE: 11_706}
    assert set(CHAIN_PRESETS) == {"sepolia", "scroll"}


def test_verify_gas_under_ceiling():
    for make in CHAIN_PRESETS.values():
        assert make().gas_table[OP_VERIFY] <= GAS_CEILING


def test_gas_cost_unknown_operation():
    with pytest.raises(UnknownOperation):
        Chain(sepolia()).charge("mint_token")


def test_config_validation():
    table = sepolia().gas_table
    with pytest.raises(ValueError):
        ChainConfig("", 15.0, 1, table)
    with pytest.raises(ValueError):
        ChainConfig("x", 0.0, 1, table)
    with pytest.raises(ValueError):
        ChainConfig("x", 15.0, 0, table)
    with pytest.raises(ValueError):
        ChainConfig("x", 15.0, 1, {OP_VERIFY: 1})
    with pytest.raises(ValueError):
        ChainConfig("x", 15.0, 1, dict(table, **{OP_VERIFY: GAS_CEILING + 1}))


def test_inclusion_height_rounds_up():
    chain = Chain(config=scroll())
    assert chain._inclusion_height(0) == 1
    assert chain._inclusion_height(1) == 1
    assert chain._inclusion_height(2_000) == 1
    assert chain._inclusion_height(2_001) == 2


def _submit(chain, make_packet, agg_params, epoch=1, now_ms=30_000, mutation=None):
    packet, committee = make_packet(epoch=epoch)
    if mutation is not None:
        packet = mutate_packet(packet, mutation, random.Random(0))
    return chain.submit_packet(packet, committee, agg_params, now_ms), packet


def test_submit_accepts_and_records(make_packet, agg_params):
    chain = Chain(config=sepolia())
    receipt, _ = _submit(chain, make_packet, agg_params)
    assert receipt.accepted and receipt.reason == "ok"
    assert receipt.chain_id == "sepolia"
    assert receipt.gas_used == 296_112
    assert receipt.block == 2  # arrival at 30 s, 15 s blocks
    assert receipt.final_ms == 30_000 + 15_000
    assert chain.gas_by_op == {OP_VERIFY: 296_112}


def test_second_submission_is_verified_and_charged_again(make_packet, agg_params):
    chain = Chain(config=sepolia())
    first, _ = _submit(chain, make_packet, agg_params, now_ms=30_000)
    again, _ = _submit(chain, make_packet, agg_params, now_ms=45_001)
    assert first.accepted and again.accepted
    assert (first.block, first.final_ms) == (2, 45_000)
    assert (again.block, again.final_ms) == (4, 60_001)  # its own arrival's block and finality
    assert chain.gas_by_op[OP_VERIFY] == 2 * 296_112


def test_rejection_emits_fraud_event(make_packet, agg_params):
    # the rejected receipt is the fraud event a watcher relays to the hub;
    # the chain charges for it
    chain = Chain(config=scroll())
    receipt, _ = _submit(chain, make_packet, agg_params, mutation="median")
    assert not receipt.accepted
    assert receipt.reason == "WrongMedian"
    assert receipt.final_ms == 30_000 + 2_000
    assert chain.gas_by_op == {OP_VERIFY: 88_029}


def test_rejection_then_honest_resubmission(make_packet, agg_params):
    chain = Chain(config=scroll())
    _submit(chain, make_packet, agg_params, mutation="median")
    receipt, _ = _submit(chain, make_packet, agg_params, now_ms=32_000)
    assert receipt.accepted
    assert chain.gas_by_op == {OP_VERIFY: 2 * 88_029}  # both submissions verified


@pytest.mark.parametrize("committee_size", [5, 10, 15])
def test_gas_independent_of_committee_size(make_packet, committee_size):
    params = AggregationParams(quorum=committee_size, committee_size=committee_size)
    chain = Chain(config=sepolia())
    packet, committee = make_packet(epoch=1, params=params)
    receipt = chain.submit_packet(packet, committee, params, 30_000)
    assert receipt.accepted
    assert receipt.gas_used == 296_112


def test_charge_accumulates_by_operation():
    chain = Chain(config=scroll())
    chain.charge(OP_FRAUD)
    chain.charge(OP_FRAUD)
    chain.charge(OP_GOVERNANCE)
    assert chain.gas_by_op == {OP_FRAUD: 2 * 17_904, OP_GOVERNANCE: 11_706}


def test_finality_time_follows_block_time():
    slow = sepolia()._replace(finality_blocks=3)
    assert slow.finality_ms == 45_000
    assert scroll().finality_ms == 2_000
    assert sepolia().block_time_ms == 15_000
