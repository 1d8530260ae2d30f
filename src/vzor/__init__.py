"""Deterministic desk-scale model of a proof-carrying cross-chain oracle.

Entropy beacon (``vzor.beacon``), VRF committee sortition (``vzor.vrf``),
median aggregation with signed witnesses (``vzor.oracle``,
``vzor.packets``, ``vzor.proofs``), per-chain verification under a
constant gas model (``vzor.chains``), restaked slashing (``vzor.hub``),
and a discrete-event simulator tying the lifecycle together
(``vzor.netsim``).  ``vzor.cli`` is the command line.
"""

__version__ = "0.1.0"
