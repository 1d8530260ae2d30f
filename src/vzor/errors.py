"""Exception types raised by protocol operations.

Verification failures of oracle packets are NOT exceptions: they are
returned as :class:`vzor.proofs.VerifyResult` values so that rejection
is an ordinary, traceable outcome.  Exceptions here gate construction
and configuration.
"""

from __future__ import annotations


class VzorError(Exception):
    """Base class for all protocol errors."""


class UnverifiableScore(VzorError):
    """A sortition score offered for committee membership fails VRF verification."""


class RegistryTooSmall(VzorError):
    """Fewer registered reporters than the requested committee size."""


class ValueOutOfRange(VzorError):
    """Observation value outside the configured [v_min, v_max] bounds."""


class EmptyInput(VzorError):
    """Aggregation over an empty value list."""


class QuorumNotMet(VzorError):
    """Fewer valid observations than the required quorum."""


class NonMember(VzorError):
    """Observation from a reporter outside the epoch committee."""


class EpochMismatch(VzorError):
    """Observation bound to a different epoch than the packet under construction."""


class DuplicateObservation(VzorError):
    """More than one observation from the same committee member."""


class MalformedWitness(VzorError):
    """Witness violates structural canonical form (ordering, duplicates, field widths)."""


class InsufficientStake(VzorError):
    """Registration stake below the ledger minimum."""


class AlreadyRegistered(VzorError):
    """Reporter already holds a ledger entry."""


class MalformedFraudProof(VzorError):
    """Fraud proof fails structural validation before adjudication."""


class UnknownParameter(VzorError):
    """Parameter name outside the governed set."""


class UnknownOperation(VzorError):
    """Operation kind missing from a chain's gas table."""


class InvalidScenario(VzorError):
    """Scenario configuration violates a cross-field constraint."""


class ConfigError(VzorError):
    """Scenario file cannot be parsed into configuration keys."""


class TraceCorruption(VzorError):
    """Trace file cannot be parsed back into records."""
