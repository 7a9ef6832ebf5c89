"""Quorum replica control (the paper's Section 7 application).

A versioned replicated register over any intersecting quorum system
(:class:`ReplicaSite`), plus the combination the paper's conclusion
proposes: updates serialized by the delay-optimal mutex
(:class:`LockedRegisterSite`).
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "LockedRegisterSite": "repro.replication.locked",
        "ReadAck": "repro.replication.messages",
        "ReadReq": "repro.replication.messages",
        "Version": "repro.replication.messages",
        "WriteAck": "repro.replication.messages",
        "WriteReq": "repro.replication.messages",
        "ZERO_VERSION": "repro.replication.messages",
        "ReplicaRole": "repro.replication.replica",
        "ReplicaSite": "repro.replication.replica",
    },
)
