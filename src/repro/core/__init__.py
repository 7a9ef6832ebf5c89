"""The paper's primary contribution: delay-optimal quorum-based mutex.

:class:`~repro.core.site.CaoSinghalSite` implements the Section 3
algorithm (synchronization delay ``T``, message complexity ``c*K`` with
``3 <= c <= 6``); :class:`~repro.core.faults.FaultTolerantSite` adds the
Section 6 failure-handling protocol on top.
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "Fail": "repro.core.messages",
        "FailureNotice": "repro.core.messages",
        "Inquire": "repro.core.messages",
        "Release": "repro.core.messages",
        "Reply": "repro.core.messages",
        "Request": "repro.core.messages",
        "Transfer": "repro.core.messages",
        "Yield": "repro.core.messages",
        "CaoSinghalSite": "repro.core.site",
        "ArbiterState": "repro.core.state",
        "RequestQueue": "repro.core.state",
        "RequesterState": "repro.core.state",
        "TranStack": "repro.core.state",
    },
)
