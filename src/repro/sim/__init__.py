"""Discrete-event simulation substrate.

Implements the paper's system model (Section 2): ``N`` fully connected
sites communicating asynchronously over reliable FIFO channels with
unpredictable but positive message delays, no shared memory, no global
clock. The fault-tolerance experiments extend the model with fail-stop
crashes and severed links; the robustness experiments drop the
reliable-channel assumption entirely (:class:`FaultModel` makes the raw
network lossy/duplicating/reordering, :class:`ReliableTransport`
rebuilds exactly-once FIFO delivery on top).
"""

from repro._lazy import lazy

__getattr__, __dir__, __all__ = lazy(
    __name__,
    {
        "Event": "repro.sim.event",
        "EventQueue": "repro.sim.event",
        "ConstantDelay": "repro.sim.network",
        "DelayModel": "repro.sim.network",
        "ExponentialDelay": "repro.sim.network",
        "FaultModel": "repro.sim.network",
        "GilbertElliott": "repro.sim.network",
        "LogNormalDelay": "repro.sim.network",
        "Network": "repro.sim.network",
        "NetworkStats": "repro.sim.network",
        "ParetoDelay": "repro.sim.network",
        "UniformDelay": "repro.sim.network",
        "Node": "repro.sim.node",
        "SeedSequence": "repro.sim.rng",
        "Simulator": "repro.sim.simulator",
        "NullTrace": "repro.sim.trace",
        "Trace": "repro.sim.trace",
        "TraceRecord": "repro.sim.trace",
        "ReliableConfig": "repro.sim.transport",
        "ReliableTransport": "repro.sim.transport",
        "TransportStats": "repro.sim.transport",
    },
)
