"""FlexFetch (ICPP 2007) reproduction.

A trace-driven simulation study of history-aware I/O data-source
selection for mobile energy saving: should a request be serviced from
the local laptop disk or from a remote replica over the wireless NIC?

Public API tour
---------------
Workloads::

    from repro.traces.synth import generate_mplayer
    trace = generate_mplayer(seed=7)

Policies and replay::

    from repro import (DiskOnlyPolicy, WnicOnlyPolicy, BlueFSPolicy,
                       FlexFetchPolicy, ProgramSpec, SimulationSession,
                       profile_from_trace)
    profile = profile_from_trace(trace)          # the recorded history
    result = SimulationSession([ProgramSpec(trace)],
                               FlexFetchPolicy(profile)).run()
    print(result.total_energy, result.end_time)

Paper evaluation::

    from repro.experiments import figure2, render_figure
    print(render_figure(figure2()))

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core.bluefs import BlueFSConfig, BlueFSPolicy
from repro.core.decision import DataSource, decide
from repro.core.flexfetch import FlexFetchConfig, FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, Policy, WnicOnlyPolicy
from repro.core.profile import ExecutionProfile, profile_from_trace
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.telemetry import (
    MetricsSink,
    NullSink,
    RecordingSink,
    RunResult,
)
from repro.core.workload import ProgramSpec
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA, DiskSpec, WnicSpec
from repro.traces.trace import Trace
from repro import units
from repro.units import (
    Bytes,
    BytesPerSecond,
    Joules,
    Seconds,
    Watts,
    approx_eq,
)

__version__ = "1.0.0"

__all__ = [
    "BlueFSConfig",
    "BlueFSPolicy",
    "DataSource",
    "decide",
    "FlexFetchConfig",
    "FlexFetchPolicy",
    "DiskOnlyPolicy",
    "Policy",
    "WnicOnlyPolicy",
    "ExecutionProfile",
    "profile_from_trace",
    "MetricsSink",
    "MobileSystem",
    "NullSink",
    "ProgramSpec",
    "RecordingSink",
    "RunResult",
    "SimulationSession",
    "AIRONET_350",
    "HITACHI_DK23DA",
    "DiskSpec",
    "WnicSpec",
    "Trace",
    "units",
    "Seconds",
    "Joules",
    "Watts",
    "Bytes",
    "BytesPerSecond",
    "approx_eq",
    "__version__",
]
