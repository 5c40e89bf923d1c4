"""repro — a reproduction of *vProbe: Scheduling Virtual Machines on
NUMA Systems* (Wu et al., IEEE CLUSTER 2016).

The package builds, from scratch, everything the paper's evaluation
needs: a NUMA machine model with shared LLCs, memory controllers and
interconnect (:mod:`repro.hardware`); analytic application profiles
calibrated to the paper's measurements (:mod:`repro.workloads`); a
Xen-4.0.1-style hypervisor substrate with the Credit scheduler and an
epoch-based simulator (:mod:`repro.xen`); the vProbe scheduler and its
ablations (:mod:`repro.core`); the BRM comparison baseline
(:mod:`repro.baselines`); metrics (:mod:`repro.metrics`); and one
experiment module per table/figure (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import quick_comparison
>>> rows = quick_comparison("soplex", schedulers=("credit", "vprobe"))
"""

from repro.hardware import (
    LatencySpec,
    NUMATopology,
    symmetric_topology,
    xeon_e5620,
)
from repro.workloads import (
    ApplicationProfile,
    NPB_PROFILES,
    SPEC_PROFILES,
    get_profile,
    hungry_loop,
    memcached_profile,
    redis_profile,
    scaled_profile,
    synthetic_profile,
)
from repro.xen import (
    CreditParams,
    CreditScheduler,
    Domain,
    Machine,
    MemoryPlacement,
    SimConfig,
    SimResult,
)
from repro.core import (
    Bounds,
    DynamicBounds,
    VProbeScheduler,
    load_balance_only,
    vcpu_partition_only,
    vprobe,
)
from repro.baselines import BRMScheduler
from repro.cache import ResultCache, resolve_cache
from repro.metrics import RunSummary, summarize
from repro.experiments import make_scheduler, quick_comparison
from repro.obs import (
    diff_traces,
    read_trace,
    validate_trace_file,
    write_trace,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # hardware
    "NUMATopology",
    "xeon_e5620",
    "symmetric_topology",
    "LatencySpec",
    # workloads
    "ApplicationProfile",
    "SPEC_PROFILES",
    "NPB_PROFILES",
    "get_profile",
    "hungry_loop",
    "memcached_profile",
    "redis_profile",
    "synthetic_profile",
    "scaled_profile",
    # xen
    "Domain",
    "MemoryPlacement",
    "Machine",
    "SimConfig",
    "SimResult",
    "CreditScheduler",
    "CreditParams",
    # core
    "Bounds",
    "DynamicBounds",
    "VProbeScheduler",
    "vprobe",
    "vcpu_partition_only",
    "load_balance_only",
    # baselines
    "BRMScheduler",
    # metrics & experiments
    "RunSummary",
    "summarize",
    "make_scheduler",
    "quick_comparison",
    # result cache
    "ResultCache",
    "resolve_cache",
    # observability
    "write_trace",
    "read_trace",
    "diff_traces",
    "validate_trace_file",
]
