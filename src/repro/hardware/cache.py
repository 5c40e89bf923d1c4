"""Shared last-level-cache (LLC) model.

The paper's mechanisms revolve around LLC behaviour: vProbe classifies
VCPUs by *LLC access pressure* (references per kilo-instruction), its
partitioner balances LLC-hungry VCPUs across sockets, and its load
balancer avoids migrations that would break LLC-contention balance.
The model therefore has to capture three effects:

1. **Capacity sharing.**  Co-running VCPUs on one socket divide the LLC.
   We use demand-proportional occupancy with a water-filling step: each
   VCPU's share is proportional to its demand weight (working set times
   access intensity) but never exceeds its working set; slack from
   capped VCPUs is redistributed to the rest.  This is the classical
   analytic approximation for LRU-managed shared caches.

2. **Miss-rate curves.**  Each VCPU carries a curve mapping *resident
   fraction* of its working set to a miss rate, interpolating between a
   fully-cached floor and a thrashing ceiling.  The three paper
   categories fall out of the parameters: LLC-FR has a tiny working set
   (always resident, low misses), LLC-FI fits alone but degrades under
   contention, LLC-T misses heavily even alone.

3. **Migration cold start.**  A VCPU's occupancy on an LLC is scaled by
   a *warmth* in [0, 1] that charges toward 1 while it runs there and
   decays while it does not.  Cross-socket migration therefore costs a
   refill period of elevated misses — the reason frequent NUMA-blind
   migration hurts, and the effect vProbe's stable partitioning avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Mapping, Sequence, Tuple

from repro.util.validation import check_fraction, check_non_negative, check_positive

__all__ = ["CacheDemand", "CacheOccupancy", "LLCState", "CacheModel", "waterfill_shares"]


@dataclass(frozen=True, slots=True)
class CacheDemand:
    """A VCPU's instantaneous demand on a shared LLC.

    Attributes
    ----------
    working_set_bytes:
        Bytes the workload would keep resident if it had the LLC alone.
    intensity:
        Relative access intensity used as the occupancy weight; LLC
        references per cycle is a good proxy.  Dimensionless.
    min_miss_rate:
        Miss rate (fraction of LLC references that miss) when the whole
        working set is resident: compulsory + coherence misses.
    max_miss_rate:
        Miss rate when essentially none of the working set is resident.
    curve_shape:
        Exponent of the miss-rate curve; 1.0 is linear in the missing
        fraction, >1 makes the workload tolerant until most of its set
        is evicted (typical for loop-based numeric codes).
    """

    working_set_bytes: float
    intensity: float
    min_miss_rate: float
    max_miss_rate: float
    curve_shape: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative(self.working_set_bytes, "working_set_bytes")
        check_non_negative(self.intensity, "intensity")
        check_fraction(self.min_miss_rate, "min_miss_rate")
        check_fraction(self.max_miss_rate, "max_miss_rate")
        check_positive(self.curve_shape, "curve_shape")
        if self.max_miss_rate < self.min_miss_rate:
            raise ValueError(
                "max_miss_rate must be >= min_miss_rate "
                f"({self.max_miss_rate} < {self.min_miss_rate})"
            )

    def miss_rate(self, resident_fraction: float) -> float:
        """Miss rate given the fraction of the working set resident."""
        f = min(1.0, max(0.0, resident_fraction))
        if self.curve_shape == 1.0:
            # pow(x, 1.0) == x exactly (IEEE 754), so the linear curve
            # can skip the libm call the hot loop pays for every ref.
            missing = 1.0 - f
        else:
            missing = (1.0 - f) ** self.curve_shape
        return self.min_miss_rate + (self.max_miss_rate - self.min_miss_rate) * missing


def waterfill_shares(
    capacity: float,
    weights: Sequence[float],
    caps: Sequence[float],
) -> List[float]:
    """Split ``capacity`` proportionally to ``weights``, capped per item.

    Items whose proportional share exceeds their cap are clamped to the
    cap and the slack is re-split among the remaining items, repeating
    until stable.  Runs in O(n^2) worst case, which is fine for the
    handful of cores per socket the simulator models.

    Parameters
    ----------
    capacity:
        Total resource (bytes of LLC).
    weights:
        Non-negative demand weights; zero-weight items receive nothing.
    caps:
        Per-item maximum useful allocation (the working set).

    Returns
    -------
    list of float
        Allocations, ``sum(alloc) <= capacity`` and ``alloc[i] <= caps[i]``.
    """
    check_non_negative(capacity, "capacity")
    if len(weights) != len(caps):
        raise ValueError("weights and caps must have equal length")
    n = len(weights)
    alloc = [0.0] * n
    active = [i for i in range(n) if weights[i] > 0 and caps[i] > 0]
    remaining = capacity
    while active and remaining > 1e-12:
        total_w = sum([weights[i] for i in active])
        if total_w <= 0:
            break
        capped: List[int] = []
        next_active: List[int] = []
        for i in active:
            proposed = alloc[i] + remaining * (weights[i] / total_w)
            if proposed >= caps[i] - 1e-12:
                capped.append(i)
            else:
                next_active.append(i)
        if capped:
            # Clamp the capped items, recompute slack, iterate on the rest.
            freed = 0.0
            for i in capped:
                freed += caps[i] - alloc[i]
                alloc[i] = caps[i]
            remaining -= freed
            active = next_active
        else:
            for i in active:
                alloc[i] += remaining * (weights[i] / total_w)
            remaining = 0.0
            break
    return alloc


@dataclass(slots=True)
class CacheOccupancy:
    """Result of a per-LLC contention solve for one epoch.

    Attributes
    ----------
    shares:
        Allocated LLC bytes per VCPU key.
    resident_fraction:
        Warmth-scaled resident fraction of each VCPU's working set.
    miss_rates:
        Effective miss rate per VCPU key.
    pressure:
        Sum of working sets over LLC capacity (>1 means oversubscribed).
    """

    shares: Dict[int, float]
    resident_fraction: Dict[int, float]
    miss_rates: Dict[int, float]
    pressure: float


class LLCState:
    """Per-LLC warmth tracking for migration cold-start modelling.

    ``warmth[vcpu]`` in [0, 1] is the fraction of the VCPU's *allocated*
    footprint already filled on this LLC.  It charges exponentially with
    time constant ``refill_time(working_set)`` while the VCPU runs here
    and decays with ``decay_time`` while it does not (other workloads
    evict its lines).
    """

    #: Bandwidth at which a working set refills into the LLC (bytes/s).
    #: ~4 GB/s of useful fill is a conservative fraction of IMC peak.
    FILL_BANDWIDTH = 4.0e9

    #: Time constant for eviction of an absent VCPU's lines (seconds).
    DECAY_TIME = 0.050

    #: Warmth below which an entry is dropped from the table.
    _EPSILON = 1e-3

    def __init__(self) -> None:
        self._warmth: Dict[int, float] = {}
        # Decay factor memo for the fixed-dt fast path
        # (advance_compact_batch): exp(-dt / DECAY_TIME) is invariant
        # while dt is.
        self._decay_dt: float | None = None
        self._decay_factor: float = 1.0

    def warmth(self, vcpu_key: int) -> float:
        """Current warmth of ``vcpu_key`` on this LLC (0 if never ran)."""
        return self._warmth.get(vcpu_key, 0.0)

    @property
    def warmth_table(self) -> Mapping[int, float]:
        """Live view of the warmth table, for hot-path readers.

        The returned mapping is the state's own table (not a copy) and
        stays valid across :meth:`advance` calls; treat it as read-only.
        """
        return self._warmth

    def advance(
        self,
        dt: float,
        running: Mapping[int, float],
    ) -> None:
        """Advance warmth by ``dt`` seconds.

        Parameters
        ----------
        dt:
            Epoch length in seconds.
        running:
            Map of vcpu_key -> working_set_bytes for VCPUs that ran on
            this LLC during the epoch.  All other tracked VCPUs decay.
        """
        check_non_negative(dt, "dt")
        decay = math.exp(-dt / self.DECAY_TIME) if dt > 0 else 1.0
        stale: List[int] = []
        for key, w in self._warmth.items():
            if key in running:
                continue
            w *= decay
            if w < self._EPSILON:
                stale.append(key)
            else:
                self._warmth[key] = w
        for key in stale:
            del self._warmth[key]
        for key, working_set in running.items():
            tau = max(1e-4, working_set / self.FILL_BANDWIDTH)
            current = self._warmth.get(key, 0.0)
            # Exponential charge toward 1 with time constant tau.
            self._warmth[key] = 1.0 - (1.0 - current) * math.exp(-dt / tau)

    def advance_compact_batch(
        self,
        dt: float,
        steps: int,
        keys: Sequence[int],
        final_warmth: Sequence[float],
        key_set: AbstractSet[int],
    ) -> None:
        """Commit ``steps`` quiet epochs of warmth evolution at once.

        The caller (the batched engine) has already iterated the member
        charge recurrence ``w <- 1 - (1 - w) * charge`` ``steps`` times,
        where ``charge`` is ``exp(-dt / max(1e-4, working_set /
        FILL_BANDWIDTH))`` as in :meth:`advance`, and passes the final
        values in ``final_warmth``; ``key_set`` must be ``set(keys)``.
        Non-member keys decay through the same sequential per-epoch
        multiplies :meth:`advance` performs.  The epsilon eviction check
        runs once at the end, which is state-equivalent: decay is
        monotone, so a key below the threshold at any interior epoch is
        below it at the end too, and nothing reads non-member warmth
        mid-batch.  With no members (``keys`` empty) this is ``steps``
        idle epochs of pure decay.
        """
        if dt != self._decay_dt:
            self._decay_dt = dt
            self._decay_factor = math.exp(-dt / self.DECAY_TIME) if dt > 0 else 1.0
        decay = self._decay_factor
        warmth = self._warmth
        eps = self._EPSILON
        chain = range(steps)
        stale: List[int] = []
        for key, w in warmth.items():
            if key not in key_set:
                for _ in chain:
                    w *= decay
                if w < eps:
                    stale.append(key)
                else:
                    warmth[key] = w
        for key in stale:
            del warmth[key]
        for key, final in zip(keys, final_warmth):
            warmth[key] = final

    def evict(self, vcpu_key: int) -> None:
        """Forget a VCPU entirely (domain destroyed)."""
        self._warmth.pop(vcpu_key, None)

    def tracked(self) -> Tuple[int, ...]:
        """Keys currently holding non-zero warmth (sorted)."""
        return tuple(sorted(self._warmth))


class CacheModel:
    """Solves per-epoch LLC contention for one socket's LLC.

    One instance per NUMA node; holds that LLC's capacity and warmth
    state, and turns the set of co-running VCPU demands into per-VCPU
    miss rates.
    """

    def __init__(self, capacity_bytes: float) -> None:
        self.capacity_bytes = check_positive(capacity_bytes, "capacity_bytes")
        self.state = LLCState()

    def solve(
        self,
        demands: Mapping[int, CacheDemand],
    ) -> CacheOccupancy:
        """Compute occupancy and miss rates for co-running ``demands``.

        The warmth state is *not* advanced here; call :meth:`advance`
        after the epoch so that the solve reflects state at epoch start.
        """
        keys = sorted(demands)
        weights = []
        caps = []
        for k in keys:
            d = demands[k]
            weights.append(d.intensity * max(d.working_set_bytes, 1.0))
            caps.append(d.working_set_bytes)
        allocs = waterfill_shares(self.capacity_bytes, weights, caps)

        shares: Dict[int, float] = {}
        resident: Dict[int, float] = {}
        miss_rates: Dict[int, float] = {}
        total_ws = 0.0
        for k, alloc in zip(keys, allocs):
            d = demands[k]
            total_ws += d.working_set_bytes
            shares[k] = alloc
            if d.working_set_bytes <= 0:
                frac = 1.0
            else:
                frac = min(1.0, alloc / d.working_set_bytes) * self.state.warmth(k)
            resident[k] = frac
            miss_rates[k] = d.miss_rate(frac)
        pressure = total_ws / self.capacity_bytes if self.capacity_bytes else 0.0
        return CacheOccupancy(
            shares=shares,
            resident_fraction=resident,
            miss_rates=miss_rates,
            pressure=pressure,
        )

    def advance(self, dt: float, demands: Mapping[int, CacheDemand]) -> None:
        """Advance warmth after an epoch in which ``demands`` ran here."""
        running = {k: d.working_set_bytes for k, d in demands.items()}
        self.state.advance(dt, running)
