"""The NDP-capable SSD platform.

Composes every substrate into the system the paper simulates: the NAND SSD
(storage, FTL, channels), the SSD-internal DRAM with its PuD compute
capability, the controller cores (ISP), the in-flash processing unit (IFP),
per-resource execution queues, the host CPU/GPU used by the OSP baselines,
the energy account, the lazy-coherence directory, and the data-movement
engine that shuttles logical pages between flash, SSD DRAM, controller SRAM
and the host.

The runtime offloader (:mod:`repro.core.offload`) asks this platform three
kinds of questions:

* *Where is this operand?* (``location_of`` / ``locations_of_pages``)
* *What would it cost to move it / compute it there?*
  (``estimate_move_latency`` / ``compute_latency`` -- the precomputed
  latency tables of Section 4.5)
* *Actually do it* (``ensure_runs_at`` / ``record_compute``), reserving the
  shared buses and execution sub-units so contention emerges naturally.

Data movement is *run batched*: operands arrive as contiguous LPA runs
(arrays map to contiguous page ranges, Section 4.4), and
:meth:`SSDPlatform.ensure_runs_at` splits each run into maximal segments of
equal current residence.  A segment already at the destination refreshes its
LRU positions in bulk; a moving segment issues one sized reservation per
shared bus (DRAM data bus, PCIe) while flash channels and DRAM banks keep
their exact per-page reservation sequence (runs are striped across
channels/banks).  Segments whose insertion would evict pages from the
destination's capacity window fall back to the per-page reference path
(:meth:`SSDPlatform.ensure_pages_at`), because evicted pages' write-backs
interleave with the segment's own transfers on the shared buses.  The
batched and per-page paths therefore produce identical simulated timings,
energy and movement counters; the test suite keeps a platform whose run
methods loop over the per-page path as the batched engine's oracle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common import (BackendId, DataLocation, MIB, OpType, Resource,
                          ResourceLike, SimulationError)
from repro.core.backends import BackendRegistry
from repro.core.coherence import CoherenceDirectory, CoherencePolicy
from repro.core.contention import LinkContentionMonitor
from repro.dram.config import DRAMConfig
from repro.dram.cxl import CXLPuDBackend, CXLPuDConfig
from repro.dram.dram import DRAMDevice
from repro.dram.pud import PuDBackend, PuDUnit
from repro.energy.model import EnergyAccount
from repro.host.config import HostCPUConfig, HostGPUConfig, HostMemoryConfig
from repro.host.cpu import HostCPU, HostCPUBackend
from repro.host.gpu import HostGPU, HostGPUBackend
from repro.ifp.unit import IFPBackend, IFPUnit
from repro.isp.core import EmbeddedCoreComplex, ISPBackend
from repro.ssd.config import SSDConfig
from repro.ssd.events import Server
from repro.ssd.lifetime import (BackgroundFlashEngine, LifetimeConfig,
                                MaintenanceStats, apply_drive_age)
from repro.ssd.queues import ResourceQueueSet
from repro.ssd.ssd import SSD

#: EWMA smoothing factor of the movement-overrun samples fed to the
#: platform's :class:`LinkContentionMonitor` (1.0 keeps only the latest
#: sample).
CONTENTION_EWMA_ALPHA = 0.3
#: Gain weighting the smoothed relative overrun charged back to an
#: estimate (``scale = 1 + gain * (relative_overrun - 1)``).
CONTENTION_GAIN = 2.0


@dataclass(frozen=True)
class PlatformConfig:
    """Configuration of the full NDP platform."""

    ssd: SSDConfig = field(default_factory=SSDConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    host_cpu: HostCPUConfig = field(default_factory=HostCPUConfig)
    host_gpu: HostGPUConfig = field(default_factory=HostGPUConfig)
    host_memory: HostMemoryConfig = field(default_factory=HostMemoryConfig)

    #: Portion of SSD DRAM usable as PuD compute operand space; the rest
    #: holds FTL metadata and the page cache (Section 2.2).  Dirty operands
    #: are lazily flushed to flash when evicted from this window.  Each
    #: window budget must be positive; one below a flash page still holds
    #: one page.
    dram_compute_window_bytes: int = 64 * MIB
    #: Controller SRAM / register space usable for ISP operands.
    sram_window_bytes: int = 8 * MIB
    #: Host page-cache budget for SSD-resident data (OSP baselines).
    host_cache_bytes: int = 128 * MIB

    coherence_policy: CoherencePolicy = CoherencePolicy.LAZY

    # -- Contention-aware cost model (link-utilization feedback) ------------

    #: Correct the cost model's data-movement estimates with live
    #: link-contention feedback: every completed movement reports its
    #: observed time against the uncontended table estimate, the overrun
    #: (the queueing experienced on the path's shared buses -- flash
    #: channels, SSD DRAM bus, PCIe) is EWMA-smoothed per operand path,
    #: and each candidate's future estimates are scaled by its path's
    #: smoothed overrun (plus the live backlog of backend-private links
    #: such as the CXL command link).  This closes the greedy
    #: per-instruction argmin's blindness to global link contention; see
    #: :mod:`repro.core.contention`.  Off by default so the pinned
    #: goldens keep reproducing the paper's uncorrected cost model
    #: bit-exactly.
    contention_feedback: bool = False

    # -- Backend roster (the platform's compute shape is data, not code) ----

    #: Number of ISP compute-core backends to register.  ``1`` (the paper's
    #: configuration) registers a single backend for the controller's
    #: compute-core pool; ``n > 1`` registers per-core backends
    #: ``isp[0..n)``, each with its own execution queue, so the cost
    #: function sees (and balances) per-core contention.  On a per-core
    #: roster the pooled ``Resource.ISP`` identity is *not* registered --
    #: identity lookups for it fail loudly; discover the cores via
    #: ``platform.backends.backends_of_kind(Resource.ISP)``.
    isp_cores: int = 1

    #: Opt-in CXL-attached PuD tier with its own latency/energy/bandwidth
    #: point (see :mod:`repro.dram.cxl`).  ``None`` disables the tier.
    cxl_pud: Optional[CXLPuDConfig] = None

    #: Device-lifetime axis (see :mod:`repro.ssd.lifetime`): drive-age
    #: profile applied at construction and the background GC/wear engine
    #: that turns maintenance into live traffic on the shared flash
    #: channels.  The default (engine off, no profile) is bit-identical
    #: to the fresh-drive seed behavior.
    lifetime: LifetimeConfig = field(default_factory=LifetimeConfig)

    def __post_init__(self) -> None:
        for name in ("dram_compute_window_bytes", "sram_window_bytes",
                     "host_cache_bytes"):
            value = getattr(self, name)
            if value <= 0:
                raise SimulationError(
                    f"PlatformConfig.{name} must be positive, got {value!r}")
        cores = self.isp_cores
        if isinstance(cores, bool) or not isinstance(cores, int) or cores < 1:
            raise SimulationError(
                f"PlatformConfig.isp_cores must be an int >= 1, got {cores!r}")


class _LocationWindow:
    """LRU-managed capacity window for a temporary operand location."""

    def __init__(self, name: str, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[int, bool]" = OrderedDict()
        self.evictions = 0

    def __contains__(self, lpa: int) -> bool:
        return lpa in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def touch(self, lpa: int) -> None:
        if lpa in self._pages:
            self._pages.move_to_end(lpa)

    def add(self, lpa: int) -> List[int]:
        """Insert a page; return the pages evicted to make room."""
        evicted: List[int] = []
        if lpa in self._pages:
            self._pages.move_to_end(lpa)
            return evicted
        self._pages[lpa] = True
        while len(self._pages) > self.capacity_pages:
            victim, _ = self._pages.popitem(last=False)
            evicted.append(victim)
            self.evictions += 1
        return evicted

    def remove(self, lpa: int) -> None:
        self._pages.pop(lpa, None)

    @property
    def free_capacity(self) -> int:
        """Pages that can be inserted before an eviction becomes necessary."""
        return self.capacity_pages - len(self._pages)

    def touch_many(self, lpas: Iterable[int]) -> None:
        """Refresh LRU positions of resident pages, in order."""
        pages = self._pages
        move = pages.move_to_end
        for lpa in lpas:
            if lpa in pages:
                move(lpa)

    def add_many(self, lpas: Iterable[int]) -> List[int]:
        """Insert pages in MRU order, then evict once for the whole batch.

        Equivalent to per-page :meth:`add` calls: new pages join the MRU
        end, so batch insertion followed by a single eviction sweep pops
        the same victims in the same order as interleaved add/evict.
        """
        pages = self._pages
        move = pages.move_to_end
        for lpa in lpas:
            if lpa in pages:
                move(lpa)
            else:
                pages[lpa] = True
        evicted: List[int] = []
        while len(pages) > self.capacity_pages:
            victim, _ = pages.popitem(last=False)
            evicted.append(victim)
            self.evictions += 1
        return evicted

    def remove_many(self, lpas: Iterable[int]) -> None:
        pop = self._pages.pop
        for lpa in lpas:
            pop(lpa, None)


@dataclass
class DataMovementStats:
    """Aggregate data-movement accounting used by Fig. 4 and Fig. 7(b)."""

    flash_to_dram_pages: int = 0
    flash_to_sram_pages: int = 0
    dram_to_sram_pages: int = 0
    sram_to_dram_pages: int = 0
    writeback_pages: int = 0
    host_pages: int = 0
    internal_latency_ns: float = 0.0
    host_latency_ns: float = 0.0
    flash_read_latency_ns: float = 0.0


def backend_roster(config: PlatformConfig) -> Tuple[str, ...]:
    """Backend identities a configuration will register, in order.

    Computable without building a platform (the sweep cache folds this
    roster into its keys, so entries recorded on a differently-shaped
    platform can never be served).  :meth:`SSDPlatform._build_backends`
    verifies its registry against this prediction on every construction,
    so a roster knob added to one but not the other fails loudly for any
    shape -- the cache guarantee is enforced structurally, not by
    convention.
    """
    roster: List[str] = []
    if config.isp_cores <= 1:
        roster.append(Resource.ISP.value)
    else:
        roster.extend(f"isp[{core}]" for core in range(config.isp_cores))
    roster.append(Resource.PUD.value)
    roster.append(Resource.IFP.value)
    if config.cxl_pud is not None:
        roster.append("cxl-pud")
    roster.append(Resource.HOST_CPU.value)
    roster.append(Resource.HOST_GPU.value)
    return tuple(roster)


class SSDPlatform:
    """The complete simulated system."""

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        self.config = config or PlatformConfig()
        ssd_config = self.config.ssd
        self.ssd = SSD(ssd_config)
        self.dram = DRAMDevice(self.config.dram)
        self.pud = PuDUnit(self.dram)
        self.isp = EmbeddedCoreComplex(ssd_config.controller,
                                       ssd_config.energy)
        self.ifp = IFPUnit(ssd_config.nand, ssd_config.energy)
        self.host_cpu = HostCPU(self.config.host_cpu)
        self.host_gpu = HostGPU(self.config.host_gpu)
        self.energy = EnergyAccount(ssd_config.energy,
                                    self.config.host_memory)
        lifetime = self.config.lifetime
        if lifetime.drive_age is not None:
            # Zero-time pre-history: fragments the array and seeds wear
            # before the dataset is placed, so allocation and GC see an
            # aged drive from the first write.
            apply_drive_age(self.ssd, lifetime.drive_age)
        if lifetime.background_flash:
            self.ssd.attach_background_engine(
                BackgroundFlashEngine(self.ssd, lifetime, self.energy))
        self.coherence = CoherenceDirectory(self.config.coherence_policy)
        #: Every compute engine of the system, keyed by identity; the
        #: offload stack discovers its candidates here.
        self.backends = self._build_backends()
        #: Aggregate view over the backends' execution queues.
        self.queues = ResourceQueueSet(self.backends.queues())
        #: The controller core running the SSD offloader itself.
        self.dispatch_core = Server("offloader-core")

        page = ssd_config.nand.page_size_bytes
        self._page_size = page
        self._dram_window = _LocationWindow(
            "ssd-dram", max(1, self.config.dram_compute_window_bytes // page))
        self._sram_window = _LocationWindow(
            "ctrl-sram", max(1, self.config.sram_window_bytes // page))
        self._host_window = _LocationWindow(
            "host-cache", max(1, self.config.host_cache_bytes // page))
        self._windows: Dict[DataLocation, _LocationWindow] = {
            DataLocation.SSD_DRAM: self._dram_window,
            DataLocation.CTRL_SRAM: self._sram_window,
            DataLocation.HOST: self._host_window,
        }
        self._residence: Dict[int, DataLocation] = {}
        #: Count of capacity evictions back to flash (clean and dirty).
        self.eviction_epoch = 0
        self.movement = DataMovementStats()
        self._move_table = self._build_move_table()
        #: EWMA monitor of observed movement overrun per operand path,
        #: fed only when ``config.contention_feedback`` is enabled (see
        #: :mod:`repro.core.contention`).  Owned per platform, so every
        #: run starts from clean feedback state.
        self.contention = LinkContentionMonitor(CONTENTION_EWMA_ALPHA,
                                                CONTENTION_GAIN)
    # ------------------------------------------------------------------------
    # Backend registry (the platform's compute shape, grown from config)
    # ------------------------------------------------------------------------

    def _build_backends(self) -> BackendRegistry:
        """Register one backend per configured compute engine.

        Registration order is the stable candidate/tie-break order of the
        offload stack; it must match :func:`backend_roster`.
        """
        config = self.config
        ssd_config = config.ssd
        registry = BackendRegistry()
        if config.isp_cores <= 1:
            registry.register(ISPBackend(Resource.ISP, self.isp))
        else:
            for core in range(config.isp_cores):
                registry.register(ISPBackend(
                    BackendId(f"isp[{core}]", Resource.ISP),
                    EmbeddedCoreComplex(ssd_config.controller,
                                        ssd_config.energy),
                    queue_parallelism=1))
        registry.register(PuDBackend(Resource.PUD, self.pud))
        registry.register(IFPBackend(Resource.IFP, self.ifp,
                                     self.ssd.channels))
        if config.cxl_pud is not None:
            registry.register(CXLPuDBackend(
                BackendId("cxl-pud", Resource.PUD), config.cxl_pud))
        registry.register(HostCPUBackend(Resource.HOST_CPU, self.host_cpu,
                                         self.ssd.nvme.pcie))
        registry.register(HostGPUBackend(Resource.HOST_GPU, self.host_gpu,
                                         self.ssd.nvme.pcie))
        expected = backend_roster(config)
        if registry.roster() != expected:
            raise SimulationError(
                f"backend registry {registry.roster()} diverged from "
                f"backend_roster() prediction {expected}; update both when "
                "adding a roster knob (the sweep cache keys on the "
                "prediction)")
        return registry

    def offload_candidates(self) -> Tuple[ResourceLike, ...]:
        """Identities the SSD offloader may target (registration order)."""
        return self.backends.offload_candidates()

    # ------------------------------------------------------------------------
    # Dataset placement
    # ------------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._page_size

    def setup_dataset(self, lpas: Iterable[int], *,
                      colocated_groups: Optional[List[List[int]]] = None
                      ) -> None:
        """Place the application dataset on flash (zero-time setup)."""
        self.ssd.populate(lpas, colocated_groups=colocated_groups)

    # ------------------------------------------------------------------------
    # Operand locations
    # ------------------------------------------------------------------------

    def location_of(self, lpa: int) -> DataLocation:
        return self._residence.get(lpa, DataLocation.FLASH)

    @property
    def residence(self) -> Dict[int, DataLocation]:
        """Residence index: LPA -> current location (flash if absent).

        Exposed (read-only by convention) so the feature collector can
        histogram operand runs in a single pass without a method call per
        page.
        """
        return self._residence

    def locations_of_pages(self, lpas: Iterable[int]
                           ) -> Dict[DataLocation, int]:
        """Histogram of locations for a set of pages."""
        histogram: Dict[DataLocation, int] = {}
        for lpa in lpas:
            location = self.location_of(lpa)
            histogram[location] = histogram.get(location, 0) + 1
        return histogram

    def _window_for(self, location: DataLocation) -> Optional[_LocationWindow]:
        return self._windows.get(location)

    # ------------------------------------------------------------------------
    # Precomputed data-movement latency table (Section 4.5)
    # ------------------------------------------------------------------------

    def _build_move_table(self) -> Dict[Tuple[DataLocation, DataLocation],
                                        float]:
        nand = self.config.ssd.nand
        channels = self.ssd.channels
        dram = self.dram
        nvme = self.ssd.nvme
        page = self._page_size
        flash_out = channels.uncontended_read_latency(transfer_out=True)
        flash_program = channels.uncontended_program_latency()
        dram_access = dram.uncontended_access_latency(page)
        pcie = nvme.host_transfer_latency(page)
        table = {
            (DataLocation.FLASH, DataLocation.SSD_DRAM):
                flash_out + dram_access,
            (DataLocation.FLASH, DataLocation.CTRL_SRAM): flash_out,
            (DataLocation.FLASH, DataLocation.HOST): flash_out + pcie,
            (DataLocation.SSD_DRAM, DataLocation.CTRL_SRAM): dram_access,
            (DataLocation.CTRL_SRAM, DataLocation.SSD_DRAM): dram_access,
            (DataLocation.SSD_DRAM, DataLocation.FLASH):
                dram_access + flash_program,
            (DataLocation.CTRL_SRAM, DataLocation.FLASH): flash_program,
            (DataLocation.SSD_DRAM, DataLocation.HOST): dram_access + pcie,
            (DataLocation.CTRL_SRAM, DataLocation.HOST): pcie,
            (DataLocation.HOST, DataLocation.FLASH): pcie + flash_program,
            (DataLocation.HOST, DataLocation.SSD_DRAM): pcie + dram_access,
            (DataLocation.HOST, DataLocation.CTRL_SRAM): pcie,
        }
        for location in DataLocation:
            table[(location, location)] = 0.0
        return table

    def estimate_move_latency(self, source: DataLocation,
                              destination: DataLocation,
                              pages: int = 1) -> float:
        """Uncontended latency to move ``pages`` pages (lookup table)."""
        per_page = self._move_table[(source, destination)]
        return per_page * max(0, pages)

    # ------------------------------------------------------------------------
    # Data movement (reserves buses, charges energy)
    # ------------------------------------------------------------------------

    def ensure_pages_at(self, now: float, lpas: Iterable[int],
                        destination: DataLocation) -> float:
        """Move every page in ``lpas`` to ``destination``; return finish time.

        Pages already resident at the destination only refresh their LRU
        position.  Dirty pages owned elsewhere are committed to flash first
        (lazy coherence).  Evictions caused by capacity pressure consume
        channel bandwidth but are written back asynchronously, so they do
        not extend the returned finish time.
        """
        finish = now
        for lpa in lpas:
            finish = max(finish, self._move_page(now, lpa, destination))
        return finish

    def ensure_runs_at(self, now: float, runs: Iterable[Tuple[int, int]],
                       destination: DataLocation) -> float:
        """Move contiguous LPA runs to ``destination``; return finish time.

        ``runs`` is an iterable of ``(base_lpa, count)`` pairs, processed in
        order.  Each run is split lazily into maximal segments of equal
        current residence (lazily, because an earlier segment's evictions
        can push a later page of the same operand back to flash): resident
        segments refresh their LRU position in bulk, moving segments go
        through the run transfer engine.  Timing, energy and statistics are
        identical to per-page :meth:`ensure_pages_at` over the same pages.
        """
        finish = now
        get = self._residence.get
        flash = DataLocation.FLASH
        destination_window = self._window_for(destination)
        for base, count in runs:
            index = base
            end = base + count
            while index < end:
                source = get(index, flash)
                stop = index + 1
                while stop < end and get(stop, flash) is source:
                    stop += 1
                if source is destination:
                    if destination_window is not None:
                        destination_window.touch_many(range(index, stop))
                else:
                    segment_end = self._transfer_segment(
                        now, index, stop - index, source, destination,
                        destination_window)
                    if segment_end > finish:
                        finish = segment_end
                index = stop
        return finish

    def _transfer_segment(self, now: float, base: int, count: int,
                          source: DataLocation, destination: DataLocation,
                          destination_window: Optional[_LocationWindow]
                          ) -> float:
        """Move one same-residence segment; dispatch to the best strategy.

        A segment can only be batch-transferred when inserting it into the
        destination window evicts nothing: an eviction's write-back shares
        buses with the segment's own transfers, and the per-page path
        interleaves them, so eviction-heavy segments (and writes back to
        flash, which are striped and trigger per-page maintenance) use the
        exact per-page reference path.
        """
        if ((destination_window is not None
                and count > destination_window.free_capacity)
                or destination is DataLocation.FLASH):
            return self.ensure_pages_at(now, range(base, base + count),
                                        destination)
        if source is DataLocation.FLASH:
            finish = self._transfer_run_from_flash(now, base, count,
                                                   destination)
        else:
            finish = self._transfer_run_internal(now, base, count, source,
                                                 destination)
        source_window = self._window_for(source)
        if source_window is not None:
            source_window.remove_many(range(base, base + count))
        residence = self._residence
        for lpa in range(base, base + count):
            residence[lpa] = destination
        if destination_window is not None:
            victims = destination_window.add_many(range(base, base + count))
            # The free-capacity guard above makes batch insertion
            # eviction-free; an eviction here would have skipped the
            # per-page bus interleaving that timing equivalence requires.
            assert not victims, "batched segment insertion evicted pages"
        return finish

    def _transfer_run_from_flash(self, now: float, base: int, count: int,
                                 destination: DataLocation) -> float:
        """Stream a contiguous run out of flash (reads stay per page).

        Flash reads are striped over channels and dies, so every page keeps
        its own channel/die reservations and L2P translation; the
        destination leg (DRAM bus or PCIe) is reserved once for the run,
        and energy is settled with one bulk charge.
        """
        stats = self.movement
        page = self._page_size
        timings = self.ssd.read_run(now, base, count, transfer_out=True)
        flash_latency = 0.0
        flash_finish = now
        for timing in timings:
            flash_latency += timing.end_ns - now
            if timing.end_ns > flash_finish:
                flash_finish = timing.end_ns
        stats.flash_read_latency_ns += flash_latency
        if destination is DataLocation.SSD_DRAM:
            arrivals = [timing.end_ns for timing in timings]
            addresses = [self._dram_address(lpa)
                         for lpa in range(base, base + count)]
            ends = self.dram.access_run(arrivals, addresses, page,
                                        is_write=True)
            self.energy.charge_run(flash_read_pages=count, dma_pages=count,
                                   dram_bytes=page * count)
            stats.flash_to_dram_pages += count
            internal = 0.0
            for end in ends:
                internal += end - now
            stats.internal_latency_ns += internal
            return ends[-1]
        if destination is DataLocation.CTRL_SRAM:
            self.energy.charge_run(flash_read_pages=count, dma_pages=count)
            stats.flash_to_sram_pages += count
            stats.internal_latency_ns += flash_latency
            return flash_finish
        # destination is HOST
        arrivals = [timing.end_ns for timing in timings]
        ends = self.ssd.nvme.host_transfer_run(arrivals, page, "ssd-to-host")
        self.energy.charge_run(flash_read_pages=count, dma_pages=count,
                               pcie_bytes=page * count,
                               host_dram_bytes=page * count)
        stats.host_pages += count
        host_latency = 0.0
        for end in ends:
            host_latency += end - now
        stats.host_latency_ns += host_latency
        return ends[-1]

    def _transfer_run_internal(self, now: float, base: int, count: int,
                               source: DataLocation,
                               destination: DataLocation) -> float:
        """Move a run between DRAM, SRAM and the host (no flash involved)."""
        stats = self.movement
        page = self._page_size
        if DataLocation.HOST in (source, destination):
            direction = ("ssd-to-host" if destination is DataLocation.HOST
                         else "host-to-ssd")
            ends = self.ssd.nvme.host_transfer_run([now] * count, page,
                                                   direction)
            self.energy.charge_run(pcie_bytes=page * count)
            stats.host_pages += count
            host_latency = 0.0
            for end in ends:
                host_latency += end - now
            stats.host_latency_ns += host_latency
            return ends[-1]
        addresses = [self._dram_address(lpa)
                     for lpa in range(base, base + count)]
        ends = self.dram.access_run([now] * count, addresses, page,
                                    is_write=False)
        self.energy.charge_run(dram_bytes=page * count)
        if destination is DataLocation.CTRL_SRAM:
            stats.dram_to_sram_pages += count
        else:
            stats.sram_to_dram_pages += count
        internal = 0.0
        for end in ends:
            internal += end - now
        stats.internal_latency_ns += internal
        return ends[-1]

    def _move_page(self, now: float, lpa: int,
                   destination: DataLocation) -> float:
        source = self.location_of(lpa)
        if source is destination:
            window = self._window_for(destination)
            if window is not None:
                window.touch(lpa)
            return now
        finish = self._transfer_page(now, lpa, source, destination)
        self._set_residence(lpa, source, destination, now)
        return finish

    def _set_residence(self, lpa: int, source: DataLocation,
                       destination: DataLocation, now: float) -> None:
        source_window = self._window_for(source)
        if source_window is not None:
            source_window.remove(lpa)
        self._residence[lpa] = destination
        destination_window = self._window_for(destination)
        if destination_window is None:
            return
        for victim in destination_window.add(lpa):
            self._evict_page(now, victim)

    def mark_produced(self, now: float, lpas: Iterable[int],
                      location: DataLocation) -> None:
        """Record that ``lpas`` were just produced at ``location``.

        Used after a computation resource writes its destination pages: the
        pages now reside at the resource's home location (dirty, per the
        coherence directory) and occupy its capacity window, possibly
        evicting older pages.
        """
        window = self._window_for(location)
        for lpa in lpas:
            source_window = self._window_for(self.location_of(lpa))
            if source_window is not None and source_window is not window:
                source_window.remove(lpa)
            self._residence[lpa] = location
            if window is not None:
                for victim in window.add(lpa):
                    self._evict_page(now, victim)

    def mark_produced_run(self, now: float, runs: Iterable[Tuple[int, int]],
                          location: DataLocation) -> None:
        """Run-batched :meth:`mark_produced` for contiguous LPA runs.

        Destination runs are contiguous, so occupancy of the producing
        resource's window is updated with one bulk insertion per run; runs
        whose insertion must evict fall back to the per-page path (the
        evicted pages' write-backs interleave on the shared buses).
        """
        window = self._window_for(location)
        residence = self._residence
        flash = DataLocation.FLASH
        for base, count in runs:
            lpas = range(base, base + count)
            if window is not None:
                new_pages = sum(1 for lpa in lpas if lpa not in window)
                if new_pages > window.free_capacity:
                    self.mark_produced(now, lpas, location)
                    continue
            for lpa in lpas:
                source_window = self._window_for(residence.get(lpa, flash))
                if source_window is not None and source_window is not window:
                    source_window.remove(lpa)
                residence[lpa] = location
            if window is not None:
                victims = window.add_many(lpas)
                # Guarded by the new_pages <= free_capacity check above.
                assert not victims, "batched mark_produced evicted pages"

    def _evict_page(self, now: float, lpa: int) -> None:
        """Evict a page from a temporary location back to flash."""
        location = self.location_of(lpa)
        if location is DataLocation.FLASH:
            return
        self.eviction_epoch += 1
        actions = self.coherence.on_evict(lpa)
        if actions:
            # Dirty page: asynchronous write-back consumes flash bandwidth.
            self._transfer_page(now, lpa, location, DataLocation.FLASH,
                                writeback=True)
        self._residence[lpa] = DataLocation.FLASH

    def _dram_address(self, lpa: int) -> int:
        """Spread logical pages across DRAM banks for realistic parallelism."""
        span = self.config.dram.capacity_bytes - self._page_size
        return (lpa * self._page_size) % max(self._page_size, span)

    def _transfer_page(self, now: float, lpa: int, source: DataLocation,
                       destination: DataLocation, *,
                       writeback: bool = False) -> float:
        """Reserve the buses needed to move one page; charge energy."""
        stats = self.movement
        finish = now
        if source is DataLocation.FLASH:
            access = self.ssd.read_page(now, lpa, transfer_out=True)
            self.energy.charge_flash_read()
            self.energy.charge_channel_dma()
            finish = access.end_ns
            stats.flash_read_latency_ns += finish - now
            if destination is DataLocation.SSD_DRAM:
                dram_access = self.dram.write(
                    finish, self._dram_address(lpa), self._page_size)
                self.energy.charge_dram_access(self._page_size)
                finish = dram_access.end_ns
                stats.flash_to_dram_pages += 1
            elif destination is DataLocation.CTRL_SRAM:
                stats.flash_to_sram_pages += 1
            elif destination is DataLocation.HOST:
                transfer = self.ssd.nvme.host_transfer(finish,
                                                       self._page_size,
                                                       "ssd-to-host")
                self.energy.charge_pcie(self._page_size)
                self.energy.charge_host_dram(self._page_size)
                finish = transfer.end_ns
                stats.host_pages += 1
                stats.host_latency_ns += finish - now
        elif destination is DataLocation.FLASH:
            if source is DataLocation.SSD_DRAM:
                read = self.dram.read(now, self._dram_address(lpa),
                                      self._page_size)
                self.energy.charge_dram_access(self._page_size)
                finish = read.end_ns
            elif source is DataLocation.HOST:
                transfer = self.ssd.nvme.host_transfer(now, self._page_size,
                                                       "host-to-ssd")
                self.energy.charge_pcie(self._page_size)
                finish = transfer.end_ns
            access = self.ssd.write_page(finish, lpa)
            self.energy.charge_flash_program()
            self.energy.charge_channel_dma()
            finish = access.end_ns
            stats.writeback_pages += 1
        else:
            # DRAM <-> SRAM <-> host transfers go over the SSD DRAM bus
            # and/or PCIe.
            if DataLocation.HOST in (source, destination):
                transfer = self.ssd.nvme.host_transfer(
                    now, self._page_size,
                    "ssd-to-host" if destination is DataLocation.HOST
                    else "host-to-ssd")
                self.energy.charge_pcie(self._page_size)
                finish = transfer.end_ns
                stats.host_pages += 1
                stats.host_latency_ns += finish - now
            else:
                access = self.dram.read(now, self._dram_address(lpa),
                                        self._page_size)
                self.energy.charge_dram_access(self._page_size)
                finish = access.end_ns
                if destination is DataLocation.CTRL_SRAM:
                    stats.dram_to_sram_pages += 1
                else:
                    stats.sram_to_dram_pages += 1
        if not writeback and DataLocation.HOST not in (source, destination):
            stats.internal_latency_ns += finish - now
        return finish

    # ------------------------------------------------------------------------
    # Computation latency / energy / execution
    # ------------------------------------------------------------------------

    def supports(self, resource: ResourceLike, op: OpType) -> bool:
        return self.backends[resource].supports(op)

    def compute_latency(self, resource: ResourceLike, op: OpType,
                        size_bytes: int, element_bits: int) -> float:
        """Expected computation latency of one instruction on ``resource``."""
        return self.backends[resource].operation_latency(op, size_bytes,
                                                         element_bits)

    def record_compute(self, now: float, resource: ResourceLike, op: OpType,
                       size_bytes: int, element_bits: int) -> float:
        """Record execution on the compute backend; returns its latency."""
        backend = self.backends[resource]
        timing = backend.execute(now, op, size_bytes, element_bits)
        self.energy.add_compute(
            resource, backend.operation_energy(op, size_bytes, element_bits))
        return timing.latency_ns

    # ------------------------------------------------------------------------
    # Utilization snapshot (BW-Offloading input)
    # ------------------------------------------------------------------------

    def bandwidth_utilization(self, resource: ResourceLike,
                              elapsed: float) -> float:
        """Approximate bandwidth utilization of a backend's data path."""
        if elapsed <= 0:
            return 0.0
        return self.backends[resource].utilization(elapsed)

    # ------------------------------------------------------------------------
    # Contention feedback (the cost model's link-utilization input)
    # ------------------------------------------------------------------------

    def movement_path(self, resource: ResourceLike) -> str:
        """Monitor key of the operand path feeding one offload candidate.

        Candidates sharing a home location share the shared-bus path
        (flash channels plus the destination leg: SSD DRAM bus or PCIe),
        so the overrun observed for one backend's movements reprices every
        backend on the same path.
        """
        return self.backends[resource].home_location.value

    def maintenance_stats(self) -> MaintenanceStats:
        """Device-lifetime snapshot of the run (GC/WL pressure and wear).

        Aggregates the background engine's counters (or, with the engine
        off, the legacy synchronous GC/WL counters) with the NAND array's
        erase-count statistics and the FTL's write-amplification view.
        Attached to every :class:`~repro.core.metrics.ExecutionResult`.
        """
        ssd = self.ssd
        lifetime = self.config.lifetime
        engine = ssd.background
        minimum, mean, maximum = ssd.array.erase_count_stats()
        ftl_stats = ssd.ftl.stats
        amplification = 1.0
        if ftl_stats.host_writes:
            amplification = 1.0 + (ftl_stats.relocated_pages /
                                   ftl_stats.host_writes)
        if lifetime.drive_age is not None:
            # The profile's pre-history WA is a floor: an aged drive never
            # reports better amplification than the state it arrived in.
            amplification = max(amplification,
                                lifetime.drive_age.prior_write_amplification)
        stats = MaintenanceStats(
            background_enabled=engine is not None,
            drive_age=(lifetime.drive_age.name if lifetime.drive_age
                       else "fresh"),
            free_block_fraction=ssd.ftl.free_block_fraction(),
            erase_count_min=minimum,
            erase_count_mean=mean,
            erase_count_max=maximum,
            erase_count_variance=ssd.array.erase_count_variance(),
            wear_imbalance=ssd.wear_leveler.imbalance(),
            write_amplification=amplification,
            contention_samples=self.contention.samples)
        if engine is not None:
            stats.gc_steps = engine.gc_steps
            stats.gc_relocated_pages = engine.gc_relocated_pages
            stats.gc_erased_blocks = engine.gc_erased_blocks
            stats.wl_runs = engine.wl_runs
            stats.wl_migrated_pages = engine.wl_migrated_pages
            stats.wl_erased_blocks = engine.wl_erased_blocks
            stats.background_busy_ns = engine.busy_ns
            stats.foreground_stall_ns = engine.foreground_stall_ns
        else:
            stats.gc_steps = ssd.gc.invocations
            stats.gc_relocated_pages = ssd.gc.total_relocated
            stats.gc_erased_blocks = ssd.gc.total_erased
            stats.wl_runs = ssd.wear_leveler.invocations
            stats.wl_migrated_pages = ssd.wear_leveler.total_migrated
            stats.foreground_stall_ns = ssd.stats.maintenance_latency_ns
        return stats

    def observe_movement_contention(self, resource: ResourceLike,
                                    estimated_ns: float,
                                    observed_ns: float) -> None:
        """Feed one completed movement's estimate/actual pair back.

        Called by the offloader's dispatch loop after every operand
        movement; the overrun versus the uncontended table estimate is the
        queueing the movement experienced on its path's shared links
        (:mod:`repro.core.contention`).  A no-op unless
        ``contention_feedback`` is enabled -- feedback-off runs never
        touch the monitor and stay bit-exact.
        """
        if not self.config.contention_feedback:
            return
        self.contention.observe_movement(self.movement_path(resource),
                                         estimated_ns, observed_ns)

    def contention_penalty_ns(self, resource: ResourceLike, op: OpType,
                              size_bytes: int, element_bits: int,
                              movement_ns: float, now: float) -> float:
        """Expected extra delay from link contention for one candidate.

        Three terms, all exactly ``0.0`` with feedback disabled:

        * ``movement_ns`` (the candidate's uncontended movement estimate)
          scaled by the EWMA-observed overrun of its operand path, plus
          the live backlog of any backend-private link on that path (the
          CXL command link) -- a candidate moving nothing pays neither
          (its tier's busy-ness is already the queueing-delay feature);
        * the shared flash-channel occupancy the candidate's *execution*
          would impose (Ares-Flash partial-product shuttling), priced at
          the channels' uncontended transfer time.  This traffic never
          extends the instruction's own latency, so without feedback it
          is a free externality on every flash-bound movement.
        """
        if not self.config.contention_feedback:
            return 0.0
        backend = self.backends[resource]
        penalty = 0.0
        if movement_ns > 0.0:
            # Private-link backlog rides with the movement term: a
            # zero-movement candidate's busy tier is already priced by
            # the queueing-delay feature (its execution queue is a
            # per-candidate cost input), so charging the link again
            # there double-counts and measurably over-deters.
            scale = self.contention.scale(self.movement_path(resource))
            penalty += (movement_ns * (scale - 1.0) +
                        backend.link_backlog_ns(now))
        if self.contention.samples > 0:
            # The externality price activates with the feedback loop's
            # first observation: under provably zero traffic (nothing
            # moved yet) feedback-on estimates must equal feedback-off.
            channel_bytes = backend.execution_channel_bytes(op, size_bytes,
                                                            element_bits)
            if channel_bytes > 0.0:
                penalty += self.ssd.channels.channels.transfer_time(
                    channel_bytes)
        return penalty

    # ------------------------------------------------------------------------
    # Home locations
    # ------------------------------------------------------------------------

    def home_location(self, resource: ResourceLike) -> DataLocation:
        """Where operands must reside for ``resource`` to compute."""
        return self.backends[resource].home_location
