use std::collections::BTreeMap;
use std::fmt;

use cta_dram::{profile_cell_types, CellTypeMap, DramConfig, DramModule, ProfilerConfig, RowId};
use cta_mem::{GfpFlags, MemoryMap, Pfn, PtLevel, PtpLayout, PtpSpec, ZonedAllocator, PAGE_SIZE};

use crate::addr::VirtAddr;
use crate::error::VmError;
use crate::file::{FileId, FileObject};
use crate::psc::{Psc, PscEntry};
use crate::pte::{Pte, PteFlags};
use crate::tlb::{Tlb, TlbEntry};
use crate::walker::{Access, WalkStart, Walker};

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid#{}", self.0)
    }
}

/// Who owns a physical frame — the ground truth the exploit checker uses to
/// decide whether an attacker escaped its sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOwner {
    /// Kernel-private data.
    Kernel,
    /// A page-table page of some process.
    PageTable {
        /// Owning process.
        pid: Pid,
        /// Which level of the hierarchy the page serves.
        level: PtLevel,
    },
    /// An anonymous user page.
    Anonymous {
        /// Owning process.
        pid: Pid,
    },
    /// A page backing a file object.
    File {
        /// The file.
        id: FileId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MappingKind {
    Anonymous {
        pfn: Pfn,
    },
    File {
        id: FileId,
        page_index: usize,
    },
    /// A kernel-owned frame mapped into user space (double-owned page,
    /// e.g. a video buffer — the CATT bypass of section 2.5).
    SharedKernel {
        pfn: Pfn,
    },
}

/// Size of a huge (PD-level) page: 2 MiB.
pub const HUGE_PAGE_SIZE: u64 = 2 << 20;

/// A user process: its page-table root and mapping bookkeeping.
#[derive(Debug, Clone)]
pub struct Process {
    pid: Pid,
    trusted: bool,
    cr3: Pfn,
    mappings: BTreeMap<u64, MappingKind>,
    huge_mappings: BTreeMap<u64, Pfn>,
    pt_pages: Vec<(Pfn, PtLevel)>,
}

impl Process {
    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Whether the process is trusted (may receive trusted-stripe frames).
    pub fn trusted(&self) -> bool {
        self.trusted
    }

    /// Physical frame of the PML4 root.
    pub fn cr3(&self) -> Pfn {
        self.cr3
    }

    /// Page-table pages owned by the process, with their levels.
    pub fn pt_pages(&self) -> &[(Pfn, PtLevel)] {
        &self.pt_pages
    }

    /// Number of live 4 KiB page mappings.
    pub fn mapping_count(&self) -> usize {
        self.mappings.len()
    }
}

/// One page-table entry found by [`Kernel::iter_pt_entries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteRecord {
    /// Hierarchy level of the table holding the entry.
    pub level: PtLevel,
    /// Frame of the table page.
    pub table: Pfn,
    /// Physical byte address of the entry itself.
    pub entry_addr: u64,
    /// The entry's current value (read without disturbing the simulation).
    pub pte: Pte,
}

/// Kernel-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Page-table pages allocated via `pte_alloc`.
    pub pt_pages_allocated: u64,
    /// User data pages allocated.
    pub user_pages_allocated: u64,
    /// Leaf mappings installed.
    pub maps: u64,
    /// Leaf mappings removed.
    pub unmaps: u64,
    /// Page-table walks performed (TLB misses).
    pub walks: u64,
}

impl cta_telemetry::StatSource for KernelStats {
    fn group(&self) -> &'static str {
        "kernel"
    }

    fn record(&self, g: &mut cta_telemetry::Group) {
        g.add_u64("pt_pages_allocated", self.pt_pages_allocated);
        g.add_u64("user_pages_allocated", self.user_pages_allocated);
        g.add_u64("maps", self.maps);
        g.add_u64("unmaps", self.unmaps);
        g.add_u64("walks", self.walks);
    }
}

/// Configuration of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// The DRAM module to boot on.
    pub dram: DramConfig,
    /// Enable CTA with this `ZONE_PTP` spec (None = stock kernel).
    pub cta: Option<PtpSpec>,
    /// Identify cell types with the boot-time profiler (section 2.2) instead
    /// of consulting the module's ground truth. Slower, but exercises the
    /// full system path.
    pub profile_cells: bool,
    /// TLB capacity in entries.
    pub tlb_entries: usize,
    /// Per-level paging-structure-cache capacity in entries (the PML4E,
    /// PDPTE, and PDE caches each hold this many); 0 disables the PSC so a
    /// TLB miss always walks from CR3.
    pub psc_entries: usize,
    /// Override the cell-type map used for `ZONE_PTP` construction — for
    /// misconfiguration experiments such as the paper's anti-cell-only
    /// baseline (section 5). `None` uses the profiler or ground truth.
    pub cell_map_override: Option<CellTypeMap>,
    /// Apply the section 7 page-size-bit screen at boot: frames with
    /// vulnerable PS-bit cells are excluded from the high-level-table
    /// sub-zones of `ZONE_PTP`.
    pub screen_ps_bit: bool,
    /// Use an externally constructed memory map instead of deriving one —
    /// how a hypervisor hands a guest its assigned `ZONE_PTP` slice
    /// (section 7). Takes precedence over `cta`.
    pub memory_map_override: Option<MemoryMap>,
}

impl KernelConfig {
    /// A small machine for tests: 8 MiB of DRAM in 4 KiB rows (one page per
    /// row), cell types alternating every 64 rows, no CTA.
    pub fn small_test() -> Self {
        use cta_dram::{AddressMapping, CellLayout, CellType, DisturbanceParams, DramGeometry};
        let geometry = DramGeometry::new(4096, 2048, 1, AddressMapping::RowLinear);
        let dram = DramConfig {
            geometry,
            layout: CellLayout::Alternating { period_rows: 64, first: CellType::True },
            disturbance: DisturbanceParams { pf: 0.02, ..DisturbanceParams::default() },
            retention: cta_dram::RetentionParams::default(),
            refresh_interval_ns: 64_000_000,
            seed: 0xBEEF,
        };
        KernelConfig {
            dram,
            cta: None,
            profile_cells: false,
            tlb_entries: 64,
            psc_entries: 16,
            cell_map_override: None,
            screen_ps_bit: false,
            memory_map_override: None,
        }
    }

    /// The small test machine with CTA enabled (256 KiB `ZONE_PTP`).
    pub fn small_test_cta() -> Self {
        KernelConfig {
            cta: Some(PtpSpec::paper_default().with_size(256 * 1024)),
            ..Self::small_test()
        }
    }

    /// Builder-style CTA override.
    pub fn with_cta(mut self, spec: PtpSpec) -> Self {
        self.cta = Some(spec);
        self
    }
}

/// The miniature operating system tying DRAM, the zoned allocator, and the
/// MMU together.
///
/// The kernel's `pte_alloc` is the site of the paper's 18-line patch: with
/// CTA enabled every page-table page is requested with `__GFP_PTP` and thus
/// lands in a true-cell sub-zone above the low water mark; without CTA the
/// request is ordinary `GFP_KERNEL` and page tables mix freely with data —
/// the precondition of every PTE-based privilege-escalation attack.
pub struct Kernel {
    dram: DramModule,
    /// Everything else a trial may change, in one struct so that forks,
    /// journal snapshots and rollbacks copy all of it by construction.
    state: KernelState,
    multi_level: bool,
    /// Snapshot of [`Self::state`] taken by [`Self::journal_begin`], if a
    /// trial is running in place on this kernel. `None` outside journaled
    /// trials.
    journal: Option<Box<KernelState>>,
    /// The last rolled-back snapshot, which the next
    /// [`Self::journal_begin`] copies the state into, reusing its tables.
    spare_snapshot: Option<Box<KernelState>>,
}

/// Every kernel-side plane a journaled trial may mutate. The DRAM module
/// journals itself (row pre-images plus its own state snapshot, see
/// `cta_dram`'s journal); this struct covers the seams above it: PTE
/// stores land in DRAM rows (journaled there), but the allocator's
/// free-lists, the TLB/PSC arrays, and the process/file/owner maps live
/// outside DRAM and must be restored exactly — they are all O(machine
/// metadata), orders of magnitude smaller than the row contents.
struct KernelState {
    alloc: ZonedAllocator,
    walker: Walker,
    tlb: Tlb,
    psc: Psc,
    processes: BTreeMap<u64, Process>,
    files: BTreeMap<u64, FileObject>,
    /// Who owns each frame, indexed by frame number: the simulator's
    /// `mem_map`, sized once at boot.
    owners: Vec<Option<FrameOwner>>,
    next_pid: u64,
    next_file: u64,
    stats: KernelStats,
    secret: Option<(Pfn, [u8; 16])>,
}

cta_dram::clone_fields!(KernelState {
    alloc,
    walker,
    tlb,
    psc,
    processes,
    files,
    owners,
    next_pid,
    next_file,
    stats,
    secret,
});

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("processes", &self.state.processes.len())
            .field("files", &self.state.files.len())
            .field("cta", &self.state.alloc.cta_enabled())
            .field("stats", &self.state.stats)
            .finish()
    }
}

impl Kernel {
    /// Boots a machine: builds the DRAM module, (optionally) profiles cell
    /// types, lays out zones, and initializes the allocator.
    ///
    /// # Errors
    ///
    /// Propagates DRAM errors (a module whose per-row tables do not fit in
    /// host memory, profiling failures) and allocation errors: an
    /// infeasible `ZONE_PTP` spec, or per-frame tables (the allocator's,
    /// the frame-owner map) that do not fit in host memory.
    pub fn new(config: KernelConfig) -> Result<Self, VmError> {
        let mut dram = DramModule::try_new(config.dram.clone())?;
        let total_bytes = dram.capacity_bytes();
        let map = if let Some(map) = config.memory_map_override.clone() {
            assert_eq!(
                map.total_bytes(),
                total_bytes,
                "memory map override must match DRAM capacity"
            );
            map
        } else {
            match &config.cta {
                None => MemoryMap::x86_64(total_bytes),
                Some(spec) => {
                    let cells: CellTypeMap = if let Some(map) = config.cell_map_override.clone() {
                        map
                    } else if config.profile_cells {
                        profile_cell_types(&mut dram, &ProfilerConfig::default())?.map
                    } else {
                        dram.ground_truth_cell_map()
                    };
                    let mut layout = PtpLayout::build(&cells, total_bytes, spec)?;
                    if config.screen_ps_bit {
                        let screened = cta_mem::screen_page_size_bit(&mut dram, &layout)?;
                        layout = layout.with_screened_pages(&screened);
                    }
                    MemoryMap::x86_64(total_bytes).with_cta(layout)
                }
            }
        };
        let multi_level = config.cta.as_ref().map(|s| s.multi_level).unwrap_or(false);
        let mut kernel = Kernel {
            dram,
            state: KernelState {
                alloc: ZonedAllocator::new(map)?,
                walker: Walker::new(),
                tlb: Tlb::new(config.tlb_entries),
                psc: Psc::new(config.psc_entries),
                processes: BTreeMap::new(),
                files: BTreeMap::new(),
                owners: cta_mem::frame_table(total_bytes / PAGE_SIZE, None)?,
                next_pid: 1,
                next_file: 1,
                stats: KernelStats::default(),
                secret: None,
            },
            multi_level,
            journal: None,
            spare_snapshot: None,
        };
        // Reserve the zero frame so that pfn 0 never appears in a PTE, and
        // plant the kernel secret used to verify privilege escalation.
        let zero = kernel.state.alloc.alloc_page(GfpFlags::KERNEL)?;
        kernel.state.owners[zero.0 as usize] = Some(FrameOwner::Kernel);
        let secret_pfn = kernel.state.alloc.alloc_page(GfpFlags::KERNEL)?;
        kernel.state.owners[secret_pfn.0 as usize] = Some(FrameOwner::Kernel);
        let pattern = *b"KERNEL-SECRET-#1";
        kernel.dram.write(secret_pfn.addr().0, &pattern)?;
        kernel.state.secret = Some((secret_pfn, pattern));
        Ok(kernel)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The DRAM module (experimenter oracle — simulated software cannot see
    /// this).
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// Mutable DRAM access, for driving hammer primitives and fault
    /// injection from attack/experiment code.
    pub fn dram_mut(&mut self) -> &mut DramModule {
        &mut self.dram
    }

    /// Forks the machine: an independent snapshot with identical DRAM
    /// contents, page tables, processes, TLB, allocator, and statistics.
    /// Nothing done to either side is ever visible to the other.
    ///
    /// Forking a freshly booted kernel is indistinguishable from booting a
    /// second one with the same [`KernelConfig`]. DRAM rows are
    /// copy-on-write, so a fork costs O(rows) reference bumps, not row
    /// copies, plus a copy of the machine metadata; campaigns isolate
    /// trials in place with [`Self::journal_begin`] instead, and the fork
    /// stays as the oracle journal rollback is checked against.
    pub fn fork(&self) -> Kernel {
        Kernel {
            dram: self.dram.fork(),
            state: self.state.clone(),
            multi_level: self.multi_level,
            journal: None,
            spare_snapshot: None,
        }
    }

    // ------------------------------------------------------------------
    // Undo journal
    // ------------------------------------------------------------------

    /// Starts an undo journal so a trial can run **in place** on this
    /// kernel and be rolled back with [`Self::journal_rollback`] instead
    /// of paying a full [`Self::fork`] per trial. The DRAM module journals
    /// its own planes (row pre-images its row store saves on first change,
    /// plus a snapshot of its state); this layer snapshots its one state
    /// struct — the allocator, TLB, page-structure cache, and the
    /// process/file/owner maps — into the previous trial's snapshot, reusing
    /// its tables: O(machine metadata), not O(machine memory).
    ///
    /// # Panics
    ///
    /// Panics if a journal is already active (journals do not nest).
    pub fn journal_begin(&mut self) {
        assert!(self.journal.is_none(), "kernel journal already active");
        self.dram.journal_begin();
        let snapshot = match self.spare_snapshot.take() {
            Some(mut snapshot) => {
                (*snapshot).clone_from(&self.state);
                snapshot
            }
            None => Box::new(self.state.clone()),
        };
        self.journal = Some(snapshot);
    }

    /// Rolls the kernel back to its [`Self::journal_begin`] state:
    /// byte-identical DRAM (contents, charge plane, caches, clock, flip
    /// log), exact allocator free-lists, TLB/PSC arrays, and metadata
    /// maps. A rolled-back kernel is indistinguishable from a fresh fork
    /// of the pre-journal parent.
    ///
    /// # Panics
    ///
    /// Panics if no journal is active.
    pub fn journal_rollback(&mut self) {
        let mut snapshot = self.journal.take().expect("journal_rollback without journal_begin");
        self.dram.journal_rollback();
        std::mem::swap(&mut self.state, &mut *snapshot);
        self.spare_snapshot = Some(snapshot);
    }

    /// Whether an undo journal is currently active on this kernel.
    pub fn journal_active(&self) -> bool {
        self.journal.is_some()
    }

    /// The zoned allocator.
    pub fn allocator(&self) -> &ZonedAllocator {
        &self.state.alloc
    }

    /// Whether CTA is active.
    pub fn cta_enabled(&self) -> bool {
        self.state.alloc.cta_enabled()
    }

    /// The active `ZONE_PTP` layout, if CTA is on.
    pub fn ptp_layout(&self) -> Option<&PtpLayout> {
        self.state.alloc.ptp_layout()
    }

    /// Kernel counters.
    pub fn stats(&self) -> KernelStats {
        self.state.stats
    }

    /// TLB counters.
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        self.state.tlb.stats()
    }

    /// Paging-structure-cache counters.
    pub fn psc_stats(&self) -> crate::psc::PscStats {
        self.state.psc.stats()
    }

    /// Snapshots every stat source this machine owns into `c`: kernel
    /// walk/map counters, TLB counters, DRAM counters, and the allocator's
    /// global plus per-zone counters. Recording several kernels into the
    /// same registry aggregates them by addition.
    pub fn record_counters(&self, c: &mut cta_telemetry::Counters) {
        c.record(&self.state.stats);
        c.record(&self.state.tlb.stats());
        c.record(&self.state.psc.stats());
        c.record(self.dram.stats());
        c.add_u64("dram", "rows_materialized", self.dram.rows_materialized() as u64);
        self.state.alloc.record_counters(c);
        // Only defended machines carry a `defense` group, so undefended
        // snapshots stay byte-identical to pre-hook telemetry.
        if let Some(snapshot) = self.dram.defense_snapshot() {
            c.record(&snapshot);
        }
    }

    /// Convenience wrapper around [`Kernel::record_counters`] producing a
    /// fresh labeled telemetry snapshot of this machine.
    pub fn counters(&self, label: &str) -> cta_telemetry::Counters {
        let mut c = cta_telemetry::Counters::new(label);
        self.record_counters(&mut c);
        c
    }

    /// Emits the TLB and PSC hit rates as sanitized f64 gauges. Rates are
    /// derived metrics — they would corrupt the additive shard merge if the
    /// [`cta_telemetry::StatSource`] snapshots recorded them — so they are
    /// set (not added) at emission time, with non-finite values sanitized
    /// by [`cta_telemetry::Counters::set_f64`].
    pub fn record_rate_gauges(&self, c: &mut cta_telemetry::Counters) {
        c.set_f64("tlb", "hit_rate", self.state.tlb.stats().hit_rate());
        c.set_f64("psc", "hit_rate", self.state.psc.stats().hit_rate());
    }

    /// A process by pid.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchProcess`] if it does not exist.
    pub fn process(&self, pid: Pid) -> Result<&Process, VmError> {
        self.state.processes.get(&pid.0).ok_or(VmError::NoSuchProcess { pid })
    }

    /// All live pids.
    pub fn pids(&self) -> Vec<Pid> {
        self.state.processes.keys().map(|p| Pid(*p)).collect()
    }

    /// Owner of a physical frame, if tracked.
    pub fn frame_owner(&self, pfn: Pfn) -> Option<FrameOwner> {
        self.state.owners.get(pfn.0 as usize).copied().flatten()
    }

    /// The kernel secret planted at boot: its frame and its 16-byte
    /// content. An attacker that can read or overwrite this page through
    /// its own mappings has escalated privileges.
    pub fn kernel_secret(&self) -> (Pfn, [u8; 16]) {
        self.state.secret.expect("planted at boot")
    }

    /// A file object by id.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchFile`] if it does not exist.
    pub fn file(&self, id: FileId) -> Result<&FileObject, VmError> {
        self.state.files.get(&id.0).ok_or(VmError::NoSuchFile)
    }

    // ------------------------------------------------------------------
    // Process and memory management
    // ------------------------------------------------------------------

    /// Creates a process, allocating its PML4 root (via `pte_alloc`, so the
    /// root obeys CTA placement too).
    ///
    /// # Errors
    ///
    /// Allocation failure.
    pub fn create_process(&mut self, trusted: bool) -> Result<Pid, VmError> {
        let pid = Pid(self.state.next_pid);
        self.state.next_pid += 1;
        self.state.processes.insert(
            pid.0,
            Process {
                pid,
                trusted,
                cr3: Pfn(0),
                mappings: BTreeMap::new(),
                huge_mappings: BTreeMap::new(),
                pt_pages: Vec::new(),
            },
        );
        let cr3 = self.pte_alloc(pid, PtLevel::Pml4)?;
        self.state.processes.get_mut(&pid.0).expect("just inserted").cr3 = cr3;
        Ok(pid)
    }

    /// Destroys a process, returning its page tables and anonymous pages to
    /// the allocator.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchProcess`]; allocator errors on inconsistent state.
    pub fn destroy_process(&mut self, pid: Pid) -> Result<(), VmError> {
        let proc = self.state.processes.remove(&pid.0).ok_or(VmError::NoSuchProcess { pid })?;
        for (va, kind) in &proc.mappings {
            match kind {
                MappingKind::Anonymous { pfn } => {
                    self.state.owners[pfn.0 as usize] = None;
                    self.state.alloc.free_pages(*pfn, 0)?;
                }
                MappingKind::File { id, .. } => {
                    if let Some(f) = self.state.files.get_mut(&id.0) {
                        f.remove_mapping();
                    }
                }
                // Kernel keeps ownership of shared pages.
                MappingKind::SharedKernel { .. } => {}
            }
            let _ = va;
        }
        for block in proc.huge_mappings.values() {
            for f in 0..HUGE_PAGE_SIZE / PAGE_SIZE {
                self.state.owners[(block.0 + f) as usize] = None;
            }
            self.state.alloc.free_pages(*block, 9)?;
        }
        for (pfn, _) in &proc.pt_pages {
            self.state.owners[pfn.0 as usize] = None;
            self.state.alloc.free_pages(*pfn, 0)?;
        }
        self.state.tlb.flush_pid(pid);
        self.state.psc.flush_pid(pid);
        Ok(())
    }

    /// Allocates one zeroed page-table page — **the paper's patch point**.
    ///
    /// With CTA: `__GFP_PTP` (optionally level-tagged), no fallback.
    /// Without: plain `GFP_KERNEL`.
    ///
    /// # Errors
    ///
    /// Allocation failure ­— under CTA a full `ZONE_PTP` is a hard failure
    /// (Rule 1 forbids falling back to ordinary zones).
    pub fn pte_alloc(&mut self, pid: Pid, level: PtLevel) -> Result<Pfn, VmError> {
        let gfp = if self.state.alloc.cta_enabled() {
            if self.multi_level {
                GfpFlags::ptp_for_level(level)
            } else {
                GfpFlags::PTP
            }
        } else {
            GfpFlags::KERNEL.zeroed()
        };
        let pfn = self.state.alloc.alloc_page(gfp)?;
        self.dram.fill(pfn.addr().0, PAGE_SIZE as usize, 0)?;
        self.state.owners[pfn.0 as usize] = Some(FrameOwner::PageTable { pid, level });
        self.state
            .processes
            .get_mut(&pid.0)
            .ok_or(VmError::NoSuchProcess { pid })?
            .pt_pages
            .push((pfn, level));
        self.state.stats.pt_pages_allocated += 1;
        // Page-table rows are the victims SoftTRR-style defenses watch:
        // register this frame's row(s) with any installed row defense.
        self.notify_defense_pt_frame(pfn);
        Ok(pfn)
    }

    /// Registers a page-table frame's DRAM row(s) as protected with the
    /// installed row defense, if any. A no-op on undefended machines.
    fn notify_defense_pt_frame(&mut self, pfn: Pfn) {
        if self.dram.defense().is_none() {
            return;
        }
        let row_bytes = self.dram.geometry().row_bytes();
        let first = pfn.addr().0 / row_bytes;
        let last = (pfn.addr().0 + PAGE_SIZE - 1) / row_bytes;
        for row in first..=last {
            let _ = self.dram.defense_protect_row(cta_dram::RowId(row));
        }
    }

    /// Installs a software row defense on the DRAM module and replays
    /// protection registrations for every page-table page already
    /// allocated, so installing after boot still protects existing tables.
    pub fn install_row_defense(&mut self, defense: Box<dyn cta_dram::RowDefense>) {
        self.dram.install_defense(defense);
        let frames: Vec<Pfn> = self
            .state
            .processes
            .values()
            .flat_map(|p| p.pt_pages.iter().map(|(pfn, _)| *pfn))
            .collect();
        for pfn in frames {
            self.notify_defense_pt_frame(pfn);
        }
    }

    /// Maps `va → pfn` in `pid`'s address space, growing the hierarchy as
    /// needed. Internal: callers go through `mmap_*`.
    fn map_page(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        pfn: Pfn,
        flags: PteFlags,
    ) -> Result<(), VmError> {
        let cr3 = self.process(pid)?.cr3();
        let mut table = cr3.addr().0;
        for (level, child) in [
            (PtLevel::Pml4, PtLevel::Pdpt),
            (PtLevel::Pdpt, PtLevel::Pd),
            (PtLevel::Pd, PtLevel::Pt),
        ] {
            let entry_addr = table + va.index(level) * 8;
            let entry = Pte(self.dram.read_u64(entry_addr)?);
            let next = if entry.present() {
                entry.pfn().addr().0
            } else {
                let page = self.pte_alloc(pid, child)?;
                self.dram.write_u64(entry_addr, Pte::new(page, PteFlags::table()).0)?;
                page.addr().0
            };
            table = next;
        }
        let leaf_addr = table + va.index(PtLevel::Pt) * 8;
        self.dram.write_u64(leaf_addr, Pte::new(pfn, flags).0)?;
        self.invalidate_translation(pid, va);
        self.state.stats.maps += 1;
        Ok(())
    }

    /// Maps `len` bytes of fresh zeroed anonymous memory at `va`.
    ///
    /// # Errors
    ///
    /// [`VmError::Unaligned`] for ragged arguments;
    /// [`VmError::AlreadyMapped`] on overlap; allocation failures.
    pub fn mmap_anonymous(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        writable: bool,
    ) -> Result<(), VmError> {
        self.check_range(pid, va, len)?;
        let trusted = self.process(pid)?.trusted();
        let pages = len / PAGE_SIZE;
        for i in 0..pages {
            let page_va = va.offset(i * PAGE_SIZE);
            let gfp = if trusted { GfpFlags::KERNEL } else { GfpFlags::HIGHUSER };
            let pfn = self.state.alloc.alloc_page(gfp)?;
            self.dram.fill(pfn.addr().0, PAGE_SIZE as usize, 0)?;
            self.state.owners[pfn.0 as usize] = Some(FrameOwner::Anonymous { pid });
            self.state.stats.user_pages_allocated += 1;
            let flags = if writable { PteFlags::user_data() } else { PteFlags::user_readonly() };
            self.map_page(pid, page_va, pfn, flags)?;
            self.state
                .processes
                .get_mut(&pid.0)
                .expect("checked")
                .mappings
                .insert(page_va.0, MappingKind::Anonymous { pfn });
        }
        Ok(())
    }

    /// Maps `len` bytes of fresh zeroed memory at `va` using 2 MiB huge
    /// pages (PD-level entries with the PS bit set — the section 7
    /// multiple-page-size scenario).
    ///
    /// # Errors
    ///
    /// [`VmError::Unaligned`] unless `va` and `len` are 2 MiB aligned;
    /// [`VmError::AlreadyMapped`] on overlap; allocation failures (each
    /// huge page needs an order-9 physically contiguous block).
    pub fn mmap_huge(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        writable: bool,
    ) -> Result<(), VmError> {
        if !va.0.is_multiple_of(HUGE_PAGE_SIZE) {
            return Err(VmError::Unaligned { value: va.0 });
        }
        if len == 0 || !len.is_multiple_of(HUGE_PAGE_SIZE) {
            return Err(VmError::Unaligned { value: len });
        }
        self.check_range(pid, va, len)?;
        for i in 0..len / HUGE_PAGE_SIZE {
            let chunk_va = va.offset(i * HUGE_PAGE_SIZE);
            let block = self.state.alloc.alloc_pages(GfpFlags::HIGHUSER, 9)?;
            self.dram.fill(block.addr().0, HUGE_PAGE_SIZE as usize, 0)?;
            for f in 0..HUGE_PAGE_SIZE / PAGE_SIZE {
                self.state.owners[(block.0 + f) as usize] = Some(FrameOwner::Anonymous { pid });
            }
            self.state.stats.user_pages_allocated += HUGE_PAGE_SIZE / PAGE_SIZE;
            let mut flags =
                if writable { PteFlags::user_data() } else { PteFlags::user_readonly() };
            flags.huge = true;
            self.map_huge_entry(pid, chunk_va, block, flags)?;
            self.state
                .processes
                .get_mut(&pid.0)
                .expect("checked")
                .huge_mappings
                .insert(chunk_va.0, block);
        }
        Ok(())
    }

    /// Installs a PD-level huge entry for `va`, growing PML4/PDPT as needed.
    fn map_huge_entry(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        block: Pfn,
        flags: PteFlags,
    ) -> Result<(), VmError> {
        let cr3 = self.process(pid)?.cr3();
        let mut table = cr3.addr().0;
        for (level, child) in [(PtLevel::Pml4, PtLevel::Pdpt), (PtLevel::Pdpt, PtLevel::Pd)] {
            let entry_addr = table + va.index(level) * 8;
            let entry = Pte(self.dram.read_u64(entry_addr)?);
            let next = if entry.present() {
                entry.pfn().addr().0
            } else {
                let page = self.pte_alloc(pid, child)?;
                self.dram.write_u64(entry_addr, Pte::new(page, PteFlags::table()).0)?;
                page.addr().0
            };
            table = next;
        }
        let pd_entry = table + va.index(PtLevel::Pd) * 8;
        self.dram.write_u64(pd_entry, Pte::new(block, flags).0)?;
        self.invalidate_translation(pid, va);
        self.state.stats.maps += 1;
        Ok(())
    }

    /// Unmaps huge pages previously mapped with
    /// [`mmap_huge`](Self::mmap_huge), freeing their blocks.
    ///
    /// # Errors
    ///
    /// Alignment errors; [`VmError::NotMapped`] if a chunk is not a live
    /// huge mapping.
    pub fn munmap_huge(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        if !va.0.is_multiple_of(HUGE_PAGE_SIZE) || len == 0 || !len.is_multiple_of(HUGE_PAGE_SIZE) {
            return Err(VmError::Unaligned { value: va.0 | len });
        }
        for i in 0..len / HUGE_PAGE_SIZE {
            let chunk_va = va.offset(i * HUGE_PAGE_SIZE);
            let block = self
                .state
                .processes
                .get_mut(&pid.0)
                .ok_or(VmError::NoSuchProcess { pid })?
                .huge_mappings
                .remove(&chunk_va.0)
                .ok_or(VmError::NotMapped { va: chunk_va })?;
            // Clear the PD entry.
            let cr3 = self.process(pid)?.cr3();
            let mut table = cr3.addr().0;
            let mut present = true;
            for level in [PtLevel::Pml4, PtLevel::Pdpt] {
                let entry = Pte(self.dram.peek_u64(table + chunk_va.index(level) * 8)?);
                if !entry.present() {
                    present = false;
                    break;
                }
                table = entry.pfn().addr().0;
            }
            if present {
                self.dram.write_u64(table + chunk_va.index(PtLevel::Pd) * 8, Pte::EMPTY.0)?;
            }
            // The huge mapping may have been accessed at any 4 KiB offset,
            // each caching its own vpn — invalidate every one of them, not
            // just the chunk base (one invlpg per covered page).
            for f in 0..HUGE_PAGE_SIZE / PAGE_SIZE {
                self.state.tlb.flush_page(pid, chunk_va.offset(f * PAGE_SIZE));
            }
            self.state.psc.invalidate_page(pid, chunk_va);
            self.state.stats.unmaps += 1;
            for f in 0..HUGE_PAGE_SIZE / PAGE_SIZE {
                self.state.owners[(block.0 + f) as usize] = None;
            }
            self.state.alloc.free_pages(block, 9)?;
        }
        Ok(())
    }

    /// Allocates a kernel-owned page intended for sharing with user space
    /// (a "double-owned" page like a video or DMA buffer).
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn create_shared_kernel_page(&mut self) -> Result<Pfn, VmError> {
        let pfn = self.state.alloc.alloc_page(GfpFlags::KERNEL)?;
        self.dram.fill(pfn.addr().0, PAGE_SIZE as usize, 0)?;
        self.state.owners[pfn.0 as usize] = Some(FrameOwner::Kernel);
        Ok(pfn)
    }

    /// Maps a kernel-owned shared page into a process's address space —
    /// the double-owned-page mechanism CATT-style defenses overlook: the
    /// page physically lives in *kernel* memory yet user code can access
    /// (and hammer around) it.
    ///
    /// # Errors
    ///
    /// Alignment/overlap errors; the frame must be kernel-owned.
    pub fn mmap_shared(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        pfn: Pfn,
        writable: bool,
    ) -> Result<(), VmError> {
        if self.frame_owner(pfn) != Some(FrameOwner::Kernel) {
            return Err(VmError::NotMapped { va });
        }
        self.check_range(pid, va, PAGE_SIZE)?;
        let flags = if writable { PteFlags::user_data() } else { PteFlags::user_readonly() };
        self.map_page(pid, va, pfn, flags)?;
        self.state
            .processes
            .get_mut(&pid.0)
            .ok_or(VmError::NoSuchProcess { pid })?
            .mappings
            .insert(va.0, MappingKind::SharedKernel { pfn });
        Ok(())
    }

    /// Creates a page-backed file object of `len` bytes (zero-filled).
    ///
    /// # Errors
    ///
    /// [`VmError::Unaligned`]; allocation failures, after which every frame
    /// the file had taken is free again.
    pub fn create_file(&mut self, len: u64) -> Result<FileId, VmError> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned { value: len });
        }
        // The list grows with the frames actually allocated: a request
        // larger than memory fails allocation, not the list's reservation.
        let mut frames = Vec::new();
        for _ in 0..len / PAGE_SIZE {
            match self.state.alloc.alloc_page(GfpFlags::HIGHUSER) {
                Ok(pfn) => frames.push(pfn),
                Err(e) => {
                    for pfn in frames {
                        self.state.alloc.free_pages(pfn, 0).expect("a frame just allocated frees");
                    }
                    return Err(e.into());
                }
            }
        }
        let id = FileId(self.state.next_file);
        self.state.next_file += 1;
        for &pfn in &frames {
            self.dram.fill(pfn.addr().0, PAGE_SIZE as usize, 0)?;
            self.state.owners[pfn.0 as usize] = Some(FrameOwner::File { id });
        }
        self.state.files.insert(id.0, FileObject::new(id, frames));
        Ok(id)
    }

    /// Maps a whole file at `va` (shared mapping — the spray primitive).
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchFile`], alignment/overlap errors, allocation
    /// failures while growing page tables.
    pub fn mmap_file(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        file: FileId,
        writable: bool,
    ) -> Result<(), VmError> {
        let frames: Vec<Pfn> =
            self.state.files.get(&file.0).ok_or(VmError::NoSuchFile)?.frames().to_vec();
        self.check_range(pid, va, frames.len() as u64 * PAGE_SIZE)?;
        for (i, pfn) in frames.iter().enumerate() {
            let page_va = va.offset(i as u64 * PAGE_SIZE);
            let flags = if writable { PteFlags::user_data() } else { PteFlags::user_readonly() };
            self.map_page(pid, page_va, *pfn, flags)?;
            self.state
                .processes
                .get_mut(&pid.0)
                .expect("checked")
                .mappings
                .insert(page_va.0, MappingKind::File { id: file, page_index: i });
        }
        self.state.files.get_mut(&file.0).expect("checked").add_mapping();
        Ok(())
    }

    /// Changes the writability of existing 4 KiB mappings (`mprotect`).
    ///
    /// # Errors
    ///
    /// Alignment errors; [`VmError::NotMapped`] if any page in the range is
    /// not a live 4 KiB mapping.
    pub fn mprotect(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        writable: bool,
    ) -> Result<(), VmError> {
        if !va.0.is_multiple_of(PAGE_SIZE) || len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned { value: va.0 | len });
        }
        let cr3 = self.process(pid)?.cr3();
        for i in 0..len / PAGE_SIZE {
            let page_va = va.offset(i * PAGE_SIZE);
            if !self.process(pid)?.mappings.contains_key(&page_va.0) {
                return Err(VmError::NotMapped { va: page_va });
            }
            let leaf_addr =
                self.leaf_entry_addr(cr3, page_va)?.ok_or(VmError::NotMapped { va: page_va })?;
            let mut pte = Pte(self.dram.read_u64(leaf_addr)?);
            let mut flags = pte.flags();
            flags.writable = writable;
            pte = Pte::new(pte.pfn(), flags);
            self.dram.write_u64(leaf_addr, pte.0)?;
            self.invalidate_translation(pid, page_va);
        }
        Ok(())
    }

    /// Unmaps `len` bytes at `va`, freeing anonymous frames.
    ///
    /// # Errors
    ///
    /// [`VmError::NotMapped`] if a page in the range is not mapped.
    pub fn munmap(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        if !va.0.is_multiple_of(PAGE_SIZE) || len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned {
                value: if !len.is_multiple_of(PAGE_SIZE) { len } else { va.0 },
            });
        }
        for i in 0..len / PAGE_SIZE {
            let page_va = va.offset(i * PAGE_SIZE);
            let kind = self
                .state
                .processes
                .get_mut(&pid.0)
                .ok_or(VmError::NoSuchProcess { pid })?
                .mappings
                .remove(&page_va.0)
                .ok_or(VmError::NotMapped { va: page_va })?;
            // Clear the leaf PTE.
            let cr3 = self.process(pid)?.cr3();
            if let Some(leaf_addr) = self.leaf_entry_addr(cr3, page_va)? {
                self.dram.write_u64(leaf_addr, Pte::EMPTY.0)?;
            }
            self.invalidate_translation(pid, page_va);
            self.state.stats.unmaps += 1;
            match kind {
                MappingKind::Anonymous { pfn } => {
                    self.state.owners[pfn.0 as usize] = None;
                    self.state.alloc.free_pages(pfn, 0)?;
                }
                MappingKind::File { id, .. } => {
                    if let Some(f) = self.state.files.get_mut(&id.0) {
                        f.remove_mapping();
                    }
                }
                // Kernel keeps ownership of shared pages.
                MappingKind::SharedKernel { .. } => {}
            }
        }
        Ok(())
    }

    fn check_range(&self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), VmError> {
        if !va.0.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned { value: va.0 });
        }
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmError::Unaligned { value: len });
        }
        let end =
            va.0.checked_add(len).ok_or(VmError::RangeOverflow { va, pages: len / PAGE_SIZE })?;
        let proc = self.process(pid)?;
        if let Some((&page, _)) = proc.mappings.range(va.0..end).next() {
            return Err(VmError::AlreadyMapped { va: VirtAddr(page) });
        }
        // Huge mappings cover 2 MiB each; reject any intersection.
        for (base, _) in proc.huge_mappings.range(..end) {
            if base + HUGE_PAGE_SIZE > va.0 {
                return Err(VmError::AlreadyMapped { va: VirtAddr(*base) });
            }
        }
        Ok(())
    }

    /// Physical address of the leaf PTE for `va`, following the current
    /// (possibly corrupted) tables. `None` if an intermediate level is not
    /// present.
    fn leaf_entry_addr(&self, cr3: Pfn, va: VirtAddr) -> Result<Option<u64>, VmError> {
        let mut table = cr3.addr().0;
        for level in [PtLevel::Pml4, PtLevel::Pdpt, PtLevel::Pd] {
            let entry = Pte(self.dram.peek_u64(table + va.index(level) * 8)?);
            if !entry.present() {
                return Ok(None);
            }
            table = entry.pfn().addr().0;
            if table + PAGE_SIZE > self.dram.capacity_bytes() {
                return Ok(None);
            }
        }
        Ok(Some(table + va.index(PtLevel::Pt) * 8))
    }

    // ------------------------------------------------------------------
    // Translation and access
    // ------------------------------------------------------------------

    /// Translates `va` for `pid`: TLB first, then the paging-structure
    /// caches, then the walk (resumed at the deepest cached level).
    ///
    /// # Errors
    ///
    /// Translation faults; [`VmError::NoSuchProcess`].
    pub fn translate(&mut self, pid: Pid, va: VirtAddr, access: Access) -> Result<u64, VmError> {
        if let Some(hit) = self.state.tlb.lookup(pid, va) {
            let ok = (!access.write || hit.writable) && (!access.user || hit.user);
            if ok {
                return Ok(hit.page_base + va.page_offset());
            }
        }
        let cr3 = self.process(pid)?.cr3().addr().0;
        self.translate_slow(cr3, pid, va, access)
    }

    /// The TLB-miss path: probe the PSC for a resume point, walk, fill the
    /// PSC with the non-leaf entries just read, and fill the TLB with the
    /// leaf.
    fn translate_slow(
        &mut self,
        cr3: u64,
        pid: Pid,
        va: VirtAddr,
        access: Access,
    ) -> Result<u64, VmError> {
        let start = match self.state.psc.lookup(pid, va) {
            Some((level, e)) => {
                WalkStart { level, table: e.table, user: e.user, writable: e.writable }
            }
            None => WalkStart::root(cr3),
        };
        let walk = self.state.walker.walk_phys(&mut self.dram, start, va, access)?;
        self.state.stats.walks += 1;
        // Cache each non-leaf entry with the cumulative permission AND
        // folded down from the resume point, as hardware does.
        let (mut user, mut writable) = (start.user, start.writable);
        for (level, pte) in walk.intermediates.into_iter().flatten() {
            user &= pte.user();
            writable &= pte.writable();
            self.state.psc.insert(
                pid,
                va,
                level,
                PscEntry { table: pte.pfn().0 * PAGE_SIZE, user, writable },
            );
        }
        self.state.tlb.insert(
            pid,
            va,
            TlbEntry {
                page_base: walk.phys - va.page_offset(),
                writable: walk.leaf.writable(),
                user: walk.leaf.user(),
            },
        );
        Ok(walk.phys)
    }

    /// Executes a batch of fixed-buffer user accesses against one process:
    /// for each `(va, is_write)` op, `buf` is written to or read from `va`
    /// exactly as the matching [`write_virt`](Self::write_virt) /
    /// [`read_virt`](Self::read_virt) sequence would (page-crossing
    /// included, reads landing in `buf` for later ops to write back out),
    /// with the per-call process dispatch amortized over the whole batch.
    ///
    /// # Errors
    ///
    /// The first fault aborts the batch; earlier ops' effects stand.
    pub fn access_batch(
        &mut self,
        pid: Pid,
        ops: &[(VirtAddr, bool)],
        buf: &mut [u8],
    ) -> Result<(), VmError> {
        let cr3 = self.process(pid)?.cr3().addr().0;
        for &(va, write) in ops {
            let access = if write { Access::user_write() } else { Access::user_read() };
            let mut off = 0usize;
            while off < buf.len() {
                let cur = va.offset(off as u64);
                let phys = match self.state.tlb.lookup(pid, cur) {
                    Some(hit) if (!access.write || hit.writable) && (!access.user || hit.user) => {
                        hit.page_base + cur.page_offset()
                    }
                    _ => self.translate_slow(cr3, pid, cur, access)?,
                };
                let in_page = (PAGE_SIZE - cur.page_offset()) as usize;
                let take = in_page.min(buf.len() - off);
                if write {
                    self.dram.write(phys, &buf[off..off + take])?;
                } else {
                    self.dram.read_into(phys, &mut buf[off..off + take])?;
                }
                off += take;
            }
        }
        Ok(())
    }

    /// Reads virtual memory (page-crossing allowed).
    ///
    /// # Errors
    ///
    /// Translation faults, DRAM errors.
    pub fn read_virt(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        buf: &mut [u8],
        access: Access,
    ) -> Result<(), VmError> {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = va.offset(off as u64);
            let phys = self.translate(pid, cur, access)?;
            let in_page = (PAGE_SIZE - cur.page_offset()) as usize;
            let take = in_page.min(buf.len() - off);
            self.dram.read_into(phys, &mut buf[off..off + take])?;
            off += take;
        }
        Ok(())
    }

    /// Writes virtual memory (page-crossing allowed).
    ///
    /// # Errors
    ///
    /// Translation faults, DRAM errors.
    pub fn write_virt(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        data: &[u8],
        access: Access,
    ) -> Result<(), VmError> {
        let mut off = 0usize;
        while off < data.len() {
            let cur = va.offset(off as u64);
            let phys = self.translate(pid, cur, access)?;
            let in_page = (PAGE_SIZE - cur.page_offset()) as usize;
            let take = in_page.min(data.len() - off);
            self.dram.write(phys, &data[off..off + take])?;
            off += take;
        }
        Ok(())
    }

    /// Flushes the entire TLB *and* the paging-structure caches — CR3
    /// reload semantics, and what an attacker does between hammer reads:
    /// after this every translation re-walks live DRAM from the root.
    pub fn flush_tlb(&mut self) {
        self.state.tlb.flush_all();
        self.state.psc.flush_all();
    }

    /// `invlpg` for one page: drops `va`'s TLB entry and every
    /// paging-structure-cache entry covering it, so the next translation of
    /// any address under those prefixes re-reads the (possibly corrupted)
    /// tables from DRAM.
    pub fn flush_page(&mut self, pid: Pid, va: VirtAddr) {
        self.invalidate_translation(pid, va);
    }

    /// Every PTE store through the kernel's page-table write path lands
    /// here: the x86 rule is that changing a paging-structure entry
    /// requires invalidating both the TLB entry and the paging-structure
    /// caches for the affected range.
    fn invalidate_translation(&mut self, pid: Pid, va: VirtAddr) {
        self.state.tlb.flush_page(pid, va);
        self.state.psc.invalidate_page(pid, va);
    }

    /// The DRAM row backing `va` for `pid` — what repeated, cache-defeating
    /// accesses to `va` end up activating.
    ///
    /// # Errors
    ///
    /// Translation faults.
    pub fn row_of_virt(&mut self, pid: Pid, va: VirtAddr) -> Result<RowId, VmError> {
        let phys = self.translate(pid, va, Access::user_read())?;
        Ok(self.dram.geometry().row_of_addr(phys)?)
    }

    // ------------------------------------------------------------------
    // Introspection for verification and experiments
    // ------------------------------------------------------------------

    /// Enumerates every page-table entry reachable from `pid`'s root,
    /// read with the non-disturbing debug oracle.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchProcess`].
    pub fn iter_pt_entries(&self, pid: Pid) -> Result<Vec<PteRecord>, VmError> {
        let proc = self.process(pid)?;
        let mut out = Vec::new();
        let mut frontier = vec![(proc.cr3(), PtLevel::Pml4)];
        while let Some((table, level)) = frontier.pop() {
            for i in 0..512u64 {
                let entry_addr = table.addr().0 + i * 8;
                let pte = Pte(self.dram.peek_u64(entry_addr)?);
                if !pte.present() {
                    continue;
                }
                out.push(PteRecord { level, table, entry_addr, pte });
                if level != PtLevel::Pt && !pte.huge() {
                    if let Some(child) = level_child(level) {
                        // Only descend into frames registered as this
                        // process's page table *of the expected level*:
                        // corrupted entries may point at other tables (or
                        // anywhere), and following them would mislabel
                        // levels or loop.
                        let is_expected_child = self.frame_owner(pte.pfn())
                            == Some(FrameOwner::PageTable { pid, level: child });
                        if is_expected_child {
                            frontier.push((pte.pfn(), child));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Enumerates every present entry of every *registered* page-table page
    /// of `pid`, regardless of whether the page is still reachable from the
    /// root — corruption of upper levels must not hide lower tables from
    /// the verifier.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchProcess`].
    pub fn iter_pt_entries_exhaustive(&self, pid: Pid) -> Result<Vec<PteRecord>, VmError> {
        let proc = self.process(pid)?;
        let mut out = Vec::new();
        for (table, level) in proc.pt_pages() {
            for i in 0..512u64 {
                let entry_addr = table.addr().0 + i * 8;
                let pte = Pte(self.dram.peek_u64(entry_addr)?);
                if pte.present() {
                    out.push(PteRecord { level: *level, table: *table, entry_addr, pte });
                }
            }
        }
        Ok(out)
    }

    /// Simulated time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.dram.now_ns()
    }
}

fn level_child(level: PtLevel) -> Option<PtLevel> {
    match level {
        PtLevel::Pml4 => Some(PtLevel::Pdpt),
        PtLevel::Pdpt => Some(PtLevel::Pd),
        PtLevel::Pd => Some(PtLevel::Pt),
        PtLevel::Pt => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_mem::ZoneKind;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig::small_test()).unwrap()
    }

    fn cta_kernel() -> Kernel {
        Kernel::new(KernelConfig::small_test_cta()).unwrap()
    }

    #[test]
    fn boot_plants_secret() {
        let k = kernel();
        let (pfn, pattern) = k.kernel_secret();
        assert_eq!(k.frame_owner(pfn), Some(FrameOwner::Kernel));
        assert_eq!(k.dram().peek(pfn.addr().0, 16).unwrap(), pattern.to_vec());
    }

    #[test]
    fn create_process_allocates_root() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let proc = k.process(pid).unwrap();
        assert_eq!(proc.pt_pages().len(), 1);
        assert_eq!(proc.pt_pages()[0].1, PtLevel::Pml4);
        assert_eq!(
            k.frame_owner(proc.cr3()),
            Some(FrameOwner::PageTable { pid, level: PtLevel::Pml4 })
        );
    }

    #[test]
    fn mmap_read_write_round_trip() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x10_0000);
        k.mmap_anonymous(pid, va, 3 * PAGE_SIZE, true).unwrap();
        let data: Vec<u8> = (0..=255).cycle().take(5000).map(|b: u8| b).collect();
        k.write_virt(pid, va.offset(100), &data, Access::user_write()).unwrap();
        let mut back = vec![0u8; data.len()];
        k.read_virt(pid, va.offset(100), &mut back, Access::user_read()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn mapping_allocates_intermediate_tables() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x10_0000), PAGE_SIZE, true).unwrap();
        // PML4 + PDPT + PD + PT = 4 table pages.
        assert_eq!(k.process(pid).unwrap().pt_pages().len(), 4);
        // A second page in the same 2 MiB region reuses them.
        k.mmap_anonymous(pid, VirtAddr(0x10_1000), PAGE_SIZE, true).unwrap();
        assert_eq!(k.process(pid).unwrap().pt_pages().len(), 4);
    }

    #[test]
    fn overlap_rejected() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x10_0000);
        k.mmap_anonymous(pid, va, PAGE_SIZE, true).unwrap();
        assert!(matches!(
            k.mmap_anonymous(pid, va, PAGE_SIZE, true),
            Err(VmError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn unaligned_rejected() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        assert!(matches!(
            k.mmap_anonymous(pid, VirtAddr(0x123), PAGE_SIZE, true),
            Err(VmError::Unaligned { .. })
        ));
        assert!(matches!(
            k.mmap_anonymous(pid, VirtAddr(0x1000), 17, true),
            Err(VmError::Unaligned { .. })
        ));
    }

    #[test]
    fn munmap_frees_and_unmaps() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x10_0000);
        k.mmap_anonymous(pid, va, PAGE_SIZE, true).unwrap();
        let free_before = k.allocator().free_page_count();
        k.munmap(pid, va, PAGE_SIZE).unwrap();
        assert_eq!(k.allocator().free_page_count(), free_before + 1);
        assert!(matches!(
            k.read_virt(pid, va, &mut [0u8; 1], Access::user_read()),
            Err(VmError::Translate(_))
        ));
    }

    #[test]
    fn file_mapping_shares_frames() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let file = k.create_file(2 * PAGE_SIZE).unwrap();
        let va1 = VirtAddr(0x10_0000);
        let va2 = VirtAddr(0x20_0000);
        k.mmap_file(pid, va1, file, true).unwrap();
        k.mmap_file(pid, va2, file, true).unwrap();
        k.write_virt(pid, va1, b"shared!", Access::user_write()).unwrap();
        let mut buf = [0u8; 7];
        k.read_virt(pid, va2, &mut buf, Access::user_read()).unwrap();
        assert_eq!(&buf, b"shared!");
        assert_eq!(k.file(file).unwrap().mapping_count(), 2);
    }

    #[test]
    fn failed_create_file_gives_every_frame_back() {
        let mut k = kernel();
        let _ = k.create_file(PAGE_SIZE).unwrap();
        let free = k.allocator().free_page_count();
        let owners = k.state.owners.clone();
        // One page more than memory holds: allocation fails partway.
        let err = k.create_file((free + 1) * PAGE_SIZE).unwrap_err();
        assert!(matches!(err, VmError::Alloc(cta_mem::AllocError::OutOfMemory { .. })), "{err:?}");
        assert_eq!(k.allocator().free_page_count(), free);
        assert_eq!(k.state.owners, owners);
    }

    #[test]
    fn user_cannot_read_kernel_secret_directly() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        // The secret frame is simply not mapped in the process.
        let (pfn, _) = k.kernel_secret();
        // Any attempt through a (nonexistent) mapping faults.
        assert!(k
            .read_virt(pid, VirtAddr(pfn.addr().0), &mut [0u8; 4], Access::user_read())
            .is_err());
    }

    #[test]
    fn cta_kernel_places_page_tables_above_mark() {
        let mut k = cta_kernel();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x10_0000), 4 * PAGE_SIZE, true).unwrap();
        let mark = k.ptp_layout().unwrap().low_water_mark();
        for (pfn, _) in k.process(pid).unwrap().pt_pages() {
            assert!(pfn.addr().0 >= mark, "page table {pfn} below the mark");
        }
        // And user pages below it.
        for record in k.iter_pt_entries(pid).unwrap() {
            if record.level == PtLevel::Pt {
                assert!(record.pte.pfn().addr().0 < mark);
            }
        }
    }

    #[test]
    fn stock_kernel_mixes_page_tables_with_data() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x10_0000), 4 * PAGE_SIZE, true).unwrap();
        assert!(!k.cta_enabled());
        // Page tables come from the same zone as everything else.
        let pt = k.process(pid).unwrap().pt_pages()[0].0;
        assert_eq!(k.allocator().zone_of(pt), Some(ZoneKind::Dma));
    }

    #[test]
    fn cta_pt_pages_always_in_ptp_zone() {
        let mut k = cta_kernel();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x40_0000), 8 * PAGE_SIZE, true).unwrap();
        for (pfn, _) in k.process(pid).unwrap().pt_pages() {
            assert_eq!(k.allocator().zone_of(*pfn), Some(ZoneKind::Ptp));
        }
    }

    #[test]
    fn translate_uses_tlb() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x10_0000);
        k.mmap_anonymous(pid, va, PAGE_SIZE, true).unwrap();
        let walks_before = k.stats().walks;
        k.translate(pid, va, Access::user_read()).unwrap();
        k.translate(pid, va.offset(8), Access::user_read()).unwrap();
        assert_eq!(k.stats().walks, walks_before + 1, "second translate hits TLB");
        k.flush_tlb();
        k.translate(pid, va, Access::user_read()).unwrap();
        assert_eq!(k.stats().walks, walks_before + 2);
    }

    #[test]
    fn destroy_process_reclaims_everything() {
        let mut k = kernel();
        let free0 = k.allocator().free_page_count();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x10_0000), 4 * PAGE_SIZE, true).unwrap();
        k.destroy_process(pid).unwrap();
        assert_eq!(k.allocator().free_page_count(), free0);
        assert!(k.process(pid).is_err());
    }

    #[test]
    fn iter_pt_entries_sees_all_levels() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x10_0000), 2 * PAGE_SIZE, true).unwrap();
        let records = k.iter_pt_entries(pid).unwrap();
        let levels: std::collections::HashSet<PtLevel> = records.iter().map(|r| r.level).collect();
        assert_eq!(levels.len(), 4, "one entry at each level");
        let leaves = records.iter().filter(|r| r.level == PtLevel::Pt).count();
        assert_eq!(leaves, 2);
    }

    #[test]
    fn row_of_virt_matches_translation() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x10_0000);
        k.mmap_anonymous(pid, va, PAGE_SIZE, true).unwrap();
        let phys = k.translate(pid, va, Access::user_read()).unwrap();
        let row = k.row_of_virt(pid, va).unwrap();
        assert_eq!(row, k.dram().geometry().row_of_addr(phys).unwrap());
    }

    #[test]
    fn mprotect_toggles_writability() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x4000_0000);
        k.mmap_anonymous(pid, va, 2 * PAGE_SIZE, true).unwrap();
        k.write_virt(pid, va, &[1], Access::user_write()).unwrap();
        k.mprotect(pid, va, 2 * PAGE_SIZE, false).unwrap();
        assert!(matches!(
            k.write_virt(pid, va, &[2], Access::user_write()),
            Err(VmError::Translate(_))
        ));
        // Reads still work, and the earlier value is intact.
        let mut b = [0u8; 1];
        k.read_virt(pid, va, &mut b, Access::user_read()).unwrap();
        assert_eq!(b, [1]);
        k.mprotect(pid, va, 2 * PAGE_SIZE, true).unwrap();
        k.write_virt(pid, va, &[3], Access::user_write()).unwrap();
    }

    #[test]
    fn mprotect_requires_live_mappings() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        assert!(matches!(
            k.mprotect(pid, VirtAddr(0x4000_0000), PAGE_SIZE, false),
            Err(VmError::NotMapped { .. })
        ));
        assert!(matches!(
            k.mprotect(pid, VirtAddr(0x4000_0123), PAGE_SIZE, false),
            Err(VmError::Unaligned { .. })
        ));
    }

    #[test]
    fn huge_mapping_round_trip() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x4000_0000);
        k.mmap_huge(pid, va, HUGE_PAGE_SIZE, true).unwrap();
        let data = vec![0x5Au8; 9000];
        k.write_virt(pid, va.offset(12345), &data, Access::user_write()).unwrap();
        let mut back = vec![0u8; 9000];
        k.read_virt(pid, va.offset(12345), &mut back, Access::user_read()).unwrap();
        assert_eq!(back, data);
        // The walk terminates at PD level (3 levels, not 4).
        let records = k.iter_pt_entries(pid).unwrap();
        let pd_huge = records.iter().filter(|r| r.level == PtLevel::Pd && r.pte.huge()).count();
        assert_eq!(pd_huge, 1);
        assert!(records.iter().all(|r| r.level != PtLevel::Pt));
    }

    #[test]
    fn huge_mapping_rejects_misalignment_and_overlap() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        assert!(matches!(
            k.mmap_huge(pid, VirtAddr(0x4000_1000), HUGE_PAGE_SIZE, true),
            Err(VmError::Unaligned { .. })
        ));
        let va = VirtAddr(0x4000_0000);
        k.mmap_huge(pid, va, HUGE_PAGE_SIZE, true).unwrap();
        assert!(matches!(
            k.mmap_huge(pid, va, HUGE_PAGE_SIZE, true),
            Err(VmError::AlreadyMapped { .. })
        ));
        // A 4 KiB mapping inside the huge region is also rejected.
        assert!(matches!(
            k.mmap_anonymous(pid, va.offset(4 * PAGE_SIZE), PAGE_SIZE, true),
            Err(VmError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn huge_munmap_frees_the_block() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let free0 = k.allocator().free_page_count();
        let va = VirtAddr(0x4000_0000);
        k.mmap_huge(pid, va, HUGE_PAGE_SIZE, true).unwrap();
        k.munmap_huge(pid, va, HUGE_PAGE_SIZE).unwrap();
        // The 512-page block returned; only the PT pages grown by the huge
        // mapping (PDPT + PD; cr3 predates free0) remain out.
        let grown_pt_pages = k.process(pid).unwrap().pt_pages().len() as u64 - 1;
        assert_eq!(k.allocator().free_page_count(), free0 - grown_pt_pages);
        assert!(k.read_virt(pid, va, &mut [0u8; 8], Access::user_read()).is_err());
    }

    #[test]
    fn destroy_process_reclaims_huge_mappings() {
        let mut k = kernel();
        let free0 = k.allocator().free_page_count();
        let pid = k.create_process(false).unwrap();
        k.mmap_huge(pid, VirtAddr(0x4000_0000), 2 * HUGE_PAGE_SIZE, true).unwrap();
        k.destroy_process(pid).unwrap();
        assert_eq!(k.allocator().free_page_count(), free0);
    }

    #[test]
    fn ps_bit_screening_removes_vulnerable_frames_from_the_zone() {
        use cta_dram::DisturbanceParams;
        let mut config = KernelConfig::small_test_cta();
        config.cta =
            Some(cta_mem::PtpSpec::paper_default().with_size(256 * 1024).with_multi_level(true));
        config.dram.disturbance = DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() };
        config.screen_ps_bit = true;
        let kernel = Kernel::new(config).unwrap();
        let layout = kernel.ptp_layout().unwrap();
        assert!(!layout.screened_pages().is_empty(), "pf=5% must screen something");
        // No remaining high-level sub-zone frame has a vulnerable PS cell.
        let mut dram = DramModule::new(kernel.dram().config().clone());
        for (range, level) in layout.subzones() {
            if !matches!(level, Some(PtLevel::Pd) | Some(PtLevel::Pdpt)) {
                continue;
            }
            let mut page = range.start;
            while page < range.end {
                let row = dram.geometry().row_of_addr(page).unwrap();
                let base = (page % dram.geometry().row_bytes()) * 8;
                let bad = dram.vulnerable_bits(row).unwrap().iter().any(|vb| {
                    vb.bit >= base && vb.bit < base + PAGE_SIZE * 8 && (vb.bit - base) % 64 == 7
                });
                assert!(!bad, "screened zone still contains PS-vulnerable frame {page:#x}");
                page += PAGE_SIZE;
            }
        }
    }

    #[test]
    fn ptp_exhaustion_is_hard_failure_under_cta() {
        let mut k = cta_kernel();
        let pid = k.create_process(false).unwrap();
        // Burn through ZONE_PTP by mapping pages at widely spread addresses
        // (each 2 MiB stride needs a fresh PT page).
        let mut failed = false;
        for i in 0..4096u64 {
            let va = VirtAddr(0x4000_0000 + i * (2 << 20));
            match k.mmap_anonymous(pid, va, PAGE_SIZE, true) {
                Ok(()) => {}
                Err(VmError::Alloc(_)) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed, "ZONE_PTP must eventually exhaust without fallback");
        // Ordinary memory is still available.
        assert!(k.allocator().free_page_count() > 0);
    }

    #[test]
    fn psc_resumes_walks_at_the_deepest_cached_level() {
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x10_0000);
        k.mmap_anonymous(pid, va, 4 * PAGE_SIZE, true).unwrap();
        // First translation walks all 4 levels and fills the PDE cache.
        k.translate(pid, va, Access::user_read()).unwrap();
        assert_eq!(k.psc_stats().misses, 1);
        // A sibling page in the same 2 MiB region misses the TLB but hits
        // the PDE cache: the walk reads only its leaf PTE.
        let reads0 = k.dram().stats().reads;
        k.translate(pid, va.offset(PAGE_SIZE), Access::user_read()).unwrap();
        assert_eq!(k.dram().stats().reads - reads0, 1, "PSC resume reads only the leaf");
        assert_eq!(k.psc_stats().hits, 1);
        // flush_tlb is a CR3 reload: the PSC empties too.
        k.flush_tlb();
        let reads1 = k.dram().stats().reads;
        k.translate(pid, va, Access::user_read()).unwrap();
        assert_eq!(k.dram().stats().reads - reads1, 4, "cold walk reads all 4 levels");
    }

    #[test]
    fn psc_disabled_kernel_walks_from_root_on_every_miss() {
        let mut config = KernelConfig::small_test();
        config.psc_entries = 0;
        let mut k = Kernel::new(config).unwrap();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x10_0000);
        k.mmap_anonymous(pid, va, 2 * PAGE_SIZE, true).unwrap();
        k.translate(pid, va, Access::user_read()).unwrap();
        let reads0 = k.dram().stats().reads;
        k.translate(pid, va.offset(PAGE_SIZE), Access::user_read()).unwrap();
        assert_eq!(k.dram().stats().reads - reads0, 4, "no PSC: full walk");
        assert_eq!(k.psc_stats(), crate::psc::PscStats::default());
    }

    #[test]
    fn flushed_caches_never_serve_a_corrupted_pde() {
        // The satellite coherence scenario: corrupt a PDE in DRAM while
        // both the TLB and the PDE cache hold entries derived from it. The
        // warm TLB keeps serving the old frame (hardware-faithful
        // staleness); after `flush_page` the translation follows the
        // corrupted pointer, and the stale-but-flushed caches never hand
        // the old frame back.
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va_a = VirtAddr(0x4000_0000); // PD index 0
        let va_b = VirtAddr(0x4020_0000); // PD index 1, same PD table
        k.mmap_anonymous(pid, va_a, PAGE_SIZE, true).unwrap();
        k.mmap_anonymous(pid, va_b, PAGE_SIZE, true).unwrap();
        let phys_a = k.translate(pid, va_a, Access::user_read()).unwrap();
        let phys_b = k.translate(pid, va_b, Access::user_read()).unwrap();
        assert_ne!(phys_a, phys_b);
        let records = k.iter_pt_entries(pid).unwrap();
        let pde_of = |va: VirtAddr| {
            records
                .iter()
                .find(|r| {
                    r.level == PtLevel::Pd
                        && (r.entry_addr - r.table.addr().0) / 8 == va.index(PtLevel::Pd)
                })
                .copied()
                .expect("PDE present")
        };
        let pde_a = pde_of(va_a);
        let pt_b = pde_of(va_b).pte.pfn();
        // Re-warm A's TLB entry and PDE-cache entry, then flip A's PDE to
        // point at B's page table.
        k.translate(pid, va_a, Access::user_read()).unwrap();
        k.dram_mut().write_u64(pde_a.entry_addr, pde_a.pte.with_pfn(pt_b).0).unwrap();
        assert_eq!(
            k.translate(pid, va_a, Access::user_read()).unwrap(),
            phys_a,
            "warm TLB still serves the pre-corruption frame"
        );
        k.flush_page(pid, va_a);
        assert_eq!(
            k.translate(pid, va_a, Access::user_read()).unwrap(),
            phys_b,
            "after invlpg the walk follows the corrupted PDE into B's table"
        );
        for _ in 0..4 {
            assert_eq!(
                k.translate(pid, va_a, Access::user_read()).unwrap(),
                phys_b,
                "the old frame is never served again"
            );
        }
    }

    #[test]
    fn munmap_huge_flushes_interior_tlb_entries() {
        // Regression test: the unmap used to flush only the chunk-base vpn,
        // leaving the other 511 pages of the 2 MiB chunk stale in the TLB.
        let mut k = kernel();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x4000_0000);
        k.mmap_huge(pid, va, HUGE_PAGE_SIZE, true).unwrap();
        let interior = va.offset(5 * PAGE_SIZE);
        k.translate(pid, interior, Access::user_read()).unwrap();
        k.munmap_huge(pid, va, HUGE_PAGE_SIZE).unwrap();
        assert!(
            matches!(k.translate(pid, interior, Access::user_read()), Err(VmError::Translate(_))),
            "interior vpn must not survive the huge unmap"
        );
    }

    #[test]
    fn access_batch_matches_individual_accesses() {
        let mut serial = kernel();
        let mut batched = kernel();
        // Mixed reads and writes, including page-crossing ones (offset near
        // a page end with a 64-byte buffer), sharing one buffer so reads
        // feed later writes.
        let ops: Vec<(VirtAddr, bool)> = vec![
            (VirtAddr(0x10_0000), true),
            (VirtAddr(0x10_0FC0), false),
            (VirtAddr(0x10_0FE0), true), // crosses into the next page
            (VirtAddr(0x10_2000), false),
            (VirtAddr(0x10_1000), true),
            (VirtAddr(0x10_0000), false),
        ];
        let run_serial = |k: &mut Kernel| {
            let pid = k.create_process(false).unwrap();
            k.mmap_anonymous(pid, VirtAddr(0x10_0000), 4 * PAGE_SIZE, true).unwrap();
            let mut buf = [0x2Au8; 64];
            for &(va, write) in &ops {
                if write {
                    k.write_virt(pid, va, &buf, Access::user_write()).unwrap();
                } else {
                    k.read_virt(pid, va, &mut buf, Access::user_read()).unwrap();
                }
            }
            buf
        };
        let buf_serial = run_serial(&mut serial);
        let pid = batched.create_process(false).unwrap();
        batched.mmap_anonymous(pid, VirtAddr(0x10_0000), 4 * PAGE_SIZE, true).unwrap();
        let mut buf_batched = [0x2Au8; 64];
        batched.access_batch(pid, &ops, &mut buf_batched).unwrap();
        assert_eq!(buf_batched, buf_serial);
        assert_eq!(batched.now_ns(), serial.now_ns());
        assert_eq!(batched.tlb_stats(), serial.tlb_stats());
        assert_eq!(batched.stats(), serial.stats());
    }
}
