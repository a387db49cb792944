//! One-stop construction of simulated machines, protected or not.

use cta_dram::{CellLayout, CellType, DisturbanceParams, DramConfig, DramError, MAX_ROW_BYTES};
use cta_mem::{PtpSpec, PAGE_SIZE};
use cta_vm::{Kernel, KernelConfig, VmError};

use crate::defense::DefenseSpec;

/// Builder for a complete simulated system: DRAM module + kernel, with or
/// without CTA.
///
/// ```
/// use cta_core::builder::SystemBuilder;
///
/// # fn main() -> Result<(), cta_vm::VmError> {
/// let kernel = SystemBuilder::new(64 << 20)   // 64 MiB machine
///     .seed(42)
///     .protected(true)                        // enable CTA
///     .ptp_bytes(1 << 20)                     // 1 MiB ZONE_PTP
///     .build()?;
/// assert!(kernel.cta_enabled());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    memory_bytes: u64,
    row_bytes: u64,
    cell_period_rows: u64,
    first_cell_type: CellType,
    disturbance: DisturbanceParams,
    seed: u64,
    protected: bool,
    ptp_bytes: u64,
    multi_level: bool,
    restrict_two_zeros: bool,
    profile_cells: bool,
    screen_ps_bit: bool,
    psc_entries: usize,
    defense: DefenseSpec,
}

impl SystemBuilder {
    /// Starts a builder for a machine with `memory_bytes` of DRAM
    /// (power of two), defaulting to 4 KiB rows alternating cell type every
    /// 64 rows, a paper-default disturbance model with `pf` raised to 2%
    /// (so small-scale attack experiments actually observe flips), CTA off.
    pub fn new(memory_bytes: u64) -> Self {
        SystemBuilder {
            memory_bytes,
            row_bytes: 4096,
            cell_period_rows: 64,
            first_cell_type: CellType::True,
            disturbance: DisturbanceParams { pf: 0.02, ..DisturbanceParams::default() },
            seed: 0xCA11_AB1E,
            protected: false,
            ptp_bytes: (memory_bytes / 64).max(256 * 1024),
            multi_level: false,
            restrict_two_zeros: false,
            profile_cells: false,
            screen_ps_bit: false,
            psc_entries: 16,
            defense: DefenseSpec::None,
        }
    }

    /// An 8 MiB machine matching [`KernelConfig::small_test`] defaults.
    pub fn small_test() -> Self {
        SystemBuilder::new(8 << 20).ptp_bytes(256 * 1024)
    }

    /// DRAM row size in bytes (power of two).
    pub fn row_bytes(mut self, row_bytes: u64) -> Self {
        self.row_bytes = row_bytes;
        self
    }

    /// Cell-type alternation period in rows.
    pub fn cell_period(mut self, rows: u64) -> Self {
        self.cell_period_rows = rows;
        self
    }

    /// Polarity of row 0.
    pub fn first_cell_type(mut self, cell_type: CellType) -> Self {
        self.first_cell_type = cell_type;
        self
    }

    /// Disturbance (RowHammer) model parameters.
    pub fn disturbance(mut self, params: DisturbanceParams) -> Self {
        self.disturbance = params;
        self
    }

    /// Module seed (fixes the vulnerability map).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables CTA.
    pub fn protected(mut self, protected: bool) -> Self {
        self.protected = protected;
        self
    }

    /// `ZONE_PTP` size in bytes (power of two).
    pub fn ptp_bytes(mut self, bytes: u64) -> Self {
        self.ptp_bytes = bytes;
        self
    }

    /// Per-level PTP sub-zones (section 7 extension).
    pub fn multi_level(mut self, enabled: bool) -> Self {
        self.multi_level = enabled;
        self
    }

    /// The two-zeros indicator restriction (section 5 enhancement).
    pub fn restrict_two_zeros(mut self, enabled: bool) -> Self {
        self.restrict_two_zeros = enabled;
        self
    }

    /// Identify cell types with the boot-time profiler rather than ground
    /// truth.
    pub fn profile_cells(mut self, enabled: bool) -> Self {
        self.profile_cells = enabled;
        self
    }

    /// Apply the section 7 page-size-bit screen at boot.
    pub fn screen_ps_bit(mut self, enabled: bool) -> Self {
        self.screen_ps_bit = enabled;
        self
    }

    /// Per-level paging-structure-cache capacity in entries; 0 disables the
    /// PSC so every TLB miss walks from CR3 (the pre-PSC translation path).
    pub fn psc_entries(mut self, entries: usize) -> Self {
        self.psc_entries = entries;
        self
    }

    /// Software RowHammer defense to install on the machine (see
    /// [`crate::defense`]): [`DefenseSpec::configure`] rewrites the boot
    /// configuration, and the [`DefenseSpec::row_defense`] hook lands on
    /// the DRAM module after boot. [`DefenseSpec::None`] (the default)
    /// builds the stock machine, byte for byte.
    pub fn defense(mut self, defense: DefenseSpec) -> Self {
        self.defense = defense;
        self
    }

    /// The kernel configuration this builder describes.
    pub fn to_config(&self) -> KernelConfig {
        use cta_dram::{AddressMapping, DramGeometry, RetentionParams};
        let rows = self.memory_bytes / self.row_bytes;
        let geometry = DramGeometry::new(self.row_bytes, rows, 1, AddressMapping::RowLinear);
        let dram = DramConfig {
            geometry,
            layout: CellLayout::Alternating {
                period_rows: self.cell_period_rows,
                first: self.first_cell_type,
            },
            disturbance: self.disturbance,
            retention: RetentionParams::default(),
            refresh_interval_ns: 64_000_000,
            seed: self.seed,
        };
        let cta = self.protected.then(|| {
            PtpSpec::paper_default()
                .with_size(self.ptp_bytes)
                .with_multi_level(self.multi_level)
                .with_two_zeros_restriction(self.restrict_two_zeros)
        });
        let mut config = KernelConfig {
            dram,
            cta,
            profile_cells: self.profile_cells,
            tlb_entries: 64,
            psc_entries: self.psc_entries,
            cell_map_override: None,
            screen_ps_bit: self.screen_ps_bit,
            memory_map_override: None,
        };
        // Allocation seam: the defense may rewrite the boot configuration
        // (CATT's partitioned memory map).
        self.defense.configure(&mut config);
        config
    }

    /// Boots the machine, installing the configured defense's activation
    /// hook (if any) on the DRAM module.
    ///
    /// # Errors
    ///
    /// [`VmError::BadMemorySize`] unless the row size is a power of two of
    /// at most [`MAX_ROW_BYTES`] and the memory size a nonzero whole number
    /// of at most [`MAX_ROWS`](cta_dram::MAX_ROWS) DRAM rows (and, with
    /// CTA, a power of two holding a smaller, page-aligned, power-of-two
    /// `ZONE_PTP`);
    /// [`VmError::ZeroCellPeriod`] if the cell-type alternation period is
    /// zero rows; otherwise propagates kernel boot failures (e.g. an infeasible
    /// `ZONE_PTP`).
    pub fn build(&self) -> Result<Kernel, VmError> {
        self.check_memory_size()?;
        if self.cell_period_rows == 0 {
            return Err(VmError::ZeroCellPeriod);
        }
        let mut kernel = Kernel::new(self.to_config()).map_err(|e| match e {
            VmError::Dram(DramError::TooManyRows { .. }) => VmError::BadMemorySize {
                bytes: self.memory_bytes,
                reason: "holds more than 2^32 DRAM rows",
            },
            e => e,
        })?;
        if let Some(hook) = self.defense.row_defense() {
            kernel.install_row_defense(hook);
        }
        Ok(kernel)
    }

    /// The memory-size conditions `to_config` and the CTA zone layout
    /// would otherwise assert.
    fn check_memory_size(&self) -> Result<(), VmError> {
        let bytes = self.memory_bytes;
        let reason = if !self.row_bytes.is_power_of_two() {
            "cannot be split into DRAM rows whose size is not a power of two"
        } else if self.row_bytes > MAX_ROW_BYTES {
            "cannot be split into DRAM rows wider than 256 MiB"
        } else if bytes < self.row_bytes {
            "does not hold one DRAM row"
        } else if !bytes.is_multiple_of(self.row_bytes) {
            "is not a whole number of DRAM rows"
        } else if self.protected && !bytes.is_power_of_two() {
            "is not a power of two, which CTA's zone layout requires"
        } else if self.protected
            && !(self.ptp_bytes.is_power_of_two() && self.ptp_bytes >= PAGE_SIZE)
        {
            "cannot host a ZONE_PTP whose size is not a page-aligned power of two"
        } else if self.protected && self.ptp_bytes >= bytes {
            "cannot host a ZONE_PTP that is not smaller than memory"
        } else {
            return Ok(());
        };
        Err(VmError::BadMemorySize { bytes, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_build() {
        let k = SystemBuilder::small_test().build().unwrap();
        assert!(!k.cta_enabled());
        assert_eq!(k.dram().capacity_bytes(), 8 << 20);
    }

    #[test]
    fn protected_build_has_ptp_zone_at_top() {
        let k = SystemBuilder::small_test().protected(true).build().unwrap();
        assert!(k.cta_enabled());
        let layout = k.ptp_layout().unwrap();
        assert!(layout.low_water_mark() > 0);
        assert_eq!(layout.ptp_bytes(), 256 * 1024);
    }

    #[test]
    fn profiled_build_matches_ground_truth_build() {
        let a = SystemBuilder::small_test().protected(true).build().unwrap();
        let b = SystemBuilder::small_test().protected(true).profile_cells(true).build().unwrap();
        assert_eq!(
            a.ptp_layout().unwrap().low_water_mark(),
            b.ptp_layout().unwrap().low_water_mark(),
            "profiler and ground truth must agree on the zone layout"
        );
    }

    #[test]
    fn multi_level_and_restriction_flags_propagate() {
        let k = SystemBuilder::small_test()
            .protected(true)
            .multi_level(true)
            .restrict_two_zeros(true)
            .build()
            .unwrap();
        let layout = k.ptp_layout().unwrap();
        assert!(layout.subzones().iter().all(|(_, l)| l.is_some()));
        assert!(!layout.trusted_ranges().is_empty());
    }

    #[test]
    fn bad_memory_sizes_are_typed_errors() {
        for (bytes, protected) in [(0, false), (0, true), (1024, false), (3 << 20, true)] {
            let err = SystemBuilder::new(bytes).protected(protected).build().unwrap_err();
            assert!(matches!(err, VmError::BadMemorySize { bytes: b, .. } if b == bytes), "{err}");
        }
        assert!(SystemBuilder::new((3 << 20) + 1).build().is_err());
        // CTA machines whose ZONE_PTP is not a power of two, not page
        // aligned, or not smaller than memory (the 256 KiB machine's
        // default zone is 256 KiB).
        for builder in [
            SystemBuilder::new(8 << 20).ptp_bytes(3 << 18),
            SystemBuilder::new(8 << 20).ptp_bytes(2048),
            SystemBuilder::new(256 << 10),
        ] {
            let err = builder.protected(true).build().unwrap_err();
            assert!(
                matches!(err, VmError::BadMemorySize { reason, .. } if reason.contains("ZONE_PTP")),
                "{err}"
            );
        }
        // Rows must be a power of two wide, even when memory holds a whole
        // number of them.
        for row_bytes in [0, 3, 3072] {
            let err = SystemBuilder::new(6 << 20).row_bytes(row_bytes).build().unwrap_err();
            assert!(
                matches!(err, VmError::BadMemorySize { reason, .. } if reason.contains("row")),
                "{err}"
            );
        }
        // Rows past 2^28 bytes are refused before any model sizes one.
        let err = SystemBuilder::new(1 << 30).row_bytes(1 << 29).build().unwrap_err();
        assert!(
            matches!(err, VmError::BadMemorySize { reason, .. } if reason.contains("wider")),
            "{err}"
        );
        // A stock machine needs whole rows, not a power of two.
        assert_eq!(SystemBuilder::new(3 << 20).build().unwrap().dram().capacity_bytes(), 3 << 20);
    }

    #[test]
    fn a_module_of_more_than_2_32_rows_is_a_typed_error() {
        // 2^33 and 2^50 rows of 4 KiB: refused by the row cap before any
        // per-row table is reserved.
        for bytes in [1u64 << 45, 1 << 62] {
            for protected in [false, true] {
                let err = SystemBuilder::new(bytes).protected(protected).build().unwrap_err();
                assert!(
                    matches!(err, VmError::BadMemorySize { bytes: b, reason }
                        if b == bytes && reason.contains("2^32 DRAM rows")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn zero_cell_period_is_a_typed_error() {
        for protected in [false, true] {
            let err = SystemBuilder::small_test()
                .protected(protected)
                .cell_period(0)
                .build()
                .unwrap_err();
            assert_eq!(err, VmError::ZeroCellPeriod);
        }
    }

    #[test]
    fn all_anti_module_cannot_be_protected() {
        // Force every row anti by alternating with anti first and a period
        // covering the whole module.
        let b = SystemBuilder::small_test()
            .protected(true)
            .first_cell_type(CellType::Anti)
            .cell_period(1 << 40);
        assert!(b.build().is_err());
    }
}
