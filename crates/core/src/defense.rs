//! The [`DefenseSpec`] catalog of software RowHammer defenses.
//!
//! A software RowHammer defense crosses up to two seams of the simulated
//! machine, and [`DefenseSpec`] has one method per seam:
//!
//! - **allocation** ([`DefenseSpec::configure`]): rewrite the
//!   [`KernelConfig`] before boot — CATT installs its partitioned
//!   [`cta_mem::MemoryMap`] here;
//! - **activation/refresh** ([`DefenseSpec::row_defense`]): supply a
//!   [`cta_dram::RowDefense`] that the DRAM module consults on every
//!   activation batch and through which it issues targeted refreshes —
//!   ANVIL, SoftTRR, and BlockHammer live here.
//!
//! [`DefenseSpec`] is the `Copy` value that builders, replay targets, and
//! experiment matrices carry.
//! [`SystemBuilder::defense`](crate::SystemBuilder::defense) applies both
//! seams in the right order (configure before boot, row defense after,
//! with protection replayed for boot-time page tables).

use cta_dram::{
    AnvilSamplerDefense, AnvilSamplerParams, BlockHammerDefense, BlockHammerParams,
    ObserverDefense, RowDefense, SoftTrrDefense, SoftTrrParams,
};
use cta_mem::MemoryMap;
use cta_vm::KernelConfig;

/// CATT (Brasser et al., USENIX Security 2017) as an allocation-seam
/// defense: a strict physical partition between kernel and user memory
/// with a guard stripe in between, installed as the boot memory map.
/// No activation hook — CATT never watches the DRAM command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CattPartition {
    /// Bytes of the top-of-memory user partition.
    pub user_bytes: u64,
    /// Bytes of the guard stripe between the partitions.
    pub guard_bytes: u64,
}

impl CattPartition {
    /// The conventional split: half of `total_bytes` for user memory with
    /// a one-page guard stripe.
    pub fn half_of(total_bytes: u64) -> Self {
        CattPartition { user_bytes: total_bytes / 2, guard_bytes: 4096 }
    }
}

/// Value-level catalog of the workspace's software defenses — what
/// builders, experiment matrices, and replay targets carry. `Copy` so
/// specs embed freely in campaign and recording metadata.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum DefenseSpec {
    /// No defense installed (the stock machine).
    #[default]
    None,
    /// Pure observer: proves the hook is side-effect free.
    Observer,
    /// CATT physical kernel/user partition.
    Catt(CattPartition),
    /// ANVIL activation sampling + targeted refresh.
    Anvil(AnvilSamplerParams),
    /// SoftTRR targeted refresh of page-table neighborhoods.
    SoftTrr(SoftTrrParams),
    /// BlockHammer activation-rate blacklisting.
    BlockHammer(BlockHammerParams),
}

impl DefenseSpec {
    /// Every defense in the catalog with default parameters, `None`
    /// first — the defense axis of `exp-matrix`.
    pub fn catalog(total_bytes: u64) -> Vec<DefenseSpec> {
        vec![
            DefenseSpec::None,
            DefenseSpec::Catt(CattPartition::half_of(total_bytes)),
            DefenseSpec::Anvil(AnvilSamplerParams::default()),
            DefenseSpec::SoftTrr(SoftTrrParams::default()),
            DefenseSpec::BlockHammer(BlockHammerParams::default()),
        ]
    }

    /// Whether this is [`DefenseSpec::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, DefenseSpec::None)
    }

    /// The spec's stable identifier.
    pub fn name(&self) -> &'static str {
        match self {
            DefenseSpec::None => "none",
            DefenseSpec::Observer => "observer",
            DefenseSpec::Catt(_) => "catt",
            DefenseSpec::Anvil(_) => "anvil",
            DefenseSpec::SoftTrr(_) => "softtrr",
            DefenseSpec::BlockHammer(_) => "blockhammer",
        }
    }

    /// Allocation seam: adjusts the kernel configuration before boot.
    /// CATT installs its partitioned memory map; every other spec leaves
    /// the configuration as it is.
    pub fn configure(&self, config: &mut KernelConfig) {
        if let DefenseSpec::Catt(partition) = self {
            let total = config.dram.geometry.capacity_bytes();
            config.memory_map_override = Some(MemoryMap::x86_64_with_catt(
                total,
                partition.user_bytes,
                partition.guard_bytes,
            ));
        }
    }

    /// Activation/refresh seam: the row defense to install on the DRAM
    /// module, if this spec watches the activation stream.
    pub fn row_defense(&self) -> Option<Box<dyn RowDefense>> {
        match *self {
            DefenseSpec::None | DefenseSpec::Catt(_) => None,
            DefenseSpec::Observer => Some(Box::new(ObserverDefense::new())),
            DefenseSpec::Anvil(params) => Some(Box::new(AnvilSamplerDefense::new(params))),
            DefenseSpec::SoftTrr(params) => Some(Box::new(SoftTrrDefense::new(params))),
            DefenseSpec::BlockHammer(params) => Some(Box::new(BlockHammerDefense::new(params))),
        }
    }
}

impl std::fmt::Display for DefenseSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;
    use cta_vm::VirtAddr;

    #[test]
    fn catalog_covers_every_defense_once() {
        let catalog = DefenseSpec::catalog(8 << 20);
        let names: Vec<&str> = catalog.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["none", "catt", "anvil", "softtrr", "blockhammer"]);
    }

    #[test]
    fn catt_spec_installs_the_partitioned_map() {
        let spec = DefenseSpec::Catt(CattPartition::half_of(8 << 20));
        let builder = SystemBuilder::small_test().defense(spec);
        let config = builder.to_config();
        assert!(config.memory_map_override.is_some(), "CATT overrides the memory map");
        // CATT is allocation-only: no row hook on the DRAM module, and the
        // booted allocator enforces the strict user partition.
        let kernel = builder.build().unwrap();
        assert!(kernel.dram().defense().is_none());
        assert!(kernel.allocator().strict_user(), "CATT partitions are strict");
    }

    #[test]
    fn row_defenses_install_on_the_module() {
        for spec in [
            DefenseSpec::Observer,
            DefenseSpec::Anvil(AnvilSamplerParams::default()),
            DefenseSpec::SoftTrr(SoftTrrParams::default()),
            DefenseSpec::BlockHammer(BlockHammerParams::default()),
        ] {
            let kernel = SystemBuilder::small_test().defense(spec).build().unwrap();
            assert_eq!(kernel.dram().defense().map(|d| d.name()), Some(spec.name()));
        }
    }

    #[test]
    fn softtrr_build_protects_boot_and_later_page_tables() {
        let mut kernel = SystemBuilder::small_test()
            .defense(DefenseSpec::SoftTrr(SoftTrrParams::default()))
            .build()
            .unwrap();
        let pid = kernel.create_process(false).unwrap();
        kernel.mmap_anonymous(pid, VirtAddr(0x40_0000), 0x4000, true).unwrap();
        let protected: u64 = kernel
            .dram()
            .defense()
            .expect("softtrr installed")
            .counters()
            .iter()
            .find(|(k, _)| *k == "softtrr_protected_rows")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(protected > 0, "page-table allocations must register protected rows");
        assert_eq!(protected, kernel.stats().pt_pages_allocated.min(protected), "sanity");
    }

    #[test]
    fn none_spec_build_is_byte_identical_to_default_build() {
        let mut stock = SystemBuilder::small_test().protected(true).build().unwrap();
        let mut defended =
            SystemBuilder::small_test().protected(true).defense(DefenseSpec::None).build().unwrap();
        for k in [&mut stock, &mut defended] {
            let pid = k.create_process(false).unwrap();
            k.mmap_anonymous(pid, VirtAddr(0x40_0000), 0x8000, true).unwrap();
            let ops: Vec<(VirtAddr, bool)> =
                (0..8).map(|i| (VirtAddr(0x40_0000 + i * 0x1000), i % 2 == 0)).collect();
            let mut buf = [0xA5u8; 16];
            k.access_batch(pid, &ops, &mut buf).unwrap();
        }
        assert_eq!(
            stock.dram().peek(0, stock.dram().capacity_bytes() as usize).unwrap(),
            defended.dram().peek(0, defended.dram().capacity_bytes() as usize).unwrap()
        );
        assert_eq!(stock.counters("diff").to_json(), defended.counters("diff").to_json());
        assert_eq!(stock.dram().now_ns(), defended.dram().now_ns());
    }
}
