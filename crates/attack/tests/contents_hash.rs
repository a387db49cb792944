//! The module's copy-free contents hash must equal the recording format's
//! definition, wordwise FNV-1a 64 over a whole-capacity `peek`, on every
//! row size.

use cta_attack::recording::fnv1a64_wordwise;
use cta_dram::{AddressMapping, CellLayout, CellType, DramConfig, DramGeometry, DramModule, RowId};

fn module(row_bytes: u64) -> DramModule {
    DramModule::new(DramConfig {
        geometry: DramGeometry::new(row_bytes, 64, 1, AddressMapping::RowLinear),
        layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
        ..DramConfig::small_test()
    })
}

fn assert_hash_matches_peek(m: &DramModule, what: &str) {
    let all = m.peek(0, m.capacity_bytes() as usize).unwrap();
    assert_eq!(
        m.contents_hash(),
        fnv1a64_wordwise(&all),
        "{what}: {}-byte rows",
        m.geometry().row_bytes()
    );
}

#[test]
fn contents_hash_equals_the_wordwise_hash_of_a_full_peek() {
    // 4096: whole 64-byte blocks; 32/16/8: not a multiple of 64; 4/2/1:
    // not a multiple of 8, so words straddle rows.
    for row_bytes in [4096u64, 32, 16, 8, 4, 2, 1] {
        let mut m = module(row_bytes);
        assert_hash_matches_peek(&m, "fresh module");

        // An all-zero materialized row next to unmaterialized ones.
        m.fill(5 * row_bytes, row_bytes as usize, 0).unwrap();
        assert_eq!(m.rows_materialized(), 1);
        assert_hash_matches_peek(&m, "zero row");

        // Non-zero bytes at both ends of a row and in its middle, with
        // zero 64-byte blocks between them on the wide rows.
        let row = 9 * row_bytes;
        m.write(row, &[0xA1]).unwrap();
        m.write(row + row_bytes / 2, &[0xB2]).unwrap();
        m.write(row + row_bytes - 1, &[0xC3]).unwrap();
        assert_hash_matches_peek(&m, "sparse row");

        // A run of data crossing row boundaries (many rows on the
        // narrow geometries).
        let data: Vec<u8> = (1..=200u8).collect();
        let len = data.len().min((16 * row_bytes) as usize);
        m.write(20 * row_bytes + row_bytes / 2, &data[..len]).unwrap();
        assert_hash_matches_peek(&m, "cross-row run");

        // A remapped row: the logical row now reads its spare's storage.
        m.write(2 * row_bytes, &[0x5A]).unwrap();
        m.remap_row(RowId(2), RowId(4)).unwrap();
        assert_hash_matches_peek(&m, "remapped row");

        // The trailing row, so a partial final word reaches `finish`.
        m.write(m.capacity_bytes() - 1, &[0x7E]).unwrap();
        assert_hash_matches_peek(&m, "last byte");
    }
}
