use std::fmt;

use cta_mem::Pfn;

/// Identifier of a kernel file object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// A shared, page-backed file object.
///
/// This is the spray primitive of the Project Zero attack (Figure 3): a
/// process `mmap`s one file at *many* virtual addresses, forcing the kernel
/// to build many page tables that all point at the same physical frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileObject {
    id: FileId,
    frames: Vec<Pfn>,
    mapping_count: u64,
}

impl FileObject {
    pub(crate) fn new(id: FileId, frames: Vec<Pfn>) -> Self {
        FileObject { id, frames, mapping_count: 0 }
    }

    /// The file's identifier.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// The physical frames backing the file, in page order.
    pub fn frames(&self) -> &[Pfn] {
        &self.frames
    }

    /// How many live mappings reference the file.
    pub fn mapping_count(&self) -> u64 {
        self.mapping_count
    }

    pub(crate) fn add_mapping(&mut self) {
        self.mapping_count += 1;
    }

    pub(crate) fn remove_mapping(&mut self) {
        self.mapping_count = self.mapping_count.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_accounting() {
        let mut f = FileObject::new(FileId(1), vec![Pfn(10), Pfn(11)]);
        assert_eq!(f.frames().len(), 2);
        assert_eq!(f.mapping_count(), 0);
        f.add_mapping();
        f.add_mapping();
        f.remove_mapping();
        assert_eq!(f.mapping_count(), 1);
        assert_eq!(f.id().to_string(), "file#1");
    }
}
