//! Allocation-site identifiers.

use core::fmt;

use crate::json::JsonWriter;

/// A unique identifier for one allocator call site.
///
/// The paper's LLVM pass assigns each call to the global allocator a tuple
/// of function ID, basic-block ID, and call-site ID, which ties a recorded
/// fault back to an exact location in the IR (§4.3.1). The identifier is
/// stable across the profiling and enforcement builds — that stability is
/// what makes the profile → rewrite hand-off sound.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AllocId {
    /// The containing function's ID.
    pub func: u32,
    /// The containing basic block's ID within the function.
    pub block: u32,
    /// The call site's ID within the block.
    pub site: u32,
}

impl AllocId {
    /// Creates an identifier from its three components.
    pub const fn new(func: u32, block: u32, site: u32) -> AllocId {
        AllocId { func, block, site }
    }

    /// Writes the `{"func":F,"block":B,"site":S}` object every report
    /// and profile uses for a site.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("func", self.func).field("block", self.block).field("site", self.site);
        });
    }
}

impl fmt::Display for AllocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}.b{}.s{}", self.func, self.block, self.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = AllocId::new(1, 0, 0);
        let b = AllocId::new(1, 0, 1);
        let c = AllocId::new(2, 0, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_roundtrip_shape() {
        assert_eq!(AllocId::new(3, 1, 4).to_string(), "f3.b1.s4");
    }
}
