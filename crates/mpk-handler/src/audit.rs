//! The bounded audit log: one record per serviced violation.

use pkru_mpk::AccessKind;
use pkru_provenance::json::{self, JsonWriter};
use pkru_provenance::AllocId;
use pkru_vmem::VirtAddr;

/// Maximum records one handler retains.
///
/// The log is evidence, not a database: under a hostile flood of
/// violations it must not grow the heap without bound. Overflow is
/// counted, not silently dropped.
pub const AUDIT_LOG_CAP: usize = 256;

/// One serviced MPK violation, with its provenance resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuditRecord {
    /// Pool slot of the worker whose compartment faulted.
    pub worker: usize,
    /// Position of this record in the worker's violation stream (0-based,
    /// monotonic across incarnations; survives quarantine respawns).
    pub seq: u64,
    /// The faulting byte address.
    pub addr: VirtAddr,
    /// The protection key tagged on the faulting page.
    pub pkey: u8,
    /// The PKRU value that denied the access.
    pub pkru: u32,
    /// Whether the faulting access was a load or a store.
    pub access: AccessKind,
    /// The allocation site owning the faulting address, if the metadata
    /// table could resolve it (a raw pointer into an untracked object
    /// resolves to `None`).
    pub site: Option<AllocId>,
}

impl AuditRecord {
    /// Writes the record as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("worker", self.worker)
                .field("seq", self.seq)
                .field("addr", self.addr)
                .field("pkey", self.pkey)
                .field("pkru", self.pkru)
                .field("access", self.access.to_string());
            w.key("site").optional(self.site, |w, id| id.write_json(w));
        });
    }

    /// Serializes one record as a deterministic JSON object.
    pub fn to_json(&self) -> String {
        json::render(|w| self.write_json(w))
    }
}

/// Serializes a slice of records as a deterministic JSON array.
pub fn audit_log_json(records: &[AuditRecord]) -> String {
    json::render(|w| {
        w.array(records, |w, record| record.write_json(w));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(site: Option<AllocId>) -> AuditRecord {
        AuditRecord {
            worker: 2,
            seq: 5,
            addr: 0x9000_1234,
            pkey: 1,
            pkru: 0x0000_000c,
            access: AccessKind::Read,
            site,
        }
    }

    #[test]
    fn record_json_schema() {
        assert_eq!(
            record(Some(AllocId::new(7, 0, 3))).to_json(),
            "{\"worker\":2,\"seq\":5,\"addr\":2415923764,\"pkey\":1,\"pkru\":12,\
             \"access\":\"read\",\"site\":{\"func\":7,\"block\":0,\"site\":3}}"
        );
        assert_eq!(
            record(None).to_json(),
            "{\"worker\":2,\"seq\":5,\"addr\":2415923764,\"pkey\":1,\"pkru\":12,\
             \"access\":\"read\",\"site\":null}"
        );
    }

    #[test]
    fn log_json_is_a_flat_array() {
        assert_eq!(audit_log_json(&[]), "[]");
        let one = record(None);
        let expected = format!("[{},{}]", one.to_json(), one.to_json());
        assert_eq!(audit_log_json(&[one, one]), expected);
    }
}
