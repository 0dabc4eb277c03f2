//! Output digests: FNV-1a over a fixed, *named* list of `Report` fields.
//!
//! The list is spelled out here rather than derived from `{:?}` so that a
//! later PR adding a `Report` field does not invalidate the goldens, while
//! any change to what the simulator computes for these fields does.

use metrics::Report;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The digested fields, by name. Order here is the digest's order and is
/// part of the golden contract; the order of fields in `Report` is not.
pub fn fields(r: &Report) -> [(&'static str, u64); 14] {
    [
        ("originated", r.originated),
        ("delivered", r.delivered),
        ("routing_tx", r.routing_tx),
        ("mac_control_tx", r.mac_control_tx),
        ("data_tx", r.data_tx),
        ("replies_received", r.replies_received),
        ("cache_hits", r.cache_hits),
        ("cache_stale_hits", r.cache_stale_hits),
        ("discoveries", r.discoveries),
        ("link_breaks", r.link_breaks),
        ("ifq_drops", r.ifq_drops),
        ("dsr_drops", r.dsr_drops),
        ("faults_injected", r.faults_injected),
        ("avg_delay_s.bits", r.avg_delay_s.to_bits()),
    ]
}

/// Digest of a name/value list.
pub fn of_fields(fields: &[(&str, u64)]) -> u64 {
    fields.iter().fold(FNV_OFFSET, |h, (name, value)| {
        fnv1a(fnv1a(fnv1a(h, name.as_bytes()), b"="), &value.to_le_bytes())
    })
}

/// Digest of one run's report.
pub fn of_report(r: &Report) -> u64 {
    of_fields(&fields(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Metrics;

    fn sample() -> Report {
        let mut r = Metrics::new().report("x", 1.0);
        r.originated = 100;
        r.delivered = 90;
        r.routing_tx = 7;
        r.avg_delay_s = 0.0125;
        r
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_ignores_how_the_report_was_assembled() {
        // Same values written in a different order, plus differences in
        // fields outside the list: label, percentiles, derived ratios.
        let a = sample();
        let mut b = Metrics::new().report("another label", 2.0);
        b.avg_delay_s = 0.0125;
        b.routing_tx = 7;
        b.delivered = 90;
        b.originated = 100;
        b.delay_p99_s = 3.0;
        b.delivery_fraction = 0.5;
        assert_eq!(of_report(&a), of_report(&b));
    }

    #[test]
    fn digest_changes_when_any_listed_field_changes() {
        let base = sample();
        let base_fields = fields(&base);
        let base_digest = of_fields(&base_fields);
        for i in 0..base_fields.len() {
            let mut changed = base_fields;
            changed[i].1 ^= 1;
            assert_ne!(of_fields(&changed), base_digest, "field {}", base_fields[i].0);
        }
        // And through the Report itself, for one integer and the float.
        let mut r = sample();
        r.ifq_drops += 1;
        assert_ne!(of_report(&r), base_digest);
        let mut r = sample();
        r.avg_delay_s = f64::from_bits(r.avg_delay_s.to_bits() + 1);
        assert_ne!(of_report(&r), base_digest);
    }

    #[test]
    fn digest_depends_on_which_field_holds_a_value() {
        let mut a = sample();
        let mut b = sample();
        a.cache_hits = 5;
        b.cache_stale_hits = 5;
        assert_ne!(of_report(&a), of_report(&b));
    }
}
