//! JSON field lists for the types the experiment harness, the tests and
//! machine snapshots serialize: [`MachineConfig`], [`Protocol`], the
//! statistics structures, and the workload and stall vocabulary a paused
//! machine holds. Built on the workspace's offline `lrc-json` codec
//! (re-exported as [`crate::lrc_json`] for the crates above this one).

use crate::config::{MachineConfig, Placement, ResourceLimits};
use crate::stats::{
    Breakdown, CrashStats, DataLossEvent, FaultStats, Histogram, LatencyStats, MachineStats,
    MissClass, MissCounts, ProcStats, RaceReport, RaceSite, RaceStats, ResourceStats, StallKind,
    Traffic, HIST_BUCKETS,
};
use crate::types::{LineAddr, Protocol};
use crate::workload::Op;
use lrc_json::{json_struct, Ctx, Dec, DecodeError, DecodeReason, Defaulted, FromJson, List};
use lrc_json::{Plain, ToJson, Value, Wire};

impl ToJson for Protocol {
    fn to_json(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl FromJson for Protocol {
    fn decode(v: &Value, _: Ctx) -> Result<Protocol, DecodeError> {
        let name = v.as_str().ok_or_else(|| DecodeError::expected("a protocol name"))?;
        Protocol::parse(name)
            .ok_or_else(|| DecodeError::new(DecodeReason::UnknownTag(name.to_string())))
    }
}

json_struct!(enum Placement as str {
    RoundRobinPages = "round-robin-pages",
    AllAtZero = "all-at-zero",
    FirstTouch = "first-touch",
});

/// A line address travels as its `u64`, in [`Dec`]imal.
impl Wire<LineAddr> for Dec {
    fn encode(x: &LineAddr) -> Value {
        <Dec as Wire<u64>>::encode(&x.0)
    }
    fn decode(v: &Value, cx: Ctx) -> Result<LineAddr, DecodeError> {
        <Dec as Wire<u64>>::decode(v, cx).map(LineAddr)
    }
}

json_struct!(enum Op {
    Compute(n) = "compute",
    Read(a: Dec) = "read",
    Write(a: Dec) = "write",
    Acquire(lock) = "acquire",
    Release(lock) = "release",
    Barrier(bar) = "barrier",
    Fence = "fence",
    Done = "done",
});

json_struct!(enum StallKind as str { Cpu = "cpu", Read = "read", Write = "write", Sync = "sync" });

json_struct!(MachineConfig {
    num_procs,
    line_size,
    cache_size,
    cache_assoc,
    mem_setup,
    mem_bytes_per_cycle,
    bus_bytes_per_cycle,
    net_bytes_per_cycle,
    switch_latency,
    wire_latency,
    write_notice_cost,
    dir_cost_lazy,
    dir_cost_eager,
    write_buffer_entries,
    coalescing_buffer_entries,
    page_size,
    ctrl_msg_bytes,
    word_size,
    sync_service_cost,
    skew_quantum,
    cb_flush_delay,
    nack_retry_delay,
    placement,
    dir_pointers,
    resources,
});

json_struct!(ResourceLimits {
    ni_ingress,
    ni_egress,
    dir_request_slots,
    write_notice_buffer,
    nack_backoff_base,
    nack_retry_budget,
});

impl ToJson for MissCounts {
    fn to_json(&self) -> Value {
        Value::Object(
            MissClass::ALL
                .iter()
                .map(|&c| (c.name().to_string(), self.get(c).to_json()))
                .collect(),
        )
    }
}

impl FromJson for MissCounts {
    fn decode(v: &Value, cx: Ctx) -> Result<MissCounts, DecodeError> {
        let mut counts = [0u64; 5];
        for (i, c) in MissClass::ALL.iter().enumerate() {
            counts[i] = <Plain as Wire<u64>>::take(v, c.name(), cx)?;
        }
        Ok(MissCounts::from_array(counts))
    }
}

json_struct!(Breakdown { cpu, read, write, sync });
json_struct!(Traffic { control_msgs, data_msgs, write_data_msgs, bytes });
json_struct!(ProcStats {
    breakdown,
    refs,
    reads,
    writes,
    read_misses,
    write_misses,
    upgrades,
    miss_classes,
    notices_received,
    acquire_invalidations,
    eager_invalidations,
    lock_acquires,
    barriers,
    traffic,
    three_hop,
    finish_time,
    pp_busy,
    mem_busy,
});
json_struct!(FaultStats {
    dropped,
    duplicated,
    delayed,
    corrupted,
    link_nacks,
    retries,
    timeouts,
    retries_exhausted,
    dup_suppressed,
    link_msgs,
});
json_struct!(ResourceStats {
    busy_nacks,
    nack_retries,
    nack_park_fallbacks,
    ni_rejects,
    ni_retries,
    backpressure_stall_cycles,
    wn_overflows,
    overflow_fallbacks,
    overflow_invalidations,
    peak_pending_invals,
    peak_parked,
});
/// Histogram buckets travel sparsely: only non-empty ones, as
/// `[index, count]` pairs, so an all-zero histogram is
/// `{"count":0,"sum":0,"max":0,"buckets":[]}`.
enum Sparse {}

impl Wire<[u64; HIST_BUCKETS]> for Sparse {
    fn encode(buckets: &[u64; HIST_BUCKETS]) -> Value {
        let nonzero: Vec<(usize, u64)> =
            buckets.iter().copied().enumerate().filter(|&(_, n)| n > 0).collect();
        <List<(Plain, Plain)> as Wire<_>>::encode(&nonzero)
    }
    fn decode(v: &Value, cx: Ctx) -> Result<[u64; HIST_BUCKETS], DecodeError> {
        let mut buckets = [0; HIST_BUCKETS];
        let nonzero: Vec<(usize, u64)> = <List<(Plain, Plain)> as Wire<_>>::decode(v, cx)?;
        for (i, n) in nonzero {
            *buckets.get_mut(i).ok_or_else(|| DecodeError::expected("a bucket index in range"))? =
                n;
        }
        Ok(buckets)
    }
}

json_struct!(Histogram { count, sum, max, buckets: Sparse });

impl ToJson for LatencyStats {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(n, h)| (n.to_string(), h.to_json())).collect())
    }
}

impl FromJson for LatencyStats {
    fn decode(v: &Value, cx: Ctx) -> Result<LatencyStats, DecodeError> {
        let fields = v.as_object().ok_or_else(|| DecodeError::expected("an object"))?;
        let mut out = LatencyStats::new();
        for (name, hv) in fields {
            out.hist_mut(name).merge(&Histogram::decode(hv, cx).map_err(|e| e.in_field(name))?);
        }
        Ok(out)
    }
}

json_struct!(RaceSite { proc, ref_index, write });
json_struct!(RaceReport { addr, prior, current, clocks });
json_struct!(RaceStats {
    words_monitored,
    epoch_fast_hits,
    vector_promotions,
    races_found,
    reports,
});
json_struct!(DataLossEvent { line, owner, home, detected_at });
json_struct!(CrashStats {
    crashes,
    suspicions,
    heartbeats_sent,
    dirty_lines_lost,
    clean_lines_reclaimed,
    forged_acks,
    forwards_cancelled,
    parked_dropped,
    degraded_fills,
    degraded_lock_grants,
    degraded_barrier_releases,
    locks_reclaimed,
    barrier_slots_reclaimed,
    wt_acks_written_off,
    wbk_acks_written_off,
    suppressed_sends,
    data_loss,
});

// Stats files written before the crash subsystem existed have no
// "crashes" key; they keep loading with the crashes-off all-zero signature.
json_struct!(MachineStats {
    procs,
    total_cycles,
    faults,
    resources,
    latencies,
    races,
    crashes: Defaulted,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_json_roundtrip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_json(&p.to_json()), Some(p));
        }
        assert_eq!(Protocol::from_json(&Value::Str("bogus".into())), None);
    }

    #[test]
    fn placement_json_roundtrip() {
        for p in [Placement::RoundRobinPages, Placement::AllAtZero, Placement::FirstTouch] {
            assert_eq!(Placement::from_json(&p.to_json()), Some(p));
        }
    }

    #[test]
    fn config_json_roundtrip() {
        let cfg = MachineConfig::future_machine(64);
        let v = cfg.to_json();
        assert_eq!(v["line_size"].as_u64(), Some(256));
        assert_eq!(MachineConfig::from_json(&v), Some(cfg));
    }

    #[test]
    fn histogram_json_roundtrip_is_sparse() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 7, 1 << 30] {
            h.record(v);
        }
        let v = h.to_json();
        assert_eq!(v["buckets"].as_array().unwrap().len(), 4, "only non-empty buckets");
        assert_eq!(Histogram::from_json(&v), Some(h));
        assert_eq!(Histogram::from_json(&Value::Null), None);

        let mut l = LatencyStats::new();
        l.record("rt.read", 42);
        l.record("lock.wait", 9);
        let v = l.to_json();
        assert_eq!(LatencyStats::from_json(&v), Some(l));
    }

    #[test]
    fn machine_stats_json_carries_latencies() {
        let mut s = MachineStats::new(1);
        s.latencies.record("rt.read", 100);
        let v = s.to_json();
        assert_eq!(v["latencies"]["rt.read"]["count"].as_u64(), Some(1));
        assert_eq!(MachineStats::from_json(&v), Some(s));
    }

    #[test]
    fn machine_stats_json_carries_races() {
        let mut s = MachineStats::new(2);
        s.races.words_monitored = 9;
        s.races.epoch_fast_hits = 100;
        s.races.vector_promotions = 2;
        s.races.races_found = 1;
        s.races.reports.push(RaceReport {
            addr: 0x80,
            prior: RaceSite { proc: 1, ref_index: 4, write: true },
            current: RaceSite { proc: 0, ref_index: 7, write: true },
            clocks: vec![3, 0],
        });
        let v = s.to_json();
        assert_eq!(v["races"]["races_found"].as_u64(), Some(1));
        assert_eq!(v["races"]["reports"][0]["addr"].as_u64(), Some(0x80));
        assert_eq!(v["races"]["reports"][0]["prior"]["write"].as_bool(), Some(true));
        assert_eq!(MachineStats::from_json(&v), Some(s));

        // Detection-off stats keep round-tripping (the default is all-zero).
        let off = MachineStats::new(1);
        assert_eq!(MachineStats::from_json(&off.to_json()), Some(off));
    }

    #[test]
    fn machine_stats_json_carries_crashes_and_tolerates_absence() {
        let mut s = MachineStats::new(4);
        s.crashes.crashes = 1;
        s.crashes.suspicions = 3;
        s.crashes.record_data_loss(DataLossEvent {
            line: 0x1c0,
            owner: 2,
            home: 0,
            detected_at: 77_000,
        });
        let v = s.to_json();
        assert_eq!(v["crashes"]["crashes"].as_u64(), Some(1));
        assert_eq!(v["crashes"]["data_loss"][0]["owner"].as_u64(), Some(2));
        assert_eq!(MachineStats::from_json(&v), Some(s));

        // A pre-crash-era stats object (no "crashes" key) still loads, with
        // the crashes-off all-zero signature.
        let mut old = MachineStats::new(1).to_json();
        if let Value::Object(fields) = &mut old {
            fields.retain(|(k, _)| k != "crashes");
        }
        let loaded = MachineStats::from_json(&old).expect("v0 stats load");
        assert!(loaded.crashes.is_zero());
    }

    #[test]
    fn bounded_config_json_roundtrip() {
        let mut cfg = MachineConfig::paper_default(16);
        cfg.resources.ni_ingress = Some(4);
        cfg.resources.dir_request_slots = Some(0);
        cfg.resources.write_notice_buffer = Some(8);
        cfg.resources.nack_retry_budget = 3;
        let v = cfg.to_json();
        assert_eq!(MachineConfig::from_json(&v), Some(cfg));
    }
}
