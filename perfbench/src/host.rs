//! What the host says about the process and the machine: resident-set high
//! water mark, hypervisor steal time, CPU count, and the host's current
//! speed as the benchmark's own reference probe reads it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fs;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The process's resident-set high-water mark (`VmHWM`) in MiB, if the
/// kernel reports one. Each run measures one workload in a process of its
/// own, so this is that workload's peak.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// A `/proc/self/status` size field in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative CPU time of the whole machine, in clock ticks, from the
/// first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran another guest while this one wanted a CPU.
    pub steal: u64,
    /// Every tick of user, nice, system, idle, iowait, irq, softirq and steal.
    pub total: u64,
}

impl CpuTicks {
    /// Read the counters now (zeros where `/proc/stat` is unavailable).
    pub fn now() -> CpuTicks {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// The share of CPU time stolen between `self` and the later reading
    /// `later`.
    pub fn steal_frac_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0)
}

/// Host nanoseconds per [`Pace`] lookup at the reference host speed: the
/// end-to-end host times are scaled to a host whose probe reads this.
pub const PACE_REF_NS: f64 = 100.0;
/// Entries of the [`Pace`] table (about 8.5 MiB resident).
const PACE_ENTRIES: u64 = 1 << 18;
/// Lookups per [`Pace::probe`] that warm the table and are not timed.
const PACE_WARM: u32 = 100_000;
/// Timed lookups per [`Pace::probe`] (about 20–40 ms).
const PACE_LOOKUPS: u32 = 300_000;

/// The benchmark's reference of the host's current speed: random lookups
/// in a fixed hash table a few MiB large, timed between iterations.
///
/// On a shared host the simulator's speed follows the host's memory
/// hierarchy, which neighbours on the same machine slow by up to 2× for
/// seconds to minutes at a time. The probe's lookups slow with it, so host
/// times scaled by [`Pace::factor`] of the probes around them carry much
/// less of those swings, while a change to the simulator still moves them
/// in full: the probe is the benchmark's own code and calls nothing in the
/// simulator.
pub struct Pace {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    /// Resident MiB the table added to the process.
    pub resident_mib: f64,
}

impl Pace {
    /// Build the table (a fixed hasher, so every run builds the same one).
    pub fn new() -> Pace {
        let before = resident_mib().unwrap_or(0.0);
        // Sized up front: one allocation, so the resident-set growth is the
        // table's own and none of it is freed back for the workload to reuse.
        let mut table = HashMap::with_capacity_and_hasher(
            PACE_ENTRIES as usize,
            BuildHasherDefault::<DefaultHasher>::default(),
        );
        table.extend((0..PACE_ENTRIES).map(|k| (k, k.wrapping_mul(3))));
        let resident_mib = (resident_mib().unwrap_or(0.0) - before).max(0.0);
        Pace {
            table,
            resident_mib,
        }
    }

    fn lookups(&self, n: u32) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut sum = 0u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(self.table[&(x % PACE_ENTRIES)]);
        }
        sum
    }

    /// Host nanoseconds per lookup now.
    pub fn probe(&self) -> f64 {
        std::hint::black_box(self.lookups(PACE_WARM));
        let t0 = Instant::now();
        std::hint::black_box(self.lookups(PACE_LOOKUPS));
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(PACE_LOOKUPS)
    }

    /// How much slower than the reference a workload ran between probes:
    /// the mean of their `readings` ÷ [`PACE_REF_NS`], raised to the
    /// workload's `exponent` (its sensitivity to the host's speed, from
    /// [`crate::bench::Bench::pace_exponents`]). Divide a host time by it,
    /// or multiply a rate.
    pub fn factor(readings: &[f64], exponent: f64) -> f64 {
        let mean = readings.iter().sum::<f64>() / readings.len().max(1) as f64;
        (mean / PACE_REF_NS).powf(exponent)
    }
}

impl Default for Pace {
    fn default() -> Self {
        Pace::new()
    }
}

/// The process's current resident set (`VmRSS`) in MiB.
fn resident_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_factor_is_one_at_the_reference_and_follows_the_exponent() {
        assert_eq!(Pace::factor(&[PACE_REF_NS, PACE_REF_NS], 0.7), 1.0);
        assert!((Pace::factor(&[150.0, 250.0], 1.0) - 2.0).abs() < 1e-12);
        assert!((Pace::factor(&[400.0], 0.5) - 2.0).abs() < 1e-12);
        assert_eq!(Pace::factor(&[50.0, 70.0, 90.0], 0.0), 1.0);
    }
}
