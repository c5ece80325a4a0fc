//! Machine configuration: every knob from Table 1 of the paper, plus the
//! structural parameters (write-buffer depth, page size, placement policy)
//! fixed in the paper's text.

use crate::types::Protocol;

/// A machine configuration rejected by [`MachineConfig::validate`]: names
/// the offending field so config errors are actionable instead of opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The `MachineConfig` field (or field combination) at fault.
    pub field: &'static str,
    /// What is wrong with it.
    pub why: String,
}

impl ConfigError {
    fn new(field: &'static str, why: impl Into<String>) -> Self {
        ConfigError { field, why: why.into() }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine config field `{}`: {}", self.field, self.why)
    }
}

impl std::error::Error for ConfigError {}

/// Policy for assigning pages of the shared address space to home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Page `i` lives at node `i mod P`. The default; spreads directory and
    /// memory load and is what most simulators of the era did.
    RoundRobinPages,
    /// Every page lives at node 0. Useful in tests to concentrate contention.
    AllAtZero,
    /// A page is homed at the first node that touches it (the machine
    /// records the assignment at the first reference). Improves locality
    /// for partitioned data at the cost of imbalance on shared structures.
    FirstTouch,
}

/// Finite protocol-resource limits. The paper's protocols run on
/// programmable protocol processors with *finite* hardware — bounded
/// network-interface queues, a directory with limited request storage, and
/// a write-notice buffer of fixed size. Each limit here is optional:
/// `None` models the idealized unbounded structure (the default, which
/// preserves the golden fingerprints), `Some(k)` bounds it at `k` and
/// routes overflow through the graceful-degradation paths (BUSY-NACK +
/// retry backpressure, or the conservative invalidate-all fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Per-node NI ingress (receive) queue depth: at most this many
    /// messages may be in flight *into* one node at once. `None` =
    /// unbounded.
    pub ni_ingress: Option<usize>,
    /// Per-node NI egress (send) queue depth: at most this many messages
    /// may be queued *out of* one node at once. `None` = unbounded.
    pub ni_egress: Option<usize>,
    /// Directory request slots per line: how many requests a home may park
    /// against a busy/transient entry before it starts BUSY-NACKing
    /// newcomers back to the requester. `Some(0)` = NACK every request
    /// that races an in-flight transaction (pure DASH-style backoff);
    /// `None` = park everything (the idealized unbounded queue).
    pub dir_request_slots: Option<usize>,
    /// Per-node write-notice buffer capacity (lazy protocols): how many
    /// distinct lines may be queued for invalidation-at-next-acquire.
    /// Overflow sets the conservative "invalidate everything at the next
    /// acquire" bit instead of losing a notice. `None` = unbounded.
    pub write_notice_buffer: Option<usize>,
    /// Base delay in cycles for the capped exponential backoff applied to
    /// NACKed and NI-rejected messages (doubles per attempt, capped).
    pub nack_backoff_base: u64,
    /// BUSY-NACKs a home will send per busy episode of one line before it
    /// parks the request anyway, guaranteeing forward progress without
    /// unbounded retry storms.
    pub nack_retry_budget: u32,
}

/// Attempts beyond this shift count stop growing the backoff (2^6 = 64×
/// base), mirroring the link layer's `BACKOFF_CAP`.
const NACK_BACKOFF_CAP: u32 = 6;

impl ResourceLimits {
    /// The idealized machine: every queue and table unbounded. This is the
    /// default and leaves simulation results bit-identical to a build
    /// without resource modeling.
    pub fn unbounded() -> Self {
        ResourceLimits {
            ni_ingress: None,
            ni_egress: None,
            dir_request_slots: None,
            write_notice_buffer: None,
            nack_backoff_base: 40,
            nack_retry_budget: 8,
        }
    }

    /// Capped exponential backoff before retrying a rejected message:
    /// `base << min(attempt, 6)`, never zero so retries always make time
    /// progress.
    pub fn backoff(&self, attempt: u32) -> u64 {
        (self.nack_backoff_base << attempt.min(NACK_BACKOFF_CAP)).max(1)
    }

    /// True when no limit is set — the hot paths skip all occupancy
    /// tracking in this case.
    pub fn is_unbounded(&self) -> bool {
        self.ni_ingress.is_none()
            && self.ni_egress.is_none()
            && self.dir_request_slots.is_none()
            && self.write_notice_buffer.is_none()
    }
}

impl Default for ResourceLimits {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Full description of the simulated machine.
///
/// [`MachineConfig::paper_default`] matches Table 1 of the paper;
/// [`MachineConfig::future_machine`] matches the "hypothetical future
/// machine" of Section 4.3 (Figures 8 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processors (= nodes). The paper evaluates 64.
    pub num_procs: usize,
    /// Cache line size in bytes (Table 1: 128).
    pub line_size: usize,
    /// Per-node cache capacity in bytes (Table 1: 128 KB).
    pub cache_size: usize,
    /// Cache associativity (Table 1: direct-mapped = 1).
    pub cache_assoc: usize,
    /// Memory setup (startup) time in cycles (Table 1: 20).
    pub mem_setup: u64,
    /// Memory bandwidth in bytes per cycle (Table 1: 2).
    pub mem_bytes_per_cycle: u64,
    /// Node bus bandwidth in bytes per cycle (Table 1: 2).
    pub bus_bytes_per_cycle: u64,
    /// Network link bandwidth in bytes per cycle, bidirectional (Table 1: 2).
    pub net_bytes_per_cycle: u64,
    /// Latency of one mesh switch in cycles (Table 1: 2).
    pub switch_latency: u64,
    /// Latency of one wire segment in cycles (Table 1: 1).
    pub wire_latency: u64,
    /// Protocol-processor cost of handling one write notice (Table 1: 4).
    pub write_notice_cost: u64,
    /// Directory access cost for the lazy protocols (Table 1: 25).
    pub dir_cost_lazy: u64,
    /// Directory access cost for ERC and SC (Table 1: 15).
    pub dir_cost_eager: u64,
    /// Entries in the processor write buffer used by the relaxed protocols
    /// (paper Section 4.2: 4, with read bypass and coalescing).
    pub write_buffer_entries: usize,
    /// Entries in the fully-associative coalescing write-through buffer used
    /// by the lazy protocols (paper Section 4.2: 16).
    pub coalescing_buffer_entries: usize,
    /// Page size for home-node placement.
    pub page_size: usize,
    /// Size in bytes of a control (data-less) protocol message header.
    pub ctrl_msg_bytes: u64,
    /// Word size in bytes; per-word dirty bits and the miss classifier work
    /// at this granularity (MIPS II: 4).
    pub word_size: usize,
    /// Protocol-processor cost of servicing a lock or barrier message.
    pub sync_service_cost: u64,
    /// Maximum cycles a processor may run ahead of the global event clock
    /// before yielding (bounds inter-processor skew in the batched stepper).
    pub skew_quantum: u64,
    /// Residence time of a coalescing-buffer entry before the background
    /// drain flushes it to the home node (the coalescing window).
    pub cb_flush_delay: u64,
    /// NAK-and-retry round trip charged to a request that found the
    /// directory entry busy (3-hop in flight) or mid-collection, as in
    /// DASH. The request is queued at the home and re-dispatched this many
    /// cycles after the entry frees.
    pub nack_retry_delay: u64,
    /// Page placement policy.
    pub placement: Placement,
    /// Directory organization: `None` = full-map (one presence bit per
    /// node, the default); `Some(k)` = k limited pointers with broadcast
    /// fallback — once more than `k` nodes share a block the directory
    /// loses precision and coherence actions for it must be broadcast.
    pub dir_pointers: Option<usize>,
    /// Finite protocol-resource limits (NI queues, directory request
    /// slots, write-notice buffers). Default = unbounded.
    pub resources: ResourceLimits,
}

impl MachineConfig {
    /// The default machine of Table 1, with `num_procs` processors.
    pub fn paper_default(num_procs: usize) -> Self {
        MachineConfig {
            num_procs,
            line_size: 128,
            cache_size: 128 * 1024,
            cache_assoc: 1,
            mem_setup: 20,
            mem_bytes_per_cycle: 2,
            bus_bytes_per_cycle: 2,
            net_bytes_per_cycle: 2,
            switch_latency: 2,
            wire_latency: 1,
            write_notice_cost: 4,
            dir_cost_lazy: 25,
            dir_cost_eager: 15,
            write_buffer_entries: 4,
            coalescing_buffer_entries: 16,
            page_size: 4096,
            ctrl_msg_bytes: 8,
            word_size: 4,
            sync_service_cost: 5,
            skew_quantum: 200,
            cb_flush_delay: 100,
            nack_retry_delay: 40,
            placement: Placement::RoundRobinPages,
            dir_pointers: None,
            resources: ResourceLimits::unbounded(),
        }
    }

    /// The "hypothetical future machine" of Section 4.3: high latency
    /// (40-cycle memory startup), high bandwidth (4 bytes/cycle), long cache
    /// lines (256 bytes).
    pub fn future_machine(num_procs: usize) -> Self {
        MachineConfig {
            mem_setup: 40,
            mem_bytes_per_cycle: 4,
            bus_bytes_per_cycle: 4,
            net_bytes_per_cycle: 4,
            line_size: 256,
            ..Self::paper_default(num_procs)
        }
    }

    /// Directory access cost for `protocol` (Table 1 distinguishes lazy from
    /// eager because the lazy directory entry carries more state).
    pub fn dir_cost(&self, protocol: Protocol) -> u64 {
        if protocol.is_lazy() {
            self.dir_cost_lazy
        } else {
            self.dir_cost_eager
        }
    }

    /// Number of words in a cache line.
    pub fn words_per_line(&self) -> usize {
        self.line_size / self.word_size
    }

    /// Number of lines in a cache.
    pub fn lines_per_cache(&self) -> usize {
        self.cache_size / self.line_size
    }

    /// Home node of the page containing byte address `addr` under the
    /// *static* policies. [`Placement::FirstTouch`] is resolved by the
    /// machine (which knows who touched first); this falls back to
    /// round-robin for it, so config-level callers stay total.
    pub fn home_of(&self, addr: u64) -> usize {
        match self.placement {
            Placement::RoundRobinPages | Placement::FirstTouch => {
                // Hot path: both divisors are powers of two for every real
                // configuration, so use shift/mask there (an integer divide
                // is ~20× a shift and this runs on every reference).
                let page = if self.page_size.is_power_of_two() {
                    addr as usize >> self.page_size.trailing_zeros()
                } else {
                    addr as usize / self.page_size
                };
                if self.num_procs.is_power_of_two() {
                    page & (self.num_procs - 1)
                } else {
                    page % self.num_procs
                }
            }
            Placement::AllAtZero => 0,
        }
    }

    /// Home node servicing lock `lock`.
    pub fn lock_home(&self, lock: u32) -> usize {
        if self.num_procs.is_power_of_two() {
            lock as usize & (self.num_procs - 1)
        } else {
            lock as usize % self.num_procs
        }
    }

    /// Home node servicing barrier `barrier`.
    pub fn barrier_home(&self, barrier: u32) -> usize {
        if self.num_procs.is_power_of_two() {
            barrier as usize & (self.num_procs - 1)
        } else {
            barrier as usize % self.num_procs
        }
    }

    /// Cycles to move `bytes` across one bandwidth-limited resource of
    /// `bytes_per_cycle` throughput (rounded up, minimum one cycle for a
    /// non-empty transfer).
    #[inline]
    pub fn transfer_cycles(bytes: u64, bytes_per_cycle: u64) -> u64 {
        if bytes == 0 {
            0
        } else if bytes_per_cycle.is_power_of_two() {
            // All real configurations move a power-of-two bytes per cycle;
            // shift instead of dividing (this runs once per message).
            ((bytes + bytes_per_cycle - 1) >> bytes_per_cycle.trailing_zeros()).max(1)
        } else {
            bytes.div_ceil(bytes_per_cycle).max(1)
        }
    }

    /// Validates internal consistency; the error names the offending field
    /// for the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_procs == 0 {
            return Err(ConfigError::new("num_procs", "must be > 0"));
        }
        if !self.line_size.is_power_of_two() {
            return Err(ConfigError::new(
                "line_size",
                format!("{} must be a power of two", self.line_size),
            ));
        }
        if !self.word_size.is_power_of_two() || self.word_size > self.line_size {
            return Err(ConfigError::new(
                "word_size",
                format!("{} invalid for line_size {}", self.word_size, self.line_size),
            ));
        }
        if !self.cache_size.is_multiple_of(self.line_size * self.cache_assoc) {
            return Err(ConfigError::new(
                "cache_size",
                format!(
                    "{} must be a multiple of line_size * assoc ({} * {})",
                    self.cache_size, self.line_size, self.cache_assoc
                ),
            ));
        }
        if self.page_size == 0 || !self.page_size.is_multiple_of(self.line_size) {
            return Err(ConfigError::new(
                "page_size",
                format!(
                    "{} must be a non-zero multiple of line_size {}",
                    self.page_size, self.line_size
                ),
            ));
        }
        if self.words_per_line() > 64 {
            return Err(ConfigError::new(
                "word_size",
                format!(
                    "lines carry {} words but dirty masks are u64 (max 64)",
                    self.words_per_line()
                ),
            ));
        }
        if self.write_buffer_entries == 0 {
            return Err(ConfigError::new("write_buffer_entries", "must be > 0"));
        }
        if self.coalescing_buffer_entries == 0 {
            return Err(ConfigError::new("coalescing_buffer_entries", "must be > 0"));
        }
        if self.mem_bytes_per_cycle == 0 {
            return Err(ConfigError::new("mem_bytes_per_cycle", "bandwidth must be non-zero"));
        }
        if self.bus_bytes_per_cycle == 0 {
            return Err(ConfigError::new("bus_bytes_per_cycle", "bandwidth must be non-zero"));
        }
        if self.net_bytes_per_cycle == 0 {
            return Err(ConfigError::new("net_bytes_per_cycle", "bandwidth must be non-zero"));
        }
        if self.dir_pointers == Some(0) {
            return Err(ConfigError::new("dir_pointers", "must be at least 1 when limited"));
        }
        if self.resources.ni_ingress == Some(0) {
            return Err(ConfigError::new(
                "resources.ni_ingress",
                "a zero-slot NI queue can never accept a message; use at least 1",
            ));
        }
        if self.resources.ni_egress == Some(0) {
            return Err(ConfigError::new(
                "resources.ni_egress",
                "a zero-slot NI queue can never accept a message; use at least 1",
            ));
        }
        if self.resources.nack_backoff_base == 0 {
            return Err(ConfigError::new(
                "resources.nack_backoff_base",
                "retry backoff must advance time; use at least 1 cycle",
            ));
        }
        Ok(())
    }
}

/// A `(name, value)` listing of the Table 1 parameters, used by the `table1`
/// experiment to regenerate the paper's parameter table.
pub fn table1_rows(cfg: &MachineConfig) -> Vec<(String, String)> {
    vec![
        ("Cache line size".into(), format!("{} bytes", cfg.line_size)),
        (
            "Cache size".into(),
            format!(
                "{} Kbytes {}",
                cfg.cache_size / 1024,
                if cfg.cache_assoc == 1 {
                    "direct-mapped".to_string()
                } else {
                    format!("{}-way", cfg.cache_assoc)
                }
            ),
        ),
        ("Memory setup time".into(), format!("{} cycles", cfg.mem_setup)),
        ("Memory bandwidth".into(), format!("{} bytes/cycle", cfg.mem_bytes_per_cycle)),
        ("Bus bandwidth".into(), format!("{} bytes/cycle", cfg.bus_bytes_per_cycle)),
        (
            "Network bandwidth".into(),
            format!("{} bytes/cycle (bidirectional)", cfg.net_bytes_per_cycle),
        ),
        ("Switch node latency".into(), format!("{} cycles", cfg.switch_latency)),
        ("Wire latency".into(), format!("{} cycles", cfg.wire_latency)),
        ("Write Notice Processing".into(), format!("{} cycles", cfg.write_notice_cost)),
        ("LRC Directory access cost".into(), format!("{} cycles", cfg.dir_cost_lazy)),
        ("ERC Directory access cost".into(), format!("{} cycles", cfg.dir_cost_eager)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = MachineConfig::paper_default(64);
        assert_eq!(c.line_size, 128);
        assert_eq!(c.cache_size, 128 * 1024);
        assert_eq!(c.cache_assoc, 1);
        assert_eq!(c.mem_setup, 20);
        assert_eq!(c.mem_bytes_per_cycle, 2);
        assert_eq!(c.bus_bytes_per_cycle, 2);
        assert_eq!(c.net_bytes_per_cycle, 2);
        assert_eq!(c.switch_latency, 2);
        assert_eq!(c.wire_latency, 1);
        assert_eq!(c.write_notice_cost, 4);
        assert_eq!(c.dir_cost_lazy, 25);
        assert_eq!(c.dir_cost_eager, 15);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn future_machine_matches_section_4_3() {
        let c = MachineConfig::future_machine(64);
        assert_eq!(c.mem_setup, 40);
        assert_eq!(c.mem_bytes_per_cycle, 4);
        assert_eq!(c.line_size, 256);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn paper_cache_fill_example() {
        // Section 3 works through a 10-hop cache fill: request 30 cycles,
        // memory 20 + 128/2 = 84, reply 30 + 64 = 94, bus fill 64 => 272.
        let c = MachineConfig::paper_default(64);
        let hops = 10u64;
        let req = hops * (c.switch_latency + c.wire_latency);
        let mem = c.mem_setup + MachineConfig::transfer_cycles(c.line_size as u64, c.mem_bytes_per_cycle);
        let reply = hops * (c.switch_latency + c.wire_latency)
            + MachineConfig::transfer_cycles(c.line_size as u64, c.net_bytes_per_cycle);
        let bus = MachineConfig::transfer_cycles(c.line_size as u64, c.bus_bytes_per_cycle);
        assert_eq!(req, 30);
        assert_eq!(mem, 84);
        assert_eq!(reply, 94);
        assert_eq!(bus, 64);
        assert_eq!(req + mem + reply + bus, 272);
    }

    #[test]
    fn dir_cost_by_protocol() {
        let c = MachineConfig::paper_default(4);
        assert_eq!(c.dir_cost(Protocol::Lrc), 25);
        assert_eq!(c.dir_cost(Protocol::LrcExt), 25);
        assert_eq!(c.dir_cost(Protocol::Erc), 15);
        assert_eq!(c.dir_cost(Protocol::Sc), 15);
    }

    #[test]
    fn home_placement_round_robin() {
        let c = MachineConfig::paper_default(4);
        assert_eq!(c.home_of(0), 0);
        assert_eq!(c.home_of(4096), 1);
        assert_eq!(c.home_of(4096 * 4), 0);
        assert_eq!(c.home_of(4096 * 5 + 17), 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = MachineConfig::paper_default(4);
        c.line_size = 100;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::paper_default(4);
        c.num_procs = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::paper_default(4);
        c.word_size = 1; // 128 words/line > 64
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_errors_name_the_offending_field() {
        let mut c = MachineConfig::paper_default(4);
        c.line_size = 100;
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "line_size");
        assert!(e.to_string().contains("`line_size`"), "{e}");
        let mut c = MachineConfig::paper_default(4);
        c.net_bytes_per_cycle = 0;
        assert_eq!(c.validate().unwrap_err().field, "net_bytes_per_cycle");
        let mut c = MachineConfig::paper_default(4);
        c.dir_pointers = Some(0);
        assert_eq!(c.validate().unwrap_err().field, "dir_pointers");
        let mut c = MachineConfig::paper_default(4);
        c.page_size = 0; // a multiple of every line size, but no page at all
        assert_eq!(c.validate().unwrap_err().field, "page_size");
    }

    #[test]
    fn resource_limits_default_unbounded() {
        let c = MachineConfig::paper_default(4);
        assert!(c.resources.is_unbounded());
        assert_eq!(c.resources, ResourceLimits::default());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn resource_limit_validation() {
        let mut c = MachineConfig::paper_default(4);
        c.resources.ni_ingress = Some(0);
        assert_eq!(c.validate().unwrap_err().field, "resources.ni_ingress");
        let mut c = MachineConfig::paper_default(4);
        c.resources.ni_egress = Some(0);
        assert_eq!(c.validate().unwrap_err().field, "resources.ni_egress");
        let mut c = MachineConfig::paper_default(4);
        c.resources.nack_backoff_base = 0;
        assert_eq!(c.validate().unwrap_err().field, "resources.nack_backoff_base");
        // Zero directory slots and zero write-notice budget are legal: they
        // mean "always NACK" and "always fall back", both of which make
        // progress.
        let mut c = MachineConfig::paper_default(4);
        c.resources.dir_request_slots = Some(0);
        c.resources.write_notice_buffer = Some(0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = ResourceLimits { nack_backoff_base: 40, ..ResourceLimits::unbounded() };
        assert_eq!(r.backoff(0), 40);
        assert_eq!(r.backoff(1), 80);
        assert_eq!(r.backoff(6), 40 << 6);
        assert_eq!(r.backoff(60), 40 << 6); // capped
        let tiny = ResourceLimits { nack_backoff_base: 1, ..ResourceLimits::unbounded() };
        assert!(tiny.backoff(0) >= 1);
    }

    #[test]
    fn transfer_cycles_rounds_up() {
        assert_eq!(MachineConfig::transfer_cycles(128, 2), 64);
        assert_eq!(MachineConfig::transfer_cycles(129, 2), 65);
        assert_eq!(MachineConfig::transfer_cycles(1, 2), 1);
        assert_eq!(MachineConfig::transfer_cycles(0, 2), 0);
    }

    #[test]
    fn table1_has_eleven_rows() {
        let rows = table1_rows(&MachineConfig::paper_default(64));
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].1, "128 bytes");
    }
}
