//! Fundamental identifiers and units shared by every layer of the simulator.
//!
//! The simulator is cycle-granular: all times are [`Cycle`] counts from the
//! start of the run. Addresses are byte addresses in a flat simulated shared
//! address space; [`LineAddr`] is the cache-line-granular view of the same
//! space (the byte address divided by the configured line size).


/// A point in simulated time, measured in processor cycles since reset.
pub type Cycle = u64;

/// A byte address in the simulated shared address space.
pub type Addr = u64;

/// Index of a simulated processor (one per node).
pub type ProcId = usize;

/// Index of a node in the machine (processor + caches + directory slice +
/// memory module + network interface). Nodes and processors are 1:1.
pub type NodeId = usize;

/// Identifier of a simulated lock variable.
pub type LockId = u32;

/// Identifier of a simulated barrier.
pub type BarrierId = u32;

/// A cache-line-granular address: `byte_addr / line_size`.
///
/// Kept as a newtype so that byte addresses and line addresses cannot be
/// accidentally mixed; converting between the two always goes through a
/// line-size-aware call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `addr` for lines of `line_size` bytes.
    #[inline]
    pub fn containing(addr: Addr, line_size: usize) -> Self {
        debug_assert!(line_size.is_power_of_two());
        LineAddr(addr >> line_size.trailing_zeros())
    }

    /// First byte address of this line.
    #[inline]
    pub fn base(self, line_size: usize) -> Addr {
        self.0 << line_size.trailing_zeros()
    }

    /// Index of the word within this line that byte address `addr` falls in.
    ///
    /// `addr` must lie inside the line.
    #[inline]
    pub fn word_index(self, addr: Addr, line_size: usize, word_size: usize) -> usize {
        let off = addr - self.base(line_size);
        debug_assert!((off as usize) < line_size);
        if word_size.is_power_of_two() {
            off as usize >> word_size.trailing_zeros()
        } else {
            off as usize / word_size
        }
    }
}

/// The four protocols evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Sequentially consistent directory protocol: the baseline (unit line in
    /// the paper's figures). Processors stall on every miss.
    Sc,
    /// Eager release consistency, DASH-like: write-back caches, a small write
    /// buffer, invalidations issued eagerly at write time.
    Erc,
    /// Lazy release consistency (the paper's contribution): multiple
    /// concurrent writers, eager write notices, invalidations applied at
    /// acquires, write-through caches with a coalescing buffer.
    Lrc,
    /// The lazier variant: write notices are delayed until release (or until
    /// a written line is evicted).
    LrcExt,
}

impl Protocol {
    /// All protocols, in the order the paper tends to list them.
    pub const ALL: [Protocol; 4] = [Protocol::Sc, Protocol::Erc, Protocol::Lrc, Protocol::LrcExt];

    /// Stable lowercase name used in CLI arguments and report rows.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Sc => "sc",
            Protocol::Erc => "eager",
            Protocol::Lrc => "lazy",
            Protocol::LrcExt => "lazy-ext",
        }
    }

    /// True for the two lazy variants (write-through + weak state).
    pub fn is_lazy(self) -> bool {
        matches!(self, Protocol::Lrc | Protocol::LrcExt)
    }

    /// Parse a CLI-style protocol name (`sc`, `eager`/`erc`, `lazy`/`lrc`,
    /// `lazy-ext`/`lrc-ext`).
    pub fn parse(s: &str) -> Option<Protocol> {
        match s.to_ascii_lowercase().as_str() {
            "sc" | "seq" => Some(Protocol::Sc),
            "eager" | "erc" => Some(Protocol::Erc),
            "lazy" | "lrc" => Some(Protocol::Lrc),
            "lazy-ext" | "lazyext" | "lrc-ext" | "lazier" => Some(Protocol::LrcExt),
            _ => None,
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_roundtrip() {
        let line = LineAddr::containing(0x1234, 128);
        assert_eq!(line.0, 0x1234 / 128);
        assert_eq!(line.base(128), 0x1234 / 128 * 128);
    }

    #[test]
    fn word_index_within_line() {
        let line = LineAddr::containing(256, 128);
        assert_eq!(line.word_index(256, 128, 4), 0);
        assert_eq!(line.word_index(260, 128, 4), 1);
        assert_eq!(line.word_index(383, 128, 4), 31);
    }

    #[test]
    fn protocol_names_roundtrip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.name()), Some(p));
        }
        assert_eq!(Protocol::parse("bogus"), None);
        assert!(Protocol::Lrc.is_lazy());
        assert!(Protocol::LrcExt.is_lazy());
        assert!(!Protocol::Erc.is_lazy());
        assert!(!Protocol::Sc.is_lazy());
    }

    #[test]
    fn protocol_display_honours_width() {
        assert_eq!(format!("{:<8}|", Protocol::Sc), "sc      |");
        assert_eq!(format!("{:>9}|", Protocol::LrcExt), " lazy-ext|");
        assert_eq!(Protocol::Erc.to_string(), "eager");
    }

    #[test]
    fn adjacent_addresses_same_line() {
        let a = LineAddr::containing(1000, 128);
        let b = LineAddr::containing(1001, 128);
        assert_eq!(a, b);
        let c = LineAddr::containing(1024, 128);
        assert_ne!(a, c);
    }
}
