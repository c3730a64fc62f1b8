//! Set-associative LRU caches and TLBs.

/// A set-associative cache with true-LRU replacement.
///
/// Stores tags only (trace-driven timing simulation needs no data).
/// Used for both L1/L2 caches (keyed by line address) and TLBs (keyed by
/// page number with a line size of one "byte").
///
/// # Examples
///
/// ```
/// use dynawave_sim::cache::Cache;
///
/// // 1 KB, 2-way, 64-byte lines => 8 sets.
/// let mut c = Cache::new(1024, 2, 64);
/// assert!(!c.access(0x1000));      // cold miss
/// assert!(c.access(0x1008));       // same line hits
/// assert!(!c.access(0x2000));      // different line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU timestamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` capacity, `ways` associativity and
    /// `line_bytes` line size.
    ///
    /// The set count is rounded down to a power of two of at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`, `line_bytes` is not a power of two, or the
    /// capacity is smaller than one way of lines.
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let ways = ways as usize;
        let lines = (size_bytes / u64::from(line_bytes)) as usize;
        assert!(lines >= ways, "cache smaller than one way");
        // Largest power-of-two set count that fits the capacity.
        let sets = prev_power_of_two(lines / ways);
        Cache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate (the
    /// hierarchy is modelled write-allocate for stores too), so a
    /// prefetch fill is the same call with the result ignored.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.tick;
            return true;
        }
        // Evict LRU.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let s = self.stamps[base + w];
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if s < oldest {
                oldest = s;
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }
}

/// Largest power of two `<= v` (1 for `v == 0`).
pub(crate) fn prev_power_of_two(v: usize) -> usize {
    1 << v.max(1).ilog2()
}

/// A translation lookaside buffer: a [`Cache`] over 4 KB page numbers.
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// Page size assumed by the TLB.
    pub const PAGE_BYTES: u64 = 4096;

    /// Creates a TLB with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries < ways` or `ways == 0`.
    pub fn new(entries: u32, ways: u32) -> Self {
        // Model each entry as one "line" of 1 byte over page numbers.
        Tlb {
            inner: Cache::new(u64::from(entries), ways, 1),
        }
    }

    /// Translates the virtual address; returns `true` on TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr / Self::PAGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = Cache::new(64 * 1024, 4, 64);
        assert_eq!((c.sets, c.ways), (256, 4));
        let c = Cache::new(1024, 2, 32);
        assert_eq!(c.sets, 16);
    }

    #[test]
    fn power_of_two_round_down() {
        let got: Vec<usize> = [0, 1, 2, 3, 4, 5, 2047, 2048, 2049]
            .into_iter()
            .map(prev_power_of_two)
            .collect();
        assert_eq!(got, [1, 1, 2, 2, 4, 4, 1024, 2048, 2048]);
    }

    #[test]
    fn lru_eviction_order() {
        // 2 ways, 1 set: 128-byte cache with 64-byte lines.
        let mut c = Cache::new(128, 2, 64);
        assert_eq!(c.sets, 1);
        assert!(!c.access(0x0000)); // A miss
        assert!(!c.access(0x4000)); // B miss
        assert!(c.access(0x0000)); // A hit (B is now LRU)
        assert!(!c.access(0x8000)); // C evicts B
        assert!(c.access(0x0000)); // A still resident
        assert!(!c.access(0x4000)); // B was evicted
    }

    #[test]
    fn bigger_cache_fewer_misses() {
        let run = |kb: u64| {
            let mut c = Cache::new(kb * 1024, 4, 64);
            let mut misses = 0;
            // 64 KB working set swept twice.
            for pass in 0..2 {
                let _ = pass;
                for i in 0..1024u64 {
                    if !c.access(i * 64) {
                        misses += 1;
                    }
                }
            }
            misses
        };
        assert!(run(128) < run(16));
    }

    #[test]
    fn tlb_pages() {
        let mut t = Tlb::new(4, 4);
        assert!(!t.access(0x0000));
        assert!(t.access(0x0FFF)); // same 4K page
        assert!(!t.access(0x1000)); // next page
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_ways_panics() {
        let _ = Cache::new(1024, 0, 64);
    }
}
