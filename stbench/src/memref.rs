//! A memory-speed reference, timed beside the workload so that runs made
//! while the host's memory system is busy and runs made while it is idle
//! give comparable wall times.
//!
//! The simulator spends most of its time waiting on memory. On a shared
//! host the memory system's speed drifts by tens of percent over seconds
//! to minutes as other tenants load it, and a CPU-bound loop does not
//! drift with it. [`MemRef::tick`] makes a fixed number of random
//! read-modify-writes across a table far larger than a core's caches and
//! returns the time per access. The workload ticks it after every slice
//! of its script (outside the slice's timing), and each slice's wall time
//! is scaled by the median reading around it (see [`scales`]).
//!
//! The reference tracks the drift because it shares the last-level cache
//! and memory with the simulation, and for the same reason its reading
//! also rises with the simulation's own memory traffic: about 15-20 ns
//! when ticked alone, 20-30 ns beside `bulk256m`, 35-55 ns beside
//! `ramp10k` and `active2k` on a 2-vCPU VM with a shared 300 MiB L3. A
//! change to that traffic therefore shows in the scaled times less than
//! in raw wall time; the report prints both.

use std::time::Instant;

/// Access time the wall-clock metrics are scaled to, ns: about what this
/// reference reads between slices of the workloads on a 2-vCPU cloud VM.
pub const NOMINAL_NS: f64 = 50.0;

/// Table size: 128 MiB.
const ENTRIES: usize = 1 << 24;
/// Accesses per tick: about 0.1 ms, small beside a slice of the script.
const ACCESSES: u32 = 2_048;

/// The reference table and its access stream.
pub struct MemRef {
    table: Vec<u64>,
    state: u64,
}

impl MemRef {
    /// Allocates and writes the whole table, so that every page is
    /// backed before the first tick.
    pub fn new() -> MemRef {
        MemRef {
            table: (0..ENTRIES as u64).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Makes [`ACCESSES`] random read-modify-writes and returns the time
    /// per access, ns.
    pub fn tick(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ACCESSES {
            // xorshift64
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let i = self.state as usize & (ENTRIES - 1);
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        t.elapsed().as_secs_f64() * 1e9 / f64::from(ACCESSES)
    }
}

/// Half-width, in slices, of the window of readings that scales a slice.
const WINDOW: usize = 25;

/// For each slice, given the reading taken after each slice, the factor
/// that puts its wall time on the [`NOMINAL_NS`] scale: `NOMINAL_NS` /
/// the median of the readings within [`WINDOW`] slices of it. The median
/// keeps a single slow or fast tick from moving the factor.
pub fn scales(access_ns: &[f64]) -> Vec<f64> {
    (0..access_ns.len())
        .map(|i| {
            let end = (i + WINDOW + 1).min(access_ns.len());
            let mut window = access_ns[i.saturating_sub(WINDOW)..end].to_vec();
            window.sort_by(f64::total_cmp);
            NOMINAL_NS / window[window.len() / 2]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_time_every_access() {
        let mut m = MemRef::new();
        let ns = m.tick();
        assert!(ns > 0.0 && ns.is_finite());
        // The stream writes: a tick leaves the table changed.
        assert!(m.table.iter().enumerate().any(|(i, &v)| v != i as u64));
    }

    #[test]
    fn scales_follow_the_windowed_median() {
        // One outlier does not move the factor; a lasting slowdown does,
        // for the slices near it.
        let mut ns = vec![NOMINAL_NS; 200];
        ns[10] = 10.0 * NOMINAL_NS;
        for n in &mut ns[120..] {
            *n = 2.0 * NOMINAL_NS;
        }
        let k = scales(&ns);
        assert_eq!(k.len(), 200);
        assert_eq!(k[10], 1.0);
        assert_eq!(k[60], 1.0);
        assert_eq!(k[199], 0.5);
        assert_eq!(scales(&[]), Vec::<f64>::new());
    }
}
