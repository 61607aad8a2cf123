//! Small helpers: order statistics, process counters, hashing, and the
//! host-speed reference kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs` without its lowest and highest fifth; 0 when empty.
///
/// Host speed on a shared machine drifts in phases of several seconds,
/// longer than one batch. The median of a run's batches then jumps to
/// whichever phase held more of them; this mean moves with the share of
/// time each phase held, and still drops single stalled batches.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// A fixed piece of the benchmark's own work that measures the host's
/// speed: sorting, hashing and a priority queue over pseudo-random
/// integers, about a third of the time each. No program code runs in
/// it, so only the host moves its time. The mix was chosen from a set
/// of candidate kernels: on a shared host these three slow down with
/// co-tenants' memory traffic as the workloads do, while arithmetic
/// alone stays flat and pointer chasing swings far more.
///
/// The buffers are allocated once and reused, so the kernel adds a
/// fixed amount to the process's peak memory and no page faults after
/// its first run.
pub struct Reference {
    keys: Vec<u64>,
    counts: HashMap<u64, u32>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Reference {
    const SORTED: usize = 600_000;
    const HASHED: usize = 300_000;
    const QUEUED: u32 = 100_000;

    pub fn new() -> Reference {
        Reference {
            keys: Vec::with_capacity(Self::SORTED),
            counts: HashMap::with_capacity(Self::HASHED),
            queue: BinaryHeap::with_capacity(Self::QUEUED as usize),
        }
    }

    /// Seconds one run of the kernel takes.
    pub fn time_s(&mut self) -> f64 {
        let started = std::time::Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2 {
            self.keys.clear();
            self.keys.extend((0..Self::SORTED).map(|_| next()));
            self.keys.sort_unstable();
            std::hint::black_box(&self.keys);
        }
        self.counts.clear();
        for _ in 0..Self::HASHED {
            *self.counts.entry(next() % 600_000).or_insert(0) += 1;
        }
        for _ in 0..Self::HASHED {
            std::hint::black_box(self.counts.get(&(next() % 600_000)));
        }
        self.queue.clear();
        for i in 0..Self::QUEUED {
            self.queue.push(Reverse((next() % 1_000_000, i)));
        }
        for _ in 0..300_000 {
            let Reverse((at, i)) = self.queue.pop().expect("the queue never empties");
            self.queue.push(Reverse((at + next() % 1_000_000, i)));
        }
        started.elapsed().as_secs_f64()
    }
}

/// Nearest-rank percentile of an ascending slice (the engine's own
/// definition, so figures and benchmark agree).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    contra_sim::percentile(sorted, p).unwrap_or(0.0)
}

/// The highest of the usual tail percentiles that still leaves at least
/// ten samples above it, so the tail rests on more than a handful of
/// flows. Falls back to the median for tiny samples.
pub fn tail_percentile(n: usize) -> f64 {
    const CANDIDATES: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];
    CANDIDATES
        .into_iter()
        .find(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0)
}

/// User plus system CPU seconds of this process so far, all threads
/// included (from `/proc/self/stat`, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// 64-bit FNV-1a, for output fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_at_each_end() {
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 3.0, 4.0]), 3.0);
        assert_eq!(
            trimmed_mean(&[100.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -50.0]),
            3.5
        );
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20_000), 99.9);
        assert_eq!(tail_percentile(1_600), 99.0);
        assert_eq!(tail_percentile(2_900), 99.5);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
