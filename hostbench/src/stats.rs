//! Exact statistics over raw samples, the seeded shuffle, and the host
//! facts a result is stamped with.

/// The median of `samples` (mean of the two middle values for an even
/// count). Exact: computed from the raw samples, never from buckets.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The lower decile of `samples`: the sample at rank ⌈n/10⌉ (nearest
/// rank). Exact: computed from the raw samples.
pub fn lower_decile(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "decile of no samples");
    sorted(samples)[samples.len().div_ceil(10) - 1]
}

/// The highest percentile of `samples` that still has at least ten
/// samples beyond it, as `(value, percentile, sample count)`. With ten
/// or fewer samples no percentile qualifies, and the maximum is reported
/// as the 100th.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n <= 10 {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - 10;
    Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// A tail quantile with the facts needed to read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Which percentile the rank is (`rank / n`, in percent).
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a small, well-mixed generator for the workload order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The process's peak resident set so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pins the whole process (every thread it later spawns inherits the
/// mask) to the highest-numbered CPU it may run on, and returns that CPU.
/// A sweep then never migrates, the served sweep's client and server
/// threads hand off on one CPU (unpinned, on a 2-vCPU VM, its hit latency
/// moved by up to a third between runs), and every run lands on the same
/// CPU (on that VM one vCPU ran the fast sweep 15% slower than the other).
pub fn pin_to_last_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable 1024-bit `cpu_set_t` of `size`
    // bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live 1024-bit `cpu_set_t` of `size` bytes; pid 0
    // is the calling thread.
    let rc = unsafe { sched_setaffinity(0, size, only.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lower_decile_is_the_nearest_rank() {
        let sweeps: Vec<f64> = (1..=54).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&sweeps), 6.0);
        assert_eq!(lower_decile(&[7.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), 10);
        let few = tail(&[5.0, 1.0, 2.0]);
        assert_eq!((few.value, few.percentile, few.samples), (5.0, 100.0, 3));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..38).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..38).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..38).collect::<Vec<_>>());
    }
}
