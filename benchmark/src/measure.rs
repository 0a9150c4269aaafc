//! Harness-side measurement helpers: order statistics, the seeded
//! generator every workload derives its inputs from, and the `/proc`
//! readers behind `cpu_ms_per_stmt` and `peak_rss_mb`. Nothing here
//! touches the engine.

/// splitmix64: the harness's only randomness. Everything a workload
/// randomises (data seed, shuffles, arrival gaps, DML keys) is drawn
/// from one of these seeded by `--seed`, so a seed fixes the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The `p`-th percentile (nearest rank) of `values`; sorts in place.
/// Returns 0 for an empty slice so callers can print "no samples".
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of the positive entries (0 when there are none).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Process user + system CPU in milliseconds, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `CLK_TCK` at 100).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("numeric stat field");
    (ticks(14) + ticks(15)) * 10.0
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb / 1024.0
}

/// Worker threads the services run with: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(median(&mut v), 50.5);
        assert_eq!(percentile(&mut [], 95.0), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rng_repeats_and_shuffles() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..25).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..25).collect::<Vec<_>>());
        assert!(a.unit() > 0.0);
    }

    #[test]
    fn proc_readers_work() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
