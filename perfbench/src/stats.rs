//! Sample statistics, digests and seed handling shared by every workload.

/// Median and quartiles of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value measured once (a count, a size, a derived ratio).
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

/// Linear-interpolated quantile of sorted samples (`p` in [0, 1]).
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles; `None` for an empty sample set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    Some(Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        n: s.len(),
    })
}

/// The median of `samples`; NaN (reported as `null`) when there are none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported at all.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// A tail percentile (`p` > 0.5) of `samples`, refused when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples.len() as f64 * (1.0 - p);
    // The tolerance keeps e.g. 100 samples at p90 (9.999… in binary) in.
    if beyond + 1e-9 < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} needs {MIN_TAIL_SAMPLES} samples beyond it, {} samples leave {beyond:.1}",
            p * 100.0,
            samples.len()
        ));
    }
    Ok(quantile_sorted(&sorted(samples), p))
}

/// FNV-1a-64, the digest printed as each workload's `results_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer: decorrelates nearby inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed a catalog slice runs with under benchmark seed `seed`:
/// seed 0 keeps the catalog's own seed, any other seed re-seeds every
/// slice deterministically.
pub fn remap_seed(catalog_seed: u64, seed: u64) -> u64 {
    if seed == 0 {
        catalog_seed
    } else {
        splitmix(catalog_seed ^ splitmix(seed))
    }
}

/// A small deterministic generator for seed-chosen samples and job
/// sequences.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix(seed))
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix(self.0);
        (self.0 % n as u64) as usize
    }
}

/// Hand freed heap memory back to the kernel (see `repeated_setup`).
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases free pages of the allocator's own arenas.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_sets() {
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(
            tail_percentile(&few, 0.95).is_err(),
            "199 samples leave 9.95 beyond p95"
        );
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(tail_percentile(&enough, 0.95).is_ok());
        assert!(tail_percentile(&enough[..99], 0.9).is_err());
        assert!(tail_percentile(&enough[..100], 0.9).is_ok());
    }

    #[test]
    fn seed_zero_keeps_catalog_seeds_and_remapping_is_deterministic() {
        for catalog in [0u64, 1, 0x5F00, 0xA507] {
            assert_eq!(remap_seed(catalog, 0), catalog);
            assert_eq!(remap_seed(catalog, 7), remap_seed(catalog, 7));
            assert_ne!(remap_seed(catalog, 7), remap_seed(catalog, 8));
            assert_ne!(remap_seed(catalog, 7), catalog);
        }
        assert_ne!(remap_seed(0x5F00, 3), remap_seed(0x5F01, 3));
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let a: Vec<usize> = (0..50).scan(Rng::new(9), |r, _| Some(r.below(8))).collect();
        let b: Vec<usize> = (0..50).scan(Rng::new(9), |r, _| Some(r.below(8))).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 8));
    }
}
