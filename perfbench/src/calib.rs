//! Host-speed calibration.
//!
//! The reference host is a 2-vCPU guest on a shared machine, and its
//! speed drifts: in one spell of heavy load on the machine, the same
//! exec-rows pass took twice the CPU time it took a few minutes earlier,
//! and a fleet request took 2.1 times as much. The clock of this process
//! cannot tell such a spell apart from a slower program.
//!
//! So each run also times a fixed job that uses none of the workspace's
//! code, next to its own operations: each CPU time is divided by the job
//! time measured right after it, and the median of these ratios is
//! scaled by `REFERENCE_MS`. The job mixes what the workloads do: a
//! stencil sweep over an array larger than the per-core L2 (like the
//! kernel), and building, probing and printing small heap objects (like
//! parsing, planning and the service's bookkeeping).

use crate::util::{median, thread_cpu_ms, Rng};

/// CPU time of one job on the reference host in a calm spell, in ms, so
/// that a scaled time reads as the time the operation would take there.
/// The job was added in a slow spell, in which an exec-rows pass took
/// 52 job times; in the calm spell before it the pass took 82.5 ms.
pub const REFERENCE_MS: f64 = 1.6;

/// Cells of the stencil array: 3 MiB of `i64`, the exec workloads' array
/// size.
const CELLS: usize = 48 * 8192;
/// Map entries built and probed per job.
const KEYS: u64 = 4_000;

/// The job's two stencil buffers, in MiB. They are written in full when
/// the calibration is made and stay resident until the run ends, so the
/// run's peak resident set less this is the workload's own.
pub const RESIDENT_MB: f64 = (2 * CELLS * std::mem::size_of::<i64>()) as f64 / (1 << 20) as f64;

/// `REFERENCE_MS` times the median of `ratios`, each a CPU time divided
/// by the job time measured next to it: the reference-host time.
pub fn scaled(ratios: &mut [f64]) -> f64 {
    REFERENCE_MS * median(ratios)
}

/// The calibration job, and every job time of one run.
pub struct Calibration {
    grid: Vec<i64>,
    next: Vec<i64>,
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            grid: (0..CELLS as i64).collect(),
            next: (0..CELLS as i64).rev().collect(),
            samples: Vec::new(),
        }
    }

    /// Runs the job `jobs` times on the calling thread; returns the
    /// median CPU time of one, in ms.
    pub fn measure(&mut self, jobs: usize) -> f64 {
        let mut times: Vec<f64> = (0..jobs.max(1))
            .map(|_| {
                let t0 = thread_cpu_ms();
                std::hint::black_box(self.job());
                thread_cpu_ms() - t0
            })
            .collect();
        self.samples.extend_from_slice(&times);
        median(&mut times)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median CPU time of one job over the run, in ms.
    pub fn job_ms(&self) -> f64 {
        median(&mut self.samples.clone())
    }

    fn job(&mut self) -> u64 {
        // Two sweeps of a three-point stencil, ping-ponging buffers.
        for _ in 0..2 {
            let (src, dst) = (&self.grid, &mut self.next);
            dst[0] = src[0];
            dst[CELLS - 1] = src[CELLS - 1];
            for i in 1..CELLS - 1 {
                dst[i] = src[i - 1]
                    .wrapping_add(src[i].wrapping_mul(2))
                    .wrapping_add(src[i + 1])
                    >> 1;
            }
            std::mem::swap(&mut self.grid, &mut self.next);
        }
        // Small heap objects: a map of strings, probed and printed.
        let mut rng = Rng::derive(0, 0);
        let mut map = std::collections::BTreeMap::new();
        for k in 0..KEYS {
            map.insert(rng.next_u64() % (4 * KEYS), format!("v{k}"));
        }
        let mut text = String::new();
        for _ in 0..KEYS {
            if let Some(v) = map.get(&(rng.next_u64() % (4 * KEYS))) {
                text.push_str(v);
            }
        }
        let parsed: u64 = text.split('v').filter_map(|s| s.parse::<u64>().ok()).sum();
        parsed ^ self.grid[CELLS / 2] as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_records_every_job_and_returns_their_median() {
        let mut cal = Calibration::new();
        let one = cal.measure(3);
        assert!(one > 0.0);
        cal.measure(2);
        assert_eq!(cal.samples(), 5);
        assert!(cal.job_ms() > 0.0);
    }

    #[test]
    fn scaled_is_the_reference_time_of_the_median_ratio() {
        assert_eq!(scaled(&mut [3.0, 1.0, 2.0]), 2.0 * REFERENCE_MS);
    }
}
