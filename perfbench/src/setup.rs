//! Set-up as the `repro` binary does it, minus the disk tier: an executor
//! and a compile cache, then the cache fill every workload needs before
//! timing starts.
//!
//! The `repro` binary also gives its cache a disk tier. Every timed path
//! here leaves it out: on a host whose file system is shared with other
//! tenants, writing a few small cache files costs 0.1 ms in one run and
//! 4 ms in the next, which would bury any change to the program itself.
//! The cold compiles of `serve-mix`'s traced run still time the disk
//! tier, as a per-layer metric.
//!
//! Set-up is timed many times per run and reported as a median. The first
//! sample installs the process-global cache the workload then uses. The
//! others build a throwaway executor and cache and fill them the same way;
//! they are spread over the whole run, between ops, so that a few slow
//! seconds on a shared host move the median no more than they move the
//! ops' medians.

use std::time::{Duration, Instant};

use repro_cache::{Cache, CacheConfig};
use repro_diag::ReproError;
use repro_sched::{ExecConfig, Executor};

use crate::Outcome;

/// Throwaway set-ups spread over one run.
const SPREAD_REPEATS: u32 = 20;
/// Fewest set-up samples per run, however short.
const MIN_SAMPLES: usize = 7;

type Fill<'f> = Box<dyn Fn(&Cache) -> Result<(), ReproError> + 'f>;

pub struct Setup<'f> {
    workers: usize,
    fill: Fill<'f>,
    /// Seconds per sample, the global set-up first.
    samples: Vec<f64>,
    every: Duration,
    last: Instant,
}

/// Start a `workers`-wide executor and fill the process-global cache with
/// `fill`: the first set-up sample. `seconds` is the run's measuring time,
/// over which [`Setup::tick`] spreads the repeats.
pub fn start<'f>(
    workers: usize,
    seconds: f64,
    fill: impl Fn(&Cache) -> Result<(), ReproError> + 'f,
) -> Result<(Executor, Setup<'f>), ReproError> {
    let started = Instant::now();
    let exec = Executor::new(ExecConfig::with_workers(workers));
    let global = repro_cache::init_global(CacheConfig::default());
    fill(global)?;
    let first = started.elapsed().as_secs_f64();
    let setup = Setup {
        workers,
        fill: Box::new(fill),
        samples: vec![first],
        every: Duration::from_secs_f64(seconds / f64::from(SPREAD_REPEATS)),
        last: Instant::now(),
    };
    Ok((exec, setup))
}

impl Setup<'_> {
    fn repeat(&mut self, out: &mut Outcome) -> f64 {
        let started = Instant::now();
        let spare = Executor::new(ExecConfig::with_workers(self.workers));
        let cache = Cache::new(CacheConfig::default());
        let filled = (self.fill)(&cache);
        let secs = started.elapsed().as_secs_f64();
        drop(spare);
        match filled {
            Ok(()) => self.samples.push(secs),
            Err(e) => out.fail(1, format!("a repeated set-up failed: {e}")),
        }
        self.last = Instant::now();
        started.elapsed().as_secs_f64()
    }

    /// Call between ops: runs one throwaway set-up when one is due and
    /// returns the seconds it took (0 when none was due), for callers that
    /// must keep it out of their own timing.
    pub fn tick(&mut self, out: &mut Outcome) -> f64 {
        if self.last.elapsed() < self.every {
            return 0.0;
        }
        self.repeat(out)
    }

    /// Every sample, after topping up to the minimum count.
    pub fn samples(&mut self, out: &mut Outcome) -> Vec<f64> {
        for _ in self.samples.len()..MIN_SAMPLES {
            self.repeat(out);
        }
        self.samples.clone()
    }
}
