//! Host speed, gauged by timing a fixed reference program.
//!
//! Besides steal, which `host` removes, this host runs the same code
//! slower or faster for minutes at a time: grid times moved by 15–30%
//! between stretches of a few minutes with no steal at all. A probe that
//! alternated the grids with a memory-bound reference program for ten
//! minutes found the reference moving with them: over 30 s windows its
//! time correlated with grid time at 0.86–0.90, and grid time divided by
//! reference time spread half as much as grid time alone. So every run
//! of a grid or serving set-up also times the reference program
//! (`zbp-hostref`, built beside the runner) once per round, and reports
//! its CPU-bound times at nominal host speed: measured time ÷
//! [`Speed::slowdown`]. The raw figures go in the detail line.

use crate::stats::{median, quartiles};
use std::path::PathBuf;
use std::process::Command;
use zbp_support::json::Json;

/// Reference-program time, s, that counts as nominal host speed: about
/// its median on the 2-vCPU host the benchmark was written on.
pub const NOMINAL_S: f64 = 0.6;

fn reference_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the runner: {e}"))?;
    Ok(exe.with_file_name("zbp-hostref"))
}

/// Runs the reference program once; returns its time, s.
fn reference_secs() -> Result<f64, String> {
    let bin = reference_bin()?;
    let out =
        Command::new(&bin).output().map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} failed: {}", bin.display(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim().parse().map_err(|e| format!("{} printed {:?}: {e}", bin.display(), text.trim()))
}

/// The reference-program times taken over one run.
#[derive(Debug, Default)]
pub struct Speed {
    secs: Vec<f64>,
}

impl Speed {
    /// Times the reference program once more.
    pub fn sample(&mut self) -> Result<(), String> {
        self.secs.push(reference_secs()?);
        Ok(())
    }

    /// How much slower than nominal the host ran over the run: the
    /// median reference time ÷ [`NOMINAL_S`]. 1 before any sample.
    pub fn slowdown(&self) -> f64 {
        median(&self.secs).map_or(1.0, |m| m / NOMINAL_S)
    }

    /// `secs` measured on this run's host, at nominal speed.
    pub fn nominal(&self, secs: f64) -> f64 {
        secs / self.slowdown()
    }

    /// Count, median and quartiles of the reference times, and the
    /// slowdown, for the detail line.
    pub fn detail(&self) -> Json {
        let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let (q1, q3) = quartiles(&self.secs).unzip();
        Json::Obj(vec![
            ("n".into(), Json::Num(self.secs.len() as f64)),
            ("median".into(), num(median(&self.secs))),
            ("q1".into(), num(q1)),
            ("q3".into(), num(q3)),
            ("slowdown".into(), Json::Num(self.slowdown())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_median_reference_time() {
        let mut s = Speed::default();
        assert_eq!(s.slowdown(), 1.0, "no samples: nominal");
        s.secs = vec![0.9, 0.75, 3.0];
        assert!((s.slowdown() - 1.5).abs() < 1e-12, "median 0.9 s over 0.6 s");
        assert!((s.nominal(3.0) - 2.0).abs() < 1e-12);
    }
}
