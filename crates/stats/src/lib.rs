//! Measurement statistics for the SVt reproduction.
//!
//! Implements the paper's measurement methodology (§ 6): 4σ outlier
//! filtering, 2σ/1 % convergence loops, exact percentiles for tail-latency
//! reporting, and load-sweep series with SLA crossover analysis.
//!
//! # Examples
//!
//! ```
//! use svt_stats::{Convergence, filter_outliers};
//!
//! // With a single-pass k-sigma rule a spike needs a large sample set
//! // behind it to register as an outlier.
//! let mut samples = vec![10.0; 100];
//! samples.push(10_000.0);
//! let kept = filter_outliers(&samples, 4.0);
//! assert_eq!(kept.len(), 100);
//!
//! let mut conv = Convergence::new(0.01, 8, 1000);
//! let mean = conv.run(|| 10.0);
//! assert_eq!(mean, 10.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod percentile;
mod series;
mod summary;

pub use percentile::{percentile, LatencyRecorder};
pub use series::{speedup, SweepPoint, SweepSeries};
pub use summary::{filter_outliers, Convergence, Summary};
