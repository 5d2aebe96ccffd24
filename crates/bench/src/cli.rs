//! Unified command-line handling for the benchmark binaries.
//!
//! Every `svt-bench` binary accepts the same reporting flags:
//!
//! * `--json <path>` (or `--json=<path>`) — write the machine-readable
//!   [`RunReport`] next to the human-readable table;
//! * `--trace <path>` (or `--trace=<path>`) — write a Chrome trace
//!   (`chrome://tracing` / Perfetto) of the run's spans, with causal
//!   flow arrows when the binary records them;
//! * `--seed <n>` (or `--seed=<n>`) — deterministic seed for whatever
//!   randomness the binary drives (load generators, fault plans); every
//!   binary records the seed it ran with in its report;
//! * `--jobs <n>` (or `--jobs=<n>`) — worker threads for the parallel
//!   sweep engine, falling back to the `SVT_JOBS` environment variable
//!   and then the host's available parallelism. Results are merged in
//!   grid order, so any `--jobs` value produces identical output;
//! * `--arch <x86|riscv>` (or `--arch=<a>`) — the ISA backend the
//!   machines run on, defaulting to `x86` so committed baselines stay
//!   valid; binaries without a riscv path reject any other backend with
//!   an error and a nonzero exit;
//! * `--timeline <path>` / `--dump <path>` / `--dump-on-exit` — windowed
//!   time-series export and flight-recorder crash dumps, on binaries
//!   that sample them;
//! * `--checkpoint-dir <path>` / `--resume` — crash-safe campaigns:
//!   journal each completed grid cell to a checkpoint directory
//!   (atomic write-temp-then-rename), and on `--resume` replay the
//!   journal and recompute only the missing cells. The merged report is
//!   byte-identical to an uninterrupted run at any `--jobs`;
//! * `--help` — usage plus this standard-flag reference;
//! * bare `--flags` (e.g. `--quick`, `--smoke`) and positional values,
//!   exposed through [`BenchCli::flag`] and [`BenchCli::positional`].
//!
//! Binaries parse once with [`BenchCli::parse`] and report through
//! [`BenchCli::emit_report`]/[`BenchCli::emit_trace`]; a `--trace` flag
//! the binary never serviced is called out rather than silently eaten.
//! A malformed command line is a [`CliError`], reported on stderr with
//! exit status 2 before anything runs, never a silent default.

use std::cell::Cell;
use std::path::PathBuf;

use svt_obs::{chrome_trace, FlowArrow, RunReport, Span};

/// Parsed command line of one benchmark binary.
#[derive(Debug, Default)]
pub struct BenchCli {
    /// Destination of the machine-readable run report, if requested.
    pub json: Option<PathBuf>,
    /// Destination of the Chrome trace, if requested.
    pub trace: Option<PathBuf>,
    /// Destination of the windowed timeline export (`--timeline`), if
    /// requested.
    pub timeline: Option<PathBuf>,
    /// Destination of flight-recorder crash dumps (`--dump`), if
    /// requested.
    pub dump: Option<PathBuf>,
    /// Campaign checkpoint directory (`--checkpoint-dir`), if given —
    /// completed grid cells journal here so a killed sweep can resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Deterministic seed (`--seed`), if given.
    pub seed: Option<u64>,
    /// Explicit sweep worker count (`--jobs`), if given.
    pub jobs: Option<usize>,
    /// ISA backend spelling (`--arch`), if given; resolved by
    /// [`BenchCli::arch`].
    pub arch: Option<String>,
    /// Positional (non-flag) arguments in order.
    pub positional: Vec<String>,
    /// Bare `--flag` arguments (everything else starting with `--`).
    flags: Vec<String>,
    trace_written: Cell<bool>,
}

impl BenchCli {
    /// Parses the process's command line; a malformed one is reported on
    /// stderr and exits with status 2.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| e.exit())
    }

    /// Parses an explicit argument list (first real argument first).
    ///
    /// # Errors
    ///
    /// [`CliError`] for a value flag without a value, an unparsable
    /// `--seed` or `--jobs`, or `--resume` without `--checkpoint-dir`.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut cli = BenchCli::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let (name, inline) = match a.split_once('=') {
                Some((name, value)) if name.starts_with("--") => (name, Some(value.to_string())),
                _ => (a.as_str(), None),
            };
            let Some(&flag) = VALUE_FLAGS.iter().find(|f| **f == name) else {
                if a.starts_with("--") {
                    cli.flags.push(a);
                } else {
                    cli.positional.push(a);
                }
                continue;
            };
            let value = inline
                .or_else(|| it.next())
                .filter(|v| !v.is_empty() && !v.starts_with("--"))
                .ok_or(CliError::MissingValue(flag))?;
            let bad_number = |value: String| CliError::BadNumber { flag, value };
            match flag {
                "--json" => cli.json = Some(value.into()),
                "--trace" => cli.trace = Some(value.into()),
                "--timeline" => cli.timeline = Some(value.into()),
                "--dump" => cli.dump = Some(value.into()),
                "--checkpoint-dir" => cli.checkpoint_dir = Some(value.into()),
                "--seed" => cli.seed = Some(value.parse().map_err(|_| bad_number(value))?),
                "--jobs" => cli.jobs = Some(value.parse().map_err(|_| bad_number(value))?),
                _ => cli.arch = Some(value),
            }
        }
        if cli.resume() && cli.checkpoint_dir.is_none() {
            return Err(CliError::ResumeWithoutCheckpoint);
        }
        Ok(cli)
    }

    /// Whether a bare flag (e.g. `"--quick"`) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The `--seed` value, or `default` when none was given.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The sweep worker count: `--jobs` wins, then the `SVT_JOBS`
    /// environment variable, then the host's available parallelism.
    /// Always at least 1. The merged output is identical for every value
    /// (the sweep engine merges in grid order).
    pub fn jobs(&self) -> usize {
        svt_sim::resolve_jobs(self.jobs)
    }

    /// [`BenchCli::jobs`] clamped to a grid's cell count: what the sweep
    /// engine will actually use on a `cells`-cell grid, so wall-clock
    /// speedup math divides by real workers, not an oversubscribed
    /// request.
    pub fn jobs_for(&self, cells: usize) -> usize {
        svt_sim::resolve_jobs_for(self.jobs, cells)
    }

    /// Whether `--dump-on-exit` was given (bench binaries with flight
    /// recording trip an unconditional end-of-run dump).
    pub fn dump_on_exit(&self) -> bool {
        self.flag("--dump-on-exit")
    }

    /// Whether `--resume` was given: replay the checkpoint journal and
    /// recompute only the cells it is missing.
    pub fn resume(&self) -> bool {
        self.flag("--resume")
    }

    /// Opens the campaign checkpoint requested with `--checkpoint-dir`.
    /// The campaign tag folds the bench name, seed and ISA backend —
    /// deliberately *not* `--jobs`, since resume must be byte-identical
    /// at any worker count — so a directory can never silently satisfy a
    /// different campaign's cells. Returns `None` when no checkpoint
    /// directory was requested; a directory that cannot be created
    /// reports on stderr and exits nonzero.
    pub fn checkpoint(&self, bench: &str, seed: u64) -> Option<svt_sim::checkpoint::Checkpoint> {
        let dir = self.checkpoint_dir.as_ref()?;
        let mut tag = svt_sim::snapshot::Fingerprint::new();
        tag.fold_bytes(bench.as_bytes());
        tag.fold(seed);
        tag.fold_bytes(self.arch().label().as_bytes());
        match svt_sim::checkpoint::Checkpoint::create(dir, tag.value()) {
            Ok(ckpt) => Some(ckpt),
            Err(e) => {
                eprintln!(
                    "error: creating checkpoint directory {} failed: {e}",
                    dir.display()
                );
                std::process::exit(1);
            }
        }
    }

    /// Whether `--hostprof` was given: arm the host-cost self-profiler
    /// (per-subsystem wall/alloc attribution + trap-shape analytics) for
    /// every machine the bench constructs, print the summary table and
    /// attach the `hostprof` report section.
    pub fn hostprof(&self) -> bool {
        self.flag("--hostprof")
    }

    /// The ISA backend requested with `--arch`, defaulting to
    /// [`svt_arch::ArchId::X86`] so that committed baseline reports stay
    /// valid. An unrecognized spelling is reported on stderr and exits
    /// the process with a nonzero status.
    pub fn arch(&self) -> svt_arch::ArchId {
        let Some(spelling) = &self.arch else {
            return svt_arch::ArchId::default();
        };
        match svt_arch::ArchId::parse(spelling) {
            Some(arch) => arch,
            None => {
                eprintln!(
                    "error: unknown --arch {spelling:?}; known backends: {}",
                    svt_arch::ArchId::ALL.map(|a| a.label()).join(", ")
                );
                std::process::exit(2);
            }
        }
    }

    /// For binaries whose figure only exists on the x86 backend: when a
    /// non-x86 `--arch` was requested, reports on stderr and exits with
    /// status 2, as for an unknown backend — the run the caller asked
    /// for does not exist, so it must not look like success. Call right
    /// after [`BenchCli::handle_help`].
    pub fn require_arch_x86(&self, bin: &str) {
        let arch = self.arch();
        if arch != svt_arch::ArchId::X86 {
            eprintln!(
                "error: {bin} runs on x86 only, not --arch {arch} \
                 (fig6, smp and hostprof run on every backend)"
            );
            std::process::exit(2);
        }
    }

    /// When `--help` was given, prints `usage` followed by the standard
    /// flag reference shared by every bench binary, then exits. Call
    /// right after [`BenchCli::parse`].
    pub fn handle_help(&self, usage: &str) {
        if !self.flag("--help") {
            return;
        }
        println!("usage: {usage}");
        println!();
        println!("standard flags (every svt-bench binary):");
        println!("  --json <path>   write the machine-readable run report (schema v3)");
        println!("  --trace <path>  write a Chrome trace of the run's spans, if recorded");
        println!("  --seed <n>      deterministic seed for load generators / fault plans");
        println!("  --jobs <n>      sweep worker threads (env fallback SVT_JOBS, default =");
        println!("                  available parallelism, clamped to the grid size);");
        println!("                  output is byte-identical for any value — results");
        println!("                  merge in grid order");
        println!("  --arch <a>      ISA backend: x86 (default) or riscv; binaries whose");
        println!("                  figure is x86-only reject other backends (exit 2)");
        println!("  --timeline <path>  write the windowed time-series export, if sampled");
        println!("  --dump <path>   write flight-recorder crash dumps, if recorded");
        println!("  --dump-on-exit  trip the flight recorder at end of run regardless");
        println!("  --checkpoint-dir <path>  journal completed grid cells here (atomic");
        println!("                  write-temp-then-rename) so a killed campaign can resume");
        println!("  --resume        replay the checkpoint journal, recomputing only the");
        println!("                  missing or corrupted cells; the merged report is");
        println!("                  byte-identical to an uninterrupted run at any --jobs");
        println!("  --hostprof      profile the simulator itself: per-subsystem host");
        println!("                  wall/alloc attribution + trap-shape analytics,");
        println!("                  printed and attached to the report (alloc counters");
        println!("                  need a bin with the counting allocator installed,");
        println!("                  e.g. the hostprof and perfgate bins)");
        println!("  --help          this message");
        std::process::exit(0);
    }

    /// Positional argument `i` parsed as a `T`, or `default` when absent;
    /// an unparsable one is reported on stderr and exits with status 2.
    pub fn positional_or<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        self.try_positional_or(i, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// [`BenchCli::positional_or`] returning the parse failure instead of
    /// exiting.
    fn try_positional_or<T: std::str::FromStr>(&self, i: usize, default: T) -> Result<T, CliError> {
        match self.positional.get(i) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| CliError::BadPositional {
                index: i,
                value: s.clone(),
            }),
        }
    }

    /// Writes `report` to the `--json` path when one was given; also
    /// calls out a `--trace` request the binary never serviced. Call
    /// this last.
    ///
    /// A failed write (bad path, permissions, full disk) is reported on
    /// stderr and exits the process with a nonzero status — partial
    /// output must never look like success to a caller checking `$?`.
    pub fn emit_report(&self, report: &RunReport) {
        if let Err(e) = self.try_emit_report(report) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    /// [`BenchCli::emit_report`] returning the write failure instead of
    /// exiting, for callers composing their own error handling.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure, annotated with the destination path.
    pub fn try_emit_report(&self, report: &RunReport) -> Result<(), EmitError> {
        if let Some(path) = &self.json {
            report
                .write_file(path)
                .map_err(|e| EmitError::new("run report", path, e))?;
            println!("run report written to {}", path.display());
        }
        if self.trace.is_some() && !self.trace_written.get() {
            println!("(--trace ignored: this binary records no machine trace)");
        }
        Ok(())
    }

    /// Writes the spans (plus causal flow arrows, possibly empty) as a
    /// Chrome trace to the `--trace` path when one was given. Failed
    /// writes report on stderr and exit nonzero, as in
    /// [`BenchCli::emit_report`].
    pub fn emit_trace(&self, spans: &[Span], flows: &[FlowArrow]) {
        if let Err(e) = self.try_emit_trace(spans, flows) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    /// [`BenchCli::emit_trace`] returning the write failure instead of
    /// exiting.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure, annotated with the destination path.
    pub fn try_emit_trace(&self, spans: &[Span], flows: &[FlowArrow]) -> Result<(), EmitError> {
        let Some(path) = &self.trace else {
            return Ok(());
        };
        let json = chrome_trace(spans, flows);
        svt_sim::snapshot::atomic_write(path, json.pretty().as_bytes())
            .map_err(|e| EmitError::new("chrome trace", path, e))?;
        self.trace_written.set(true);
        println!("chrome trace written to {}", path.display());
        Ok(())
    }

    /// Writes an arbitrary JSON document (timeline export, flight dump)
    /// to `path`. Failed writes report on stderr and exit nonzero.
    pub fn emit_json(&self, what: &str, path: &std::path::Path, doc: &svt_obs::Json) {
        if let Err(e) = Self::try_emit_json(what, path, doc) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    /// [`BenchCli::emit_json`] returning the write failure instead of
    /// exiting.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure, annotated with the destination path.
    pub fn try_emit_json(
        what: &str,
        path: &std::path::Path,
        doc: &svt_obs::Json,
    ) -> Result<(), EmitError> {
        svt_sim::snapshot::atomic_write(path, doc.pretty().as_bytes())
            .map_err(|e| EmitError::new(what, path, e))?;
        println!("{what} written to {}", path.display());
        Ok(())
    }
}

/// The flags that take a value, as `--flag v` or `--flag=v`.
const VALUE_FLAGS: [&str; 8] = [
    "--json",
    "--trace",
    "--timeline",
    "--dump",
    "--checkpoint-dir",
    "--seed",
    "--jobs",
    "--arch",
];

/// A command line the bench binaries refuse rather than run on defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A value flag given last, or followed by another flag.
    MissingValue(&'static str),
    /// A `--seed` or `--jobs` value that is not a number.
    BadNumber {
        /// The flag.
        flag: &'static str,
        /// The value given.
        value: String,
    },
    /// A numeric positional argument that does not parse.
    BadPositional {
        /// Its position.
        index: usize,
        /// The value given.
        value: String,
    },
    /// `--resume` without a `--checkpoint-dir` to replay.
    ResumeWithoutCheckpoint,
}

impl CliError {
    /// Reports the error on stderr and exits with status 2.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2);
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadNumber { flag, value } => write!(f, "{flag} {value:?} is not a number"),
            CliError::BadPositional { index, value } => {
                write!(f, "argument {} ({value:?}) does not parse", index + 1)
            }
            CliError::ResumeWithoutCheckpoint => {
                write!(f, "--resume needs --checkpoint-dir to replay")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// A failed output-file write: what was being written, where to, and the
/// underlying I/O error.
#[derive(Debug)]
pub struct EmitError {
    what: String,
    path: PathBuf,
    source: std::io::Error,
}

impl EmitError {
    fn new(what: &str, path: &std::path::Path, source: std::io::Error) -> Self {
        EmitError {
            what: what.to_string(),
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "writing {} to {} failed: {}",
            self.what,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for EmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_args(list: &[&str]) -> Result<BenchCli, CliError> {
        BenchCli::from_args(list.iter().map(|s| s.to_string()))
    }

    fn args(list: &[&str]) -> BenchCli {
        try_args(list).expect("well-formed command line")
    }

    #[test]
    fn parses_json_and_trace_in_both_forms() {
        let c = args(&["--json", "r.json", "--trace=t.json"]);
        assert_eq!(c.json.as_deref(), Some(std::path::Path::new("r.json")));
        assert_eq!(c.trace.as_deref(), Some(std::path::Path::new("t.json")));
        let c = args(&["--json=r.json", "--trace", "t.json"]);
        assert_eq!(c.json.as_deref(), Some(std::path::Path::new("r.json")));
        assert_eq!(c.trace.as_deref(), Some(std::path::Path::new("t.json")));
    }

    #[test]
    fn separates_flags_from_positionals() {
        let c = args(&["3", "--quick", "memcached", "--json=o.json"]);
        assert_eq!(c.positional, vec!["3", "memcached"]);
        assert!(c.flag("--quick"));
        assert!(!c.flag("--smoke"));
        assert_eq!(c.positional_or(0, 1u64), 3);
        assert_eq!(c.positional_or(5, 7u64), 7);
        assert_eq!(
            c.try_positional_or::<u64>(1, 9),
            Err(CliError::BadPositional {
                index: 1,
                value: "memcached".to_string()
            })
        );
    }

    #[test]
    fn empty_args_have_no_outputs() {
        let c = args(&[]);
        assert!(c.json.is_none());
        assert!(c.trace.is_none());
        assert!(c.seed.is_none());
        assert!(c.positional.is_empty());
    }

    #[test]
    fn parses_seed_in_both_forms() {
        assert_eq!(args(&["--seed", "42"]).seed, Some(42));
        assert_eq!(args(&["--seed=7"]).seed, Some(7));
        assert_eq!(
            try_args(&["--seed=x"]).unwrap_err(),
            CliError::BadNumber {
                flag: "--seed",
                value: "x".to_string()
            }
        );
        assert_eq!(
            try_args(&["--seed"]).unwrap_err(),
            CliError::MissingValue("--seed")
        );
        assert_eq!(args(&[]).seed_or(5), 5);
        assert_eq!(args(&["--seed=9"]).seed_or(5), 9);
    }

    #[test]
    fn parses_jobs_in_both_forms() {
        assert_eq!(args(&["--jobs", "4"]).jobs, Some(4));
        assert_eq!(args(&["--jobs=2"]).jobs, Some(2));
        assert!(matches!(
            try_args(&["--jobs", "two"]),
            Err(CliError::BadNumber { flag: "--jobs", .. })
        ));
        assert_eq!(args(&["--jobs=4"]).jobs(), 4);
        assert!(args(&[]).jobs() >= 1);
        // Zero is not a valid worker count; the resolver falls through.
        assert!(args(&["--jobs=0"]).jobs() >= 1);
    }

    #[test]
    fn parses_arch_in_both_forms() {
        assert_eq!(args(&["--arch", "riscv"]).arch(), svt_arch::ArchId::Riscv);
        assert_eq!(args(&["--arch=rv64"]).arch(), svt_arch::ArchId::Riscv);
        assert_eq!(args(&["--arch=x86"]).arch(), svt_arch::ArchId::X86);
        // No flag: the default backend keeps committed baselines valid.
        assert_eq!(args(&[]).arch(), svt_arch::ArchId::X86);
    }

    #[test]
    fn value_flags_without_values_and_bare_resume_are_errors() {
        for list in [&["--json"][..], &["--json", "--trace=t.json"], &["--dump="]] {
            assert!(
                matches!(try_args(list), Err(CliError::MissingValue(_))),
                "{list:?}"
            );
        }
        assert_eq!(
            try_args(&["--smoke", "--resume"]).unwrap_err(),
            CliError::ResumeWithoutCheckpoint
        );
        assert!(args(&["--resume", "--checkpoint-dir", "d"]).resume());
    }

    #[test]
    fn jobs_for_clamps_to_grid_size() {
        assert_eq!(args(&["--jobs=8"]).jobs_for(3), 3);
        assert_eq!(args(&["--jobs=2"]).jobs_for(8), 2);
        assert_eq!(args(&["--jobs=8"]).jobs_for(0), 1);
    }

    #[test]
    fn parses_timeline_and_dump_flags() {
        let c = args(&["--timeline", "tl.json", "--dump=fd.json", "--dump-on-exit"]);
        assert_eq!(c.timeline.as_deref(), Some(std::path::Path::new("tl.json")));
        assert_eq!(c.dump.as_deref(), Some(std::path::Path::new("fd.json")));
        assert!(c.dump_on_exit());
        let c = args(&["--timeline=tl.json", "--dump", "fd.json"]);
        assert_eq!(c.timeline.as_deref(), Some(std::path::Path::new("tl.json")));
        assert_eq!(c.dump.as_deref(), Some(std::path::Path::new("fd.json")));
        assert!(!c.dump_on_exit());
    }

    #[test]
    fn bad_output_paths_error_instead_of_panicking() {
        let c = args(&["--json=/nonexistent-dir/report.json"]);
        let err = c
            .try_emit_report(&RunReport::default())
            .expect_err("bad path must fail");
        let msg = err.to_string();
        assert!(msg.contains("run report"), "{msg}");
        assert!(msg.contains("/nonexistent-dir/report.json"), "{msg}");

        let c = args(&["--trace=/nonexistent-dir/trace.json"]);
        let err = c.try_emit_trace(&[], &[]).expect_err("bad path must fail");
        assert!(err.to_string().contains("chrome trace"), "{err}");

        let err = BenchCli::try_emit_json(
            "timeline",
            std::path::Path::new("/nonexistent-dir/tl.json"),
            &svt_obs::Json::from(true),
        )
        .expect_err("bad path must fail");
        assert!(err.to_string().contains("timeline"), "{err}");
    }
}
