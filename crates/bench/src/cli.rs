//! Command-line handling for the benchmark binaries.
//!
//! Each `svt-bench` binary declares once, in a [`CliSpec`], its
//! positional arguments and the flags it reads, drawn from one shared
//! flag table ([`Flag`]). [`BenchCli::parse`] accepts exactly that
//! declaration: any other flag, an extra positional, a value flag with no
//! value, an unparsable `--seed`/`--arch`, or a `--jobs` that is not a
//! positive integer is a [`CliError`], reported on stderr with exit
//! status 2 before anything runs. `--help` is accepted everywhere and
//! prints help generated from the same declaration, so the help text
//! cannot drift from what the parser accepts.
//!
//! Binaries report through [`BenchCli::emit_report`],
//! [`BenchCli::emit_trace`] and [`BenchCli::emit_json`]; a failed write
//! exits 1. On a binary that declares `--hostprof`, `parse` arms the
//! host-cost profiler when the flag is given and `emit_report` prints its
//! table and attaches the `hostprof` report section.

use std::ops::RangeInclusive;
use std::path::PathBuf;

use svt_arch::ArchId;
use svt_obs::{chrome_trace, hostprof, FlowArrow, RunReport, Span};

/// Declares [`Flag`] from the shared flag table: one row per flag with
/// its variant, its usage (the spelling, plus a value placeholder when it
/// takes a value) and its help line.
macro_rules! flag_table {
    ($($flag:ident $usage:literal $help:literal,)*) => {
        /// A flag some bench binary reads.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Flag {
            $(#[doc = concat!("`", $usage, "`: ", $help, ".")] $flag,)*
        }

        impl Flag {
            /// The flag's row of the table: its usage and its help line.
            fn row(self) -> (&'static str, &'static str) {
                match self {
                    $(Flag::$flag => ($usage, $help),)*
                }
            }

            /// The spelling, e.g. `--json`.
            fn name(self) -> &'static str {
                self.row().0.split(' ').next().unwrap_or_default()
            }

            /// Every flag, in table order.
            #[cfg(test)]
            const ALL: &'static [Flag] = &[$(Flag::$flag,)*];
        }
    };
}

flag_table! {
    Json "--json <path>" "write the machine-readable run report",
    Trace "--trace <path>" "write a Chrome trace of the run",
    Timeline "--timeline <path>" "write the windowed timeline export",
    Dump "--dump <path>" "write the flight-recorder dump",
    DumpOnExit "--dump-on-exit" "trip the flight recorder at the end",
    Seed "--seed <n>" "seed of load generators and fault plans",
    Jobs "--jobs <n>" "sweep workers, at least 1 (default all cores)",
    Arch "--arch <x86|riscv>" "ISA backend (default x86)",
    Quick "--quick" "shorter run",
    Smoke "--smoke" "the small CI-sized run",
    Hostprof "--hostprof" "print and attach the host-cost profile",
    Help "--help" "print this help; every binary takes it",
}

/// What one bench binary accepts: its name, its optional positional
/// arguments in order as `(name, help line)`, and the flags it reads.
#[derive(Debug, PartialEq, Eq)]
pub struct CliSpec {
    /// The binary's name.
    pub bin: &'static str,
    /// Positional arguments, all optional.
    pub args: &'static [(&'static str, &'static str)],
    /// The flags the binary reads (`--help` is implied).
    pub flags: &'static [Flag],
}

impl CliSpec {
    /// The declared flags, then `--help`.
    fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        self.flags.iter().copied().chain([Flag::Help])
    }

    /// The one-line usage: every positional and flag, all optional.
    fn usage(&self) -> String {
        let args = self.args.iter().map(|(name, _)| format!(" [{name}]"));
        let flags = self.flags().map(|f| format!(" [{}]", f.row().0));
        format!("svt-bench {}", self.bin) + &args.chain(flags).collect::<String>()
    }

    /// The `--help` text: the usage, then one line per positional and flag.
    fn help(&self) -> String {
        let rows: Vec<_> = self
            .args
            .iter()
            .copied()
            .chain(self.flags().map(Flag::row))
            .collect();
        let width = rows.iter().map(|(left, _)| left.len()).max().unwrap_or(0);
        let lines = rows
            .iter()
            .map(|(left, help)| format!("  {left:<width$}  {help}\n"));
        format!("usage: {}\n\n", self.usage()) + &lines.collect::<String>()
    }
}

/// Parsed command line of one benchmark binary.
#[derive(Debug)]
pub struct BenchCli {
    spec: &'static CliSpec,
    /// Destination of the machine-readable run report, if requested.
    pub json: Option<PathBuf>,
    /// Destination of the Chrome trace, if requested.
    pub trace: Option<PathBuf>,
    /// Destination of the windowed timeline export (`--timeline`), if
    /// requested.
    pub timeline: Option<PathBuf>,
    /// Destination of the flight-recorder crash dump (`--dump`), if
    /// requested.
    pub dump: Option<PathBuf>,
    /// Deterministic seed (`--seed`), if given.
    pub seed: Option<u64>,
    /// Explicit sweep worker count (`--jobs`), if given.
    pub jobs: Option<usize>,
    arch: ArchId,
    positional: Vec<String>,
    given: Vec<Flag>,
}

impl BenchCli {
    /// Parses the process's command line against the binary's
    /// declaration. A refused command line is reported on stderr and
    /// exits with status 2; `--help` prints the generated help and exits
    /// 0. Arms the host-cost profiler when `--hostprof` is given.
    pub fn parse(spec: &'static CliSpec) -> Self {
        let cli = Self::from_args(spec, std::env::args().skip(1)).unwrap_or_else(|e| e.exit());
        if cli.flag(Flag::Help) {
            print!("{}", spec.help());
            std::process::exit(0);
        }
        if cli.flag(Flag::Hostprof) {
            hostprof::set_enabled(true);
            let _ = hostprof::take_global();
        }
        cli
    }

    /// Parses an explicit argument list (first real argument first)
    /// against `spec`.
    ///
    /// # Errors
    ///
    /// [`CliError`] for a flag `spec` does not declare, more positionals
    /// than it declares, a value flag without a value, an unparsable
    /// `--seed` or `--arch`, or a `--jobs` that is not a positive integer.
    pub fn from_args<I: IntoIterator<Item = String>>(
        spec: &'static CliSpec,
        args: I,
    ) -> Result<Self, CliError> {
        let mut cli = BenchCli {
            spec,
            json: None,
            trace: None,
            timeline: None,
            dump: None,
            seed: None,
            jobs: None,
            arch: ArchId::default(),
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                if cli.positional.len() == spec.args.len() {
                    return Err(CliError::Undeclared { spec, token: a });
                }
                cli.positional.push(a);
                continue;
            }
            let (name, inline) = match a.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (a.as_str(), None),
            };
            let refused = || CliError::Undeclared {
                spec,
                token: a.clone(),
            };
            let flag = spec
                .flags()
                .find(|f| f.name() == name)
                .ok_or_else(refused)?;
            cli.given.push(flag);
            // A bare flag's usage is its name alone; it takes no `=value`.
            if !flag.row().0.contains(' ') {
                if inline.is_some() {
                    return Err(refused());
                }
                continue;
            }
            let name = flag.name();
            let value = inline
                .or_else(|| it.next())
                .filter(|v| !v.is_empty() && !v.starts_with("--"))
                .ok_or(CliError::MissingValue(name))?;
            let bad_value = |value: String, accepts: &str| CliError::BadValue {
                name,
                value,
                accepts: accepts.to_string(),
            };
            match flag {
                Flag::Json => cli.json = Some(value.into()),
                Flag::Trace => cli.trace = Some(value.into()),
                Flag::Timeline => cli.timeline = Some(value.into()),
                Flag::Dump => cli.dump = Some(value.into()),
                Flag::Seed => {
                    cli.seed = Some(value.parse().map_err(|_| bad_value(value, "an integer"))?)
                }
                Flag::Jobs => {
                    let jobs = value.parse().ok().filter(|&n| n > 0);
                    cli.jobs = Some(jobs.ok_or_else(|| bad_value(value, "an integer >= 1"))?)
                }
                _ => cli.arch = ArchId::parse(&value).ok_or(CliError::UnknownArch(value))?,
            }
        }
        Ok(cli)
    }

    /// Whether `flag` was given.
    pub fn flag(&self, flag: Flag) -> bool {
        self.given.contains(&flag)
    }

    /// The sweep worker count: `--jobs` when given, else the host's
    /// available parallelism. Always at least 1. The merged output is
    /// identical for every value (the sweep engine merges in grid order).
    pub fn jobs(&self) -> usize {
        svt_sim::resolve_jobs(self.jobs)
    }

    /// The ISA backend requested with `--arch`, defaulting to
    /// [`ArchId::X86`] so that committed baseline reports stay valid.
    pub fn arch(&self) -> ArchId {
        self.arch
    }

    /// Positional argument `i`, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Positional argument `i` as an integer in `range` (`u64::MAX` as
    /// its end means unbounded), or `default` when absent; any other
    /// value is reported on stderr and exits with status 2.
    pub fn positional_in(&self, i: usize, default: u64, range: RangeInclusive<u64>) -> u64 {
        let accepts = match *range.end() {
            u64::MAX => format!("an integer >= {}", range.start()),
            end => format!("an integer from {} to {end}", range.start()),
        };
        let pick = |v: &str| v.parse().ok().filter(|n| range.contains(n));
        self.checked(i, default, accepts, pick)
            .unwrap_or_else(|e| e.exit())
    }

    /// Positional argument `i`, one of `choices`, or `default` when
    /// absent; any other value is reported on stderr and exits with
    /// status 2.
    pub fn positional_of(
        &self,
        i: usize,
        default: &'static str,
        choices: &[&'static str],
    ) -> &'static str {
        let accepts = format!("one of {}", choices.join(", "));
        let pick = |v: &str| choices.iter().copied().find(|&c| c == v);
        self.checked(i, default, accepts, pick)
            .unwrap_or_else(|e| e.exit())
    }

    /// Positional argument `i` through `pick`, `default` when absent.
    fn checked<T>(
        &self,
        i: usize,
        default: T,
        accepts: String,
        pick: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let Some(value) = self.positional(i) else {
            return Ok(default);
        };
        pick(value).ok_or_else(|| CliError::BadValue {
            name: self.spec.args[i].0,
            value: value.to_string(),
            accepts,
        })
    }

    /// Writes `report` to the `--json` path when one was given, after
    /// printing and attaching the host-cost profile when `--hostprof` was
    /// given. Call this last.
    pub fn emit_report(&self, mut report: RunReport) {
        if self.flag(Flag::Hostprof) {
            hostprof::set_enabled(false);
            match hostprof::take_global() {
                Some(agg) => {
                    crate::print_hostprof(&agg);
                    report.hostprof = Some(agg.to_json());
                }
                None => eprintln!("warning: --hostprof given but no profiled machine run finished"),
            }
        }
        if let Some(path) = &self.json {
            self.emit_json("run report", path, &report.to_json());
        }
    }

    /// Writes the spans (plus causal flow arrows, possibly empty) as a
    /// Chrome trace to the `--trace` path when one was given.
    pub fn emit_trace(&self, spans: &[Span], flows: &[FlowArrow]) {
        if let Some(path) = &self.trace {
            self.emit_json("chrome trace", path, &chrome_trace(spans, flows));
        }
    }

    /// Writes the flight-recorder dump to the `--dump` path when one was
    /// given. A requested dump the recorder never produced (nothing
    /// tripped it and `--dump-on-exit` was not given) is reported on
    /// stderr, pointing at `--dump-on-exit`, and exits the process with
    /// status 1 without writing the file.
    pub fn emit_dump(&self, dump: Option<&svt_obs::Json>) {
        let Some(path) = &self.dump else { return };
        match dump {
            Some(doc) => self.emit_json("flight dump", path, doc),
            None => {
                eprintln!(
                    "error: no flight dump for {}: the flight recorder never tripped; \
                     add --dump-on-exit to dump at the end of the run",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }

    /// Writes a JSON document (run report, trace, timeline export, flight
    /// dump) to `path`. A failed write (bad path, permissions, full disk)
    /// is reported on stderr and exits the process with status 1 —
    /// partial output must never look like success to a caller checking
    /// `$?`.
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

/// A command line the bench binaries refuse rather than run on defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A value flag given last, or followed by another flag.
    MissingValue(&'static str),
    /// An `--arch` value that names no backend.
    UnknownArch(String),
    /// A flag value or positional argument that does not parse or is out
    /// of range.
    BadValue {
        /// The flag, or the positional argument's declared name.
        name: &'static str,
        /// The value given.
        value: String,
        /// What the argument accepts.
        accepts: String,
    },
    /// A `--flag` or `--flag=v` the binary does not declare, or a
    /// positional beyond the ones it declares.
    Undeclared {
        /// The refusing binary's declaration.
        spec: &'static CliSpec,
        /// The token given.
        token: String,
    },
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
            CliError::UnknownArch(value) => {
                let known = ArchId::ALL.map(|a| a.label()).join(", ");
                write!(f, "unknown --arch {value:?}; known backends: {known}")
            }
            CliError::BadValue {
                name,
                value,
                accepts,
            } => {
                write!(f, "{name} {value:?} refused: {name} must be {accepts}")
            }
            CliError::Undeclared { spec, token } => {
                let (bin, usage) = (spec.bin, spec.usage());
                write!(f, "{bin} does not take {token:?}\nusage: {usage}")
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

    /// A binary that reads every flag and takes two positionals.
    const ALL: CliSpec = CliSpec {
        bin: "all",
        args: &[("count", "a count"), ("workload", "a workload")],
        flags: Flag::ALL,
    };

    /// A binary that reads two flags and one positional, like `fig7`.
    const NARROW: CliSpec = CliSpec {
        bin: "narrow",
        args: &[("scale", "a scale")],
        flags: &[Flag::Json, Flag::Hostprof],
    };

    fn try_args(list: &[&str]) -> Result<BenchCli, CliError> {
        BenchCli::from_args(&ALL, list.iter().map(|s| s.to_string()))
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
        assert_eq!(c.positional(1), Some("memcached"));
        assert!(c.flag(Flag::Quick));
        assert!(!c.flag(Flag::Smoke));
        assert_eq!(c.positional_in(0, 1, 1..=u64::MAX), 3);
        assert_eq!(args(&[]).positional_in(0, 7, 1..=16), 7);
        assert_eq!(
            c.positional_of(1, "all", &["memcached", "all"]),
            "memcached"
        );
        assert_eq!(
            c.checked(1, 9, "an integer".to_string(), |v| v.parse().ok()),
            Err(CliError::BadValue {
                name: "workload",
                value: "memcached".to_string(),
                accepts: "an integer".to_string()
            })
        );
    }

    #[test]
    fn empty_args_have_no_outputs() {
        let c = args(&[]);
        assert!(c.json.is_none());
        assert!(c.trace.is_none());
        assert!(c.seed.is_none());
        assert_eq!(c.positional(0), None);
    }

    #[test]
    fn parses_seed_in_both_forms() {
        assert_eq!(args(&["--seed", "42"]).seed, Some(42));
        assert_eq!(args(&["--seed=7"]).seed, Some(7));
        assert_eq!(
            try_args(&["--seed=x"]).unwrap_err(),
            CliError::BadValue {
                name: "--seed",
                value: "x".to_string(),
                accepts: "an integer".to_string()
            }
        );
        assert_eq!(
            try_args(&["--seed"]).unwrap_err(),
            CliError::MissingValue("--seed")
        );
    }

    #[test]
    fn parses_jobs_in_both_forms() {
        assert_eq!(args(&["--jobs", "4"]).jobs, Some(4));
        assert_eq!(args(&["--jobs=2"]).jobs, Some(2));
        assert_eq!(args(&["--jobs=4"]).jobs(), 4);
        assert!(args(&[]).jobs() >= 1);
        // Zero is not a worker count: refused like any other bad value.
        for list in [&["--jobs", "two"][..], &["--jobs=0"], &["--jobs", "-1"]] {
            let err = try_args(list).unwrap_err();
            assert!(
                matches!(err, CliError::BadValue { name: "--jobs", .. }),
                "{list:?}: {err:?}"
            );
            assert!(err.to_string().contains("an integer >= 1"), "{err}");
        }
    }

    #[test]
    fn parses_arch_in_both_forms() {
        assert_eq!(args(&["--arch", "riscv"]).arch(), ArchId::Riscv);
        assert_eq!(args(&["--arch=rv64"]).arch(), ArchId::Riscv);
        assert_eq!(args(&["--arch=x86"]).arch(), ArchId::X86);
        // No flag: the default backend keeps committed baselines valid.
        assert_eq!(args(&[]).arch(), ArchId::X86);
        assert!(matches!(
            try_args(&["--arch=arm"]),
            Err(CliError::UnknownArch(_))
        ));
    }

    #[test]
    fn value_flags_without_values_and_undeclared_flags_are_errors() {
        for list in [&["--json"][..], &["--json", "--trace=t.json"], &["--dump="]] {
            assert!(
                matches!(try_args(list), Err(CliError::MissingValue(_))),
                "{list:?}"
            );
        }
        // An undeclared flag in either form, a surplus positional, and a
        // bare flag given a value are refused by name, with the usage.
        for (list, token) in [
            (&["--smok"][..], "--smok"),
            (&["--quick"], "--quick"),
            (&["--help", "--seed", "3"], "--seed"),
            (&["--seed=3"], "--seed=3"),
            (&["3", "4"], "4"),
            (&["--hostprof=1"], "--hostprof=1"),
        ] {
            let spec = &NARROW;
            let err = BenchCli::from_args(spec, list.iter().map(|s| s.to_string())).unwrap_err();
            let msg = err.to_string();
            let token = token.to_string();
            assert_eq!(err, CliError::Undeclared { spec, token });
            assert!(
                msg.contains(spec.bin) && msg.contains(&spec.usage()),
                "{msg}"
            );
        }
    }

    #[test]
    fn parses_timeline_and_dump_flags() {
        let c = args(&["--timeline", "tl.json", "--dump=fd.json", "--dump-on-exit"]);
        assert_eq!(c.timeline.as_deref(), Some(std::path::Path::new("tl.json")));
        assert_eq!(c.dump.as_deref(), Some(std::path::Path::new("fd.json")));
        assert!(c.flag(Flag::DumpOnExit));
        let c = args(&["--timeline=tl.json", "--dump", "fd.json"]);
        assert_eq!(c.timeline.as_deref(), Some(std::path::Path::new("tl.json")));
        assert_eq!(c.dump.as_deref(), Some(std::path::Path::new("fd.json")));
        assert!(!c.flag(Flag::DumpOnExit));
    }

    #[test]
    fn bad_output_paths_error_instead_of_panicking() {
        for what in ["run report", "chrome trace", "flight dump"] {
            let path = std::path::Path::new("/nonexistent-dir/out.json");
            let doc = svt_obs::Json::from(true);
            let err = BenchCli::try_emit_json(what, path, &doc).expect_err("bad path must fail");
            let msg = err.to_string();
            assert!(
                msg.contains(what) && msg.contains("/nonexistent-dir/out.json"),
                "{msg}"
            );
        }
    }
}
