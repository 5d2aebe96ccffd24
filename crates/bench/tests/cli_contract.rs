//! The bench binaries' command-line contract, end to end.
//!
//! Every binary accepts exactly the flags it reads and at most the
//! positionals it declares: anything else exits 2 with empty stdout and a
//! stderr line naming the offending token, before anything runs. `--help`
//! lists exactly the declared flags and positionals. Acceptance is checked
//! next to `--help`, which every binary parses in full before printing
//! help, so no campaign runs. Flags no binary reads any more are refused
//! by every binary, like any other undeclared flag.

use std::process::{Command, Output};

/// Every flag some binary reads, with a value for the valued ones.
const FLAGS: [(&str, Option<&str>); 11] = [
    ("--json", Some("r.json")),
    ("--trace", Some("t.json")),
    ("--timeline", Some("tl.json")),
    ("--dump", Some("d.json")),
    ("--dump-on-exit", None),
    ("--seed", Some("3")),
    ("--jobs", Some("2")),
    ("--arch", Some("x86")),
    ("--quick", None),
    ("--smoke", None),
    ("--hostprof", None),
];

/// Flags that binaries once read and no binary reads now, with a value
/// for the valued ones: every binary must refuse them.
const RETIRED: [(&str, Option<&str>); 2] = [("--checkpoint-dir", Some("ckpt")), ("--resume", None)];

/// One line per binary: its name, how many positionals it takes, and the
/// flags it reads.
const CONTRACT: &str = "\
ablations 0 --json --hostprof
channel 0 --json
faults 0 --json --hostprof --smoke --seed --jobs --timeline --dump --dump-on-exit
fig6 0 --json --hostprof --jobs --arch
fig7 1 --json --hostprof
fig8 0 --json --hostprof --quick --seed
fig9 0 --json --hostprof --quick --seed
fig10 0 --json --hostprof --quick
hostprof 1 --json --seed --jobs --arch
perfgate 1 --json
profile 2 --json --hostprof --smoke --seed --jobs --trace
smp 0 --json --hostprof --seed --jobs --arch --timeline --dump --dump-on-exit
summary 0 --json --hostprof --seed
table1 0 --json --hostprof
table3 0 --json
timeline 1 --json --hostprof --smoke --seed --jobs --timeline --dump --dump-on-exit";

fn exe(bin: &str) -> &'static str {
    match bin {
        "ablations" => env!("CARGO_BIN_EXE_ablations"),
        "channel" => env!("CARGO_BIN_EXE_channel"),
        "faults" => env!("CARGO_BIN_EXE_faults"),
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        "fig7" => env!("CARGO_BIN_EXE_fig7"),
        "fig8" => env!("CARGO_BIN_EXE_fig8"),
        "fig9" => env!("CARGO_BIN_EXE_fig9"),
        "fig10" => env!("CARGO_BIN_EXE_fig10"),
        "hostprof" => env!("CARGO_BIN_EXE_hostprof"),
        "perfgate" => env!("CARGO_BIN_EXE_perfgate"),
        "profile" => env!("CARGO_BIN_EXE_profile"),
        "smp" => env!("CARGO_BIN_EXE_smp"),
        "summary" => env!("CARGO_BIN_EXE_summary"),
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table3" => env!("CARGO_BIN_EXE_table3"),
        "timeline" => env!("CARGO_BIN_EXE_timeline"),
        _ => panic!("no bench binary {bin}"),
    }
}

fn run(exe: &str, args: &[String]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("binary starts")
}

/// `bin args` exits 2 having printed nothing, naming `token` on stderr.
fn assert_refused(bin: &str, exe: &str, args: &[String], token: &str) {
    let out = run(exe, args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{bin} ran before refusing {args:?}");
    assert!(err.contains(token), "{bin} {args:?}: {err}");
    assert!(!err.contains("panicked"), "{bin} {args:?}: {err}");
}

#[test]
fn every_bin_accepts_exactly_its_declared_flags() {
    let mut pairs = 0;
    for line in CONTRACT.lines() {
        let mut words = line.split(' ');
        let bin = words.next().unwrap();
        let exe = exe(bin);
        let positionals: usize = words.next().unwrap().parse().unwrap();
        let declared: Vec<&str> = words.collect();
        // Every declared flag and positional at once, next to `--help`.
        let mut accepted: Vec<String> = (0..positionals).map(|_| "1".to_string()).collect();
        for (flag, value) in FLAGS.iter().filter(|(f, _)| declared.contains(f)) {
            accepted.push(flag.to_string());
            accepted.extend(value.map(str::to_string));
        }
        accepted.push("--help".to_string());
        let out = run(exe, &accepted);
        assert_eq!(out.status.code(), Some(0), "{bin} {accepted:?}: {out:?}");
        let help = String::from_utf8_lossy(&out.stdout);
        let usage = help.lines().next().unwrap_or_default();
        assert!(
            usage.starts_with(&format!("usage: svt-bench {bin} ")),
            "{usage}"
        );
        let args = usage
            .split(' ')
            .filter(|w| w.starts_with('[') && !w.starts_with("[--"));
        assert_eq!(args.count(), positionals, "{usage}");
        for (flag, _) in FLAGS {
            // `--dump` is a prefix of `--dump-on-exit`: match whole words.
            let listed = help.split([' ', '[', ']', '\n']).any(|w| w == flag);
            assert_eq!(
                listed,
                declared.contains(&flag),
                "{bin} --help on {flag}:\n{help}"
            );
        }
        pairs += declared.len();

        // Every other flag, retired ones included, is refused, in both
        // valued forms.
        let others = FLAGS.iter().filter(|(f, _)| !declared.contains(f));
        for (flag, value) in others.chain(&RETIRED) {
            let mut forms = vec![vec![flag.to_string()]];
            if let Some(v) = value {
                forms = vec![
                    vec![flag.to_string(), v.to_string()],
                    vec![format!("{flag}={v}")],
                ];
            }
            for args in forms {
                assert_refused(bin, exe, &args, flag);
            }
        }

        // One positional more than declared is refused by value.
        let mut extra: Vec<String> = (0..positionals).map(|_| "1".to_string()).collect();
        extra.push("7".to_string());
        assert_refused(bin, exe, &extra, "\"7\"");
    }
    assert_eq!(pairs, 61, "binary x flag pairs accepted");
}

/// `table3` counts the source tree it was built from, wherever it runs,
/// and an unwritable report path exits 1 rather than 0 or a panic.
#[test]
fn table3_counts_the_source_tree_from_any_directory() {
    let dir = std::env::temp_dir().join(format!("svt-table3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table3"))
        .args(["--json", "t3.json"])
        .current_dir(&dir)
        .output()
        .expect("table3 starts");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(dir.join("t3.json")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let report = svt_obs::Json::parse(&text).unwrap();
    let results = report.get("results").unwrap();
    let core = results
        .get("crates")
        .and_then(svt_obs::Json::as_arr)
        .unwrap()
        .iter()
        .find(|c| c.get("dir").and_then(svt_obs::Json::as_str) == Some("crates/core"))
        .unwrap();
    let loc = core.get("loc").and_then(svt_obs::Json::as_i64).unwrap();
    assert!(
        loc > 0,
        "svt-core counted {loc} lines from {}",
        dir.display()
    );

    let out = Command::new(env!("CARGO_BIN_EXE_table3"))
        .args(["--json", "/nonexistent-dir/t3.json"])
        .output()
        .expect("table3 starts");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("run report"));
}

/// A scratch directory for one test's output files.
fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svt-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A requested flight dump that nothing tripped is a failure, not an
/// empty success: a healthy `smp` sweep never trips the recorder, so
/// `--dump` without `--dump-on-exit` exits 1, writes no file and points
/// at `--dump-on-exit`.
#[test]
fn a_dump_nothing_tripped_exits_1_without_a_file() {
    let dir = scratch("dump");
    let dump = dir.join("d.json");
    let out = Command::new(exe("smp"))
        .args(["--jobs", "2", "--dump"])
        .arg(&dump)
        .output()
        .expect("smp starts");
    let err = String::from_utf8_lossy(&out.stderr);
    let written = dump.exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!written, "smp wrote a dump that nothing tripped");
    assert!(
        err.contains("--dump-on-exit") && !err.contains("panicked"),
        "{err}"
    );
}

/// `--hostprof` on a figure bin reports live allocation columns: every
/// bench bin runs on the counting allocator.
#[test]
fn hostprof_on_a_figure_bin_counts_allocations() {
    let dir = scratch("hostprof");
    let path = dir.join("t1.json");
    let out = Command::new(exe("table1"))
        .arg("--hostprof")
        .arg("--json")
        .arg(&path)
        .output()
        .expect("table1 starts");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let report = svt_obs::Json::parse(&text).unwrap();
    let allocs = report
        .get("hostprof")
        .and_then(|h| h.get("total_allocs"))
        .and_then(svt_obs::Json::as_i64)
        .unwrap();
    assert!(allocs > 0, "table1 --hostprof counted {allocs} allocations");
}
