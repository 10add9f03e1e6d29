//! MIRS-C benchmark: one workload per process, closed loop, one client on
//! one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload clustered-4x16 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed output
//! check makes the exit code 1. See `perfbench/README.md`.

mod check;
mod inputs;
mod layers;
mod metrics;
mod sched;
mod service;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};

/// Scratch files of one run (cache directories, the span dump) live under
/// this directory of the working directory.
const SCRATCH_ROOT: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Clustered,
    RegTight,
    Service,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("clustered-4x16", Workload::Clustered),
        ("regtight-1x16", Workload::RegTight),
        ("service-1x64", Workload::Service),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("listed")
    }
}

/// Command-line arguments.
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<metrics::Metric>,
    /// The traced run's spans.
    pub tracer: Option<trace::Tracer>,
    /// Measured workload properties, printed in the report.
    pub notes: Vec<String>,
}

/// Per-run scratch directory under [`SCRATCH_ROOT`], removed on drop.
pub struct ScratchDir {
    root: PathBuf,
    next: AtomicU32,
}

impl ScratchDir {
    fn new() -> Self {
        let root = Path::new(SCRATCH_ROOT).join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self {
            root,
            next: AtomicU32::new(0),
        }
    }

    /// A path for a new directory, unique within the run and not yet
    /// created.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Environment variables that would change results or timings: the
/// library reads `MIRS_*` settings into process-wide switches.
fn hidden_inputs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MIRS_"))
        .collect()
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; `None` outside a git checkout.
fn commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return Some(head.to_string());
            };
            if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
                return Some(id.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()));
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let hidden = hidden_inputs();
    if !hidden.is_empty() {
        eprintln!(
            "refusing to run: {} set; every setting is passed explicitly",
            hidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench  workload: {}  seed: {}  seconds: {}  trace: {}  commit: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
            .as_deref()
            .unwrap_or("unknown (not a git checkout)")
    );
    let header = match args.workload {
        Workload::Clustered => sched::describe(&sched::CLUSTERED),
        Workload::RegTight => sched::describe(&sched::REGTIGHT),
        Workload::Service => service::describe(),
    };
    for line in header {
        println!("  {line}");
    }
    let tmp = ScratchDir::new();
    let out = match args.workload {
        Workload::Clustered => sched::run(&sched::CLUSTERED, &args),
        Workload::RegTight => sched::run(&sched::REGTIGHT, &args),
        Workload::Service => service::run(&args, &tmp),
    };
    drop(tmp);
    for note in &out.notes {
        println!("  {note}");
    }
    if let Some(tr) = &out.tracer {
        print!("{}", layers::table(tr));
        let path = Path::new(SCRATCH_ROOT).join(format!(
            "trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match tr.write(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for m in &out.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
