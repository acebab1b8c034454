//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <exec-rows|exec-wavefront|service|fleet> --seed N
//!           --seconds S --trace <0|1> [--shape NxM] [--keep-trace]
//!           [--corrupt-reference]
//! ```
//!
//! One run measures one workload for `S` seconds on inputs derived from
//! the seed alone and checks every output against an independent
//! reference. It prints a line of run facts (config, host, sample
//! counts), then, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A wrong answer
//! exits 1 without a result line; bad arguments exit 2.
//!
//! `--shape` overrides the exec workloads' bounds (the tests run tiny
//! shapes), `--keep-trace` keeps the run's JSONL span files under
//! `.bench_tmp/`, and `--corrupt-reference` flips one reference
//! fingerprint so the run must fail (the negative test).

mod calib;
mod exec;
mod layers;
mod report;
mod trace;
mod traffic;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <exec-rows|exec-wavefront|service|fleet> \
                     --seed N --seconds S --trace <0|1> [--shape NxM] [--keep-trace] \
                     [--corrupt-reference]";

/// Root of every file a run writes, relative to the working directory.
const RUN_ROOT: &str = ".bench_tmp";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ExecRows,
    ExecWavefront,
    Service,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "exec-rows" => Workload::ExecRows,
            "exec-wavefront" => Workload::ExecWavefront,
            "service" => Workload::Service,
            "fleet" => Workload::Fleet,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ExecRows => "exec-rows",
            Workload::ExecWavefront => "exec-wavefront",
            Workload::Service => "service",
            Workload::Fleet => "fleet",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shape: Option<(i64, i64)>,
    pub keep_trace: bool,
    pub corrupt_reference: bool,
    /// This run's private directory under [`RUN_ROOT`].
    run_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut shape) = (None, None, None, None);
        let (mut keep_trace, mut corrupt_reference) = (false, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    })
                }
                "--shape" => {
                    let v = value()?;
                    let (n, m) = v.split_once('x').ok_or("--shape takes NxM")?;
                    let dim = |d: &str| -> Result<i64, String> {
                        match d.parse::<i64>() {
                            Ok(x) if (1..=1 << 16).contains(&x) => Ok(x),
                            _ => Err(format!("bad --shape extent {d:?}")),
                        }
                    };
                    shape = Some((dim(n)?, dim(m)?));
                }
                "--keep-trace" => keep_trace = true,
                "--corrupt-reference" => corrupt_reference = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            shape,
            keep_trace,
            corrupt_reference,
            run_dir: PathBuf::from(RUN_ROOT).join(format!("{}-{nanos}", std::process::id())),
        })
    }

    /// The JSONL file for the spans of one recording thread.
    pub fn trace_file(&self, tag: &str) -> PathBuf {
        self.run_dir
            .join(format!("trace-{}-{tag}.jsonl", self.workload.name()))
    }

    /// A fresh, empty directory for one service or fleet target.
    pub fn private_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.run_dir.join(tag);
        std::fs::create_dir(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// The command line recorded in trace headers.
    pub fn command(&self) -> String {
        format!(
            "perfbench --workload {} --seed {} --seconds {} --trace {}",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.trace)
        )
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    // Made first, so that its buffers are resident for the whole run.
    let mut cal = calib::Calibration::new();
    let mut out = match args.workload {
        Workload::ExecRows => exec::run(args, false, &mut cal)?,
        Workload::ExecWavefront => exec::run(args, true, &mut cal)?,
        Workload::Service => traffic::run(args, false, &mut cal)?,
        Workload::Fleet => traffic::run(args, true, &mut cal)?,
    };
    let peak = util::peak_rss_mb().ok_or("cannot read the peak resident set")?;
    out.set("peak_rss_mb", peak - calib::RESIDENT_MB);
    out.fact("workload", args.workload.name());
    out.fact("seed", args.seed);
    out.fact("confirm_seed", args.seed + 1000);
    out.fact("seconds", args.seconds);
    out.fact("trace", u8::from(args.trace));
    out.fact("available_parallelism", util::nproc());
    if args.keep_trace {
        out.fact("trace_dir", args.run_dir.display());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::FAILURE;
    }
    // Shard sockets of the in-process fleet are created under the
    // temporary directory; point it into this run's own directory before
    // any thread starts, so concurrent runs never share a path.
    std::env::set_var("TMPDIR", &args.run_dir);

    let result = run(&args).and_then(|out| {
        let wanted = if args.trace { PER_LAYER } else { END_TO_END };
        Ok((out.facts_line(), out.result_line(wanted)?))
    });
    if !args.keep_trace {
        let _ = std::fs::remove_dir_all(&args.run_dir);
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
    match result {
        Ok((facts, line)) => {
            println!("{facts}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
