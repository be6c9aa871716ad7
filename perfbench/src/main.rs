//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Runs one workload and prints every metric with its unit and sample
//! count, the checks, the host identity, and as the last line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics. Records,
//! traces and self-time tables go to `--out` (default `perfbench/out`).

use perfbench::record::{Identity, Record};
use perfbench::{run, Opts, Size, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    opts: Opts,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size: Size::Full,
        },
        out,
    })
}

/// Compares this run's simulated metrics with those the other mode
/// (traced or untraced) recorded for the same workload, seed and
/// sources, then records this run's.
fn cross_check_sim(rec: &mut Record, id: &Identity, dir: &Path) {
    if id.source == "unset" {
        return;
    }
    let Some(text) = rec.sim_text(&id.source) else {
        return;
    };
    let path = dir.join(format!("{}-seed{}.sim", rec.workload, rec.seed));
    if let Ok(prev) = std::fs::read_to_string(&path) {
        if prev.lines().next() == text.lines().next() {
            let ok = rec.check("sim_metrics_match_other_runs", prev == text);
            rec.op(ok);
        }
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn write_outputs(rec: &mut Record, spans: &perfbench::spans::Spans, id: &Identity, a: &Args) {
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("cannot create {}: {e}", a.out.display());
        return;
    }
    cross_check_sim(rec, id, &a.out);
    let stem = format!(
        "{}-seed{}-trace{}",
        rec.workload,
        rec.seed,
        u8::from(rec.trace)
    );
    let mut files = vec![(format!("{stem}.json"), rec.to_json(id))];
    if rec.trace {
        files.push((format!("{stem}.perfetto.json"), spans.perfetto_json()));
        files.push((format!("{stem}.selftime.txt"), spans.self_time_table()));
    }
    for (name, body) in files {
        let path = a.out.join(&name);
        match std::fs::write(&path, body) {
            Ok(()) => rec.notes.push(format!("wrote {}", path.display())),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let (mut rec, spans) = run(&args.workload, &args.opts).expect("workload name checked");
    let id = Identity::current();
    write_outputs(&mut rec, &spans, &id, &args);
    for line in rec.lines() {
        println!("{line}");
    }
    println!(
        "# host nproc={} threads={} TSM_THREADS={} rustc=\"{}\" commit={} source={} seed={}",
        id.nproc, id.threads, id.tsm_threads, id.rustc, id.commit, id.source, rec.seed
    );
    println!("{}", rec.result_line());
    ExitCode::SUCCESS
}
