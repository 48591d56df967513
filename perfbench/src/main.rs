//! `fc-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! fc-perfbench --workload <serve_mix|equiv_batch> --seed <n> --seconds <n> --trace <0|1>
//! fc-perfbench --self-test
//! fc-perfbench --setup-probe <serve_mix|equiv_batch>
//! fc-perfbench --host-control
//! ```
//!
//! One run: generate the workload's inputs from the seed, build the set-up,
//! do a fixed amount of work in rounds of equal composition, with a set-up
//! in a fresh process (`--setup-probe`) every few rounds and the host
//! control (`--host-control`, a process of its own) between every two,
//! check every output, and print one JSON object as the last stdout line.
//! Timings are reported in reference-host time (scaled by the host
//! control). With `--trace 1` the run repeats the work with spans around
//! the calls into the program and prints the per-layer metrics instead.
//! See README.md.

mod common;
mod equiv_batch;
mod probes;
mod serve_mix;
mod trace;

use common::{Cfg, Outcome, LAYER_METRICS};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 2] = ["serve_mix", "equiv_batch"];

/// Where traces are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// The end-to-end timings of a run.
struct Timings {
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Throughput and latency quantiles over all the rounds, pooled. With
/// `host_time`, each round's wall time and latencies are first scaled by
/// [`common::CONTROL_REF_MS`] over the host control's time around the
/// round, so they read as reference-host time (see README.md); without,
/// they are wall-clock time.
fn timings(rounds: &[common::Timing], host_time: bool) -> Result<Timings, String> {
    let scale = |t: &common::Timing| {
        if host_time {
            common::CONTROL_REF_MS / t.control_ms
        } else {
            1.0
        }
    };
    let mut lat: Vec<u64> = rounds
        .iter()
        .flat_map(|t| {
            let k = scale(t);
            t.latency_ns.iter().map(move |&x| (x as f64 * k) as u64)
        })
        .collect();
    lat.sort_unstable();
    let p99 = common::quantile(&lat, 0.99);
    let beyond = lat.iter().filter(|&&x| x > p99).count();
    if beyond < 10 {
        return Err(format!(
            "only {beyond} of {} samples lie beyond the p99; run more work",
            lat.len()
        ));
    }
    Ok(Timings {
        throughput: lat.len() as f64 / rounds.iter().map(|t| t.wall_s * scale(t)).sum::<f64>(),
        p50_us: common::quantile(&lat, 0.5) as f64 / 1e3,
        p99_us: p99 as f64 / 1e3,
    })
}

struct Args {
    workload: String,
    cfg: Cfg,
}

fn usage() -> ! {
    eprintln!(
        "usage: fc-perfbench --workload <{0}> --seed <n> --seconds <n> --trace <0|1>\n       fc-perfbench --self-test\n       fc-perfbench --setup-probe <{0}>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => trace = ["0", "1"].iter().position(|v| v == value),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) if WORKLOADS.contains(&w.as_str()) => {
            Args {
                workload: w,
                cfg: Cfg {
                    seed,
                    seconds,
                    trace: trace == 1,
                },
            }
        }
        _ => usage(),
    }
}

/// Same seed ⇒ byte-identical inputs; different seed ⇒ different inputs.
fn self_test() -> i32 {
    let digests: [fn(u64) -> Vec<u8>; 2] = [serve_mix::input_digest, equiv_batch::input_digest];
    let mut ok = true;
    for (name, digest) in WORKLOADS.iter().zip(digests) {
        let (a, b, c) = (digest(1), digest(1), digest(2));
        let same = a == b;
        let differs = a != c;
        println!("{name}: same seed identical: {same}; other seed differs: {differs}");
        ok &= same && differs;
    }
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--self-test"] => std::process::exit(self_test()),
        ["--host-control"] => return common::serve_host_control(),
        ["--setup-probe", workload] => {
            let secs = match workload {
                "serve_mix" => serve_mix::setup_probe(),
                "equiv_batch" => equiv_batch::setup_probe(),
                _ => usage(),
            };
            println!("setup_s {secs}");
            return;
        }
        _ => {}
    }
    let args = parse_args();
    let calib_before = common::calib_ms();
    let mut tracer = Tracer::new(Instant::now());
    let run = match args.workload.as_str() {
        "serve_mix" => serve_mix::run,
        _ => equiv_batch::run,
    };
    let outcome: Outcome = run(&args.cfg, &mut tracer);
    let calib_after = common::calib_ms();

    let (timed, wall) = match (
        timings(&outcome.rounds, true),
        timings(&outcome.rounds, false),
    ) {
        (Ok(timed), Ok(wall)) => (timed, wall),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let setup_s = common::median(
        &outcome
            .setups
            .iter()
            .map(|s| s.secs * common::CONTROL_REF_MS / s.control_ms)
            .collect::<Vec<_>>(),
    );
    let setup_wall_s = common::median(&outcome.setups.iter().map(|s| s.secs).collect::<Vec<_>>());
    let control_ms = common::median(
        &outcome
            .rounds
            .iter()
            .map(|r| r.control_ms)
            .collect::<Vec<_>>(),
    );
    let end_to_end: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setup_s, "s"),
        ("throughput_ops", timed.throughput, "ops/s"),
        ("p50_us", timed.p50_us, "us"),
        ("p99_us", timed.p99_us, "us"),
        (
            "ok_rate",
            (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        ),
        ("peak_rss_mb", common::peak_rss_mb(), "MB"),
    ];

    let calib = common::median(&[calib_before, calib_after]);
    let mut layers = outcome.layers;
    let printed: Vec<(&str, f64, &str)> = if args.cfg.trace {
        layers.insert("host.calib_ms", calib);
        layers.insert("host.control_ms", control_ms);
        for (name, (calls, self_ns)) in tracer.self_times() {
            let per_call = common::ratio(self_ns as f64, calls as f64);
            if let Some(&(key, unit)) = LAYER_METRICS.iter().find(|(k, _)| {
                k.strip_prefix("span.").and_then(|r| r.split('.').next()) == Some(name)
            }) {
                let scale = if unit == "ns" { 1.0 } else { 1e3 };
                layers.insert(key, per_call / scale);
            }
        }
        let path = format!("{OUT_DIR}/trace-{}-{}.jsonl", args.workload, args.cfg.seed);
        if let Err(e) =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.render()))
        {
            eprintln!("warning: could not write {path}: {e}");
        }
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        end_to_end.clone()
    };

    let render = |metrics: &[(&str, f64, &str)]| {
        let mut s = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s
    };
    // The same timings in wall-clock time, before the host-time scaling.
    let wall_clock: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setup_wall_s, "s"),
        ("throughput_ops", wall.throughput, "ops/s"),
        ("p50_us", wall.p50_us, "us"),
        ("p99_us", wall.p99_us, "us"),
    ];
    // A full record of the run (with the host controls, the wall-clock
    // timings and the end-to-end metrics of traced runs) for `sweep.py`
    // and `compare.py`.
    eprintln!(
        "perfbench-record {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"calib_before_ms\": {calib_before}, \"calib_after_ms\": {calib_after}, \"control_ms\": {control_ms}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"wall_clock\": {{{}}}, \"layers\": {{{}}}}}",
        args.workload,
        args.cfg.seed,
        u8::from(args.cfg.trace),
        outcome.attempted,
        outcome.failed,
        render(&end_to_end),
        render(&wall_clock),
        if args.cfg.trace { render(&printed) } else { String::new() },
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        render(&printed)
    );
    if outcome.failed > 0 {
        eprintln!("error: {} ops failed their output check", outcome.failed);
        std::process::exit(1);
    }
}
