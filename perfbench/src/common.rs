//! Shared pieces: the seeded generator, run configuration, quantiles, the
//! host-speed control and the per-layer metric table.

use fc_games::{EfSolver, GamePair};
use fc_words::Alphabet;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness. Same seed, same
/// stream, on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f00d_cafe_d00d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A word of `len` letters drawn uniformly from `letters`.
    pub fn word(&mut self, letters: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| letters[self.below(letters.len())] as char)
            .collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What one invocation was asked to do.
pub struct Cfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Cfg {
    /// The fixed amount of work of a run: `seconds` times the workload's
    /// nominal rate, rounded down to whole rounds of `round_ops` (at least
    /// [`MIN_ROUNDS`]). A run is defined by this count, never by a
    /// deadline, so two builds of different speed do identical work.
    pub fn ops(&self, nominal_per_second: u64, round_ops: usize) -> usize {
        let n = (self.seconds * nominal_per_second) as usize;
        (n / round_ops).max(MIN_ROUNDS) * round_ops
    }
}

/// Fewest rounds a run is cut into, however short `--seconds` is.
const MIN_ROUNDS: usize = 8;

/// A set-up (in a fresh process) is built before the first round and
/// after every this many rounds.
const SETUP_EVERY: usize = 4;

/// A set-up's time, with the host control taken around it.
pub struct Setup {
    pub secs: f64,
    pub control_ms: f64,
}

/// Runs the timed phase: ops `0..n` in rounds of `round_ops` ops, each
/// timed by `round`, with a set-up in a fresh process ([`setup_in_child`])
/// before the first round and after every [`SETUP_EVERY`] rounds. The host
/// control ([`HostControl`]) runs before and after every round and set-up;
/// each gets the mean of the two. Every round has the same composition.
/// Returns the rounds' timings and the set-ups.
pub fn timed_rounds(
    workload: &str,
    n: usize,
    round_ops: usize,
    mut round: impl FnMut(Range<usize>) -> Timing,
) -> (Vec<Timing>, Vec<Setup>) {
    let count = n / round_ops;
    let mut host = HostControl::start();
    let mut rounds = Vec::with_capacity(count);
    let mut setups = Vec::with_capacity(count / SETUP_EVERY + 2);
    let mut setup = |host: &mut HostControl, before: f64| {
        let secs = setup_in_child(workload);
        let after = host.measure();
        setups.push(Setup {
            secs,
            control_ms: (before + after) / 2.0,
        });
        after
    };
    let mut control = host.measure();
    for k in 0..count {
        if k % SETUP_EVERY == 0 {
            control = setup(&mut host, control);
        }
        let mut timing = round(k * round_ops..(k + 1) * round_ops);
        let after = host.measure();
        timing.control_ms = (control + after) / 2.0;
        rounds.push(timing);
        control = after;
    }
    setup(&mut host, control);
    host.stop();
    (rounds, setups)
}

/// The host control, run on request in a process of its own
/// (`--host-control`), so neither the program's heap nor its threads
/// change the control's time.
struct HostControl {
    child: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

impl HostControl {
    fn start() -> HostControl {
        let exe = std::env::current_exe().expect("path of the running benchmark");
        let mut child = Command::new(exe)
            .arg("--host-control")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the host-control process");
        let requests = child.stdin.take().expect("host-control stdin");
        let replies = BufReader::new(child.stdout.take().expect("host-control stdout"));
        let mut host = HostControl {
            child,
            requests,
            replies,
        };
        host.measure(); // warm the control's heap
        host
    }

    /// One run of [`control_ms`] in the control process, ms.
    fn measure(&mut self) -> f64 {
        let mut reply = String::new();
        self.requests
            .write_all(b"\n")
            .and_then(|()| self.requests.flush())
            .and_then(|()| self.replies.read_line(&mut reply))
            .expect("talk to the host-control process");
        reply
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("host-control process answered {reply:?}"))
    }

    fn stop(self) {
        let HostControl {
            mut child,
            requests,
            ..
        } = self;
        drop(requests);
        let status = child.wait().expect("wait for the host-control process");
        assert!(status.success(), "host-control process failed: {status}");
    }
}

/// Threads the control runs on at once: one per CPU of the reference host,
/// so it samples every CPU the program may be running on. The host slows
/// its CPUs separately.
const CONTROL_THREADS: usize = 2;

/// The `--host-control` process: per line read from stdin, runs
/// [`control_ms`] on [`CONTROL_THREADS`] threads at once and prints the
/// mean of their times; exits at the end of input.
pub fn serve_host_control() {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        let times: Vec<f64> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..CONTROL_THREADS).map(|_| s.spawn(control_ms)).collect();
            runs.into_iter()
                .map(|r| r.join().expect("host-control thread panicked"))
                .collect()
        });
        let ms = times.iter().sum::<f64>() / times.len() as f64;
        if writeln!(out, "{ms}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}

/// The host control's typical time on the reference host (2 vCPUs of a
/// Xeon Sapphire Rapids KVM guest shared with other tenants), ms. The
/// end-to-end timings are reported in reference-host time: each round's
/// wall time and latencies, and each set-up's time, scaled by this over
/// the control's time measured around it.
pub const CONTROL_REF_MS: f64 = 13.0;

/// The host-speed control: a fixed job of the benchmark's own, using only
/// the standard library, in the program's cost profile (hash-map updates
/// over a 50,000-key table and short-lived small allocations). It runs in
/// a process of its own ([`HostControl`]), so nothing in the program under
/// test changes its time; the host's speed does. On the reference host,
/// over three minutes, 10-second medians of the E08 game moved 46–74 ms
/// while their ratio to this job's stayed within ±4%. In ms.
fn control_ms() -> f64 {
    let t0 = Instant::now();
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut x: u64 = 1;
    for _ in 0..200_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *table.entry((x >> 40) % 50_000).or_default() += x;
        std::hint::black_box(vec![x; 1 + (x >> 60) as usize]);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Builds `workload`'s set-up once in a fresh process of this program
/// (`--setup-probe`) and returns the time it took, in seconds. A fresh
/// process pays every lazy table (the arithmetic oracle's unary tables,
/// the periodic tables, the plan cache) inside the set-up, as a user's
/// first process would.
fn setup_in_child(workload: &str) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = Command::new(exe)
        .args(["--setup-probe", workload])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start a set-up process");
    let text = String::from_utf8_lossy(&out.stdout);
    let secs = text
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse::<f64>().ok());
    match secs {
        Some(s) if out.status.success() => s,
        _ => panic!("set-up process failed ({}): {text}", out.status),
    }
}

/// Per-op timing of one timed pass (a round, or a whole traced pass).
pub struct Timing {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Latency of each op, ns, in op order.
    pub latency_ns: Vec<u64>,
    /// The host control's time around the pass, ms (0 when not taken).
    pub control_ms: f64,
}

/// The result of one workload run, before the harness derives the
/// end-to-end metrics from it.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setups: Vec<Setup>,
    /// The untraced timed phase, round by round.
    pub rounds: Vec<Timing>,
    /// Per-layer metrics (only filled by traced runs).
    pub layers: Layers,
}

/// Per-layer metric values by name (see [`LAYER_METRICS`]).
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports it as 0 (the "predicted flat"
/// column of the README's prediction table).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("host.calib_ms", "ms"),
    ("host.control_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("server.frontend_us", "us"),
    ("engine.check_share", "ratio"),
    ("engine.check_p50_us", "us"),
    ("engine.check_p99_us", "us"),
    ("engine.extract_p50_us", "us"),
    ("engine.solve_p50_us", "us"),
    ("engine.window_p50_us", "us"),
    ("engine.game_p50_us", "us"),
    ("engine.classify_p50_us", "us"),
    ("engine.lint_p50_us", "us"),
    ("engine.definable_p50_us", "us"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("plan.cache_hit_rate", "ratio"),
    ("plan.frames_per_eval", "count"),
    ("plan.guard_hits_per_eval", "count"),
    ("plan.dfa_checks_per_eval", "count"),
    ("plan.compile_us", "us"),
    ("structure.build_us_per_kletter", "us"),
    ("structure.bytes_per_letter", "B"),
    ("structure.id_of_ns", "ns"),
    ("batch.pairs_per_op", "count"),
    ("batch.memo_share", "ratio"),
    ("batch.arith_share", "ratio"),
    ("batch.fingerprint_share", "ratio"),
    ("batch.rank2_share", "ratio"),
    ("batch.canon_share", "ratio"),
    ("batch.table_root_share", "ratio"),
    ("batch.solver_share", "ratio"),
    ("batch.intern_share", "ratio"),
    ("solver.states_per_solved_pair", "count"),
    ("solver.ns_per_state", "ns"),
    ("solver.memo_hit_rate", "ratio"),
    ("solver.pruned_per_state", "ratio"),
    ("ttable.hit_rate", "ratio"),
    ("ttable.evictions", "count"),
    ("serve.canon_game_hits", "count"),
    ("arith.verdict_ns", "ns"),
    ("arith.game_hits", "count"),
    ("span.handle_request.self_us", "us"),
    ("span.json_parse.self_us", "us"),
    ("span.get_or_compile.self_us", "us"),
    ("span.eval_with_stats.self_us", "us"),
    ("span.intern.self_us", "us"),
    ("span.id_of.self_ns", "ns"),
    ("span.for_words.self_us", "us"),
    ("span.classify.self_us", "us"),
    ("span.equivalent.self_us", "us"),
    ("span.verdict_words.self_ns", "ns"),
];

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The host-speed control: the E08 confirmation `a¹²b¹² ≡₂ a¹⁴b¹²`, a
/// fixed memory-bound game search of 516 states. Median of three, in ms.
pub fn calib_ms() -> f64 {
    let w = format!("{}{}", "a".repeat(12), "b".repeat(12));
    let v = format!("{}{}", "a".repeat(14), "b".repeat(12));
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let game = GamePair::new(w.as_str(), v.as_str(), &Alphabet::ab());
            assert!(
                EfSolver::new(game).equivalent(2),
                "calibration game lost its verdict"
            );
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
