//! `serve_mix`: the `fc-loadgen` traffic (`loadgen::setup_requests` +
//! `mixed_workload`, 16-document corpus) over loopback TCP to an
//! in-process `Server` with 2 workers, from 2 lockstep clients.
//!
//! This is the user-facing path. `check` takes most of the engine's time,
//! and the φ_w-`contains` sentence on 16-letter documents (~1.75% of
//! requests, 10–20 ms each) sets `p99_us`. With 2 connections the
//! executor never holds more than 2 requests, so cross-client queueing
//! cannot show here.
//!
//! The stream is stratified: every round of [`ROUND_OPS`] requests carries
//! exactly the request composition (per op, and per sentence and document
//! for `check`) of one fixed reference stream of that length, and the seed
//! picks which requests fill it and in what order. Without this, the
//! binomial spread in the count of slow `check`s moves throughput by
//! several percent from seed to seed, and rounds would differ in work.

use crate::common::{self, Cfg, Layers, Outcome, Rng, Timing};
use crate::probes;
use crate::trace::Tracer;
use fc_games::ShardedArena;
use fc_serve::json::{self, Value};
use fc_serve::{loadgen, EngineConfig, Server, ServerConfig, ServiceEngine, WorkerScratch};
use fc_words::Word;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const NOMINAL_OPS_PER_S: u64 = 3500;
/// Requests per round; every round has the composition of the reference
/// stream of this length.
const ROUND_OPS: usize = 2000;
const DOCS: usize = 16;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Seed of the reference stream whose composition every run reproduces.
const COMPOSITION_SEED: u64 = 0xc0_5171;
/// Seed of the stream the warm-up pass takes its distinct requests from.
const WARMUP_SEED: u64 = 0x3a11;
/// Requests replayed in-process to check byte-identical responses.
const REPLAY_SAMPLES: usize = 500;
/// Requests the traced run replays through the single-layer probes.
const PROBE_LINES: usize = 4000;

/// What set-up sends before the first timed request: the corpus and a
/// warm-up pass over the distinct requests of a fixed stream, so the plan
/// cache and the engine's tables are built before timing.
struct SetupInputs {
    corpus: Vec<String>,
    warmup: Vec<String>,
}

fn field(line: &str, key: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| v.get(key).and_then(Value::as_str).map(String::from))
        .unwrap_or_default()
}

/// The stratum of a request: its op, plus sentence and document for
/// `check` (the only op whose cost spans orders of magnitude).
fn stratum(line: &str) -> String {
    let op = field(line, "op");
    if op == "check" {
        format!("check|{}|{}", field(line, "formula"), field(line, "doc"))
    } else {
        op
    }
}

fn setup_inputs() -> SetupInputs {
    let mut seen = HashSet::new();
    let warmup = loadgen::mixed_workload(20_000, DOCS, WARMUP_SEED)
        .into_iter()
        .filter(|l| seen.insert(l.clone()))
        .collect();
    SetupInputs {
        corpus: loadgen::setup_requests(DOCS),
        warmup,
    }
}

/// The timed stream: `n / ROUND_OPS` rounds, each of the reference
/// composition of [`ROUND_OPS`] requests, drawn from seeded pools and
/// shuffled.
fn stream(seed: u64, n: usize) -> Vec<String> {
    let mut quota: BTreeMap<String, usize> = BTreeMap::new();
    for line in loadgen::mixed_workload(ROUND_OPS, DOCS, COMPOSITION_SEED) {
        *quota.entry(stratum(&line)).or_default() += 1;
    }
    let mut queues: BTreeMap<String, VecDeque<String>> = BTreeMap::new();
    let mut pool_seed = seed;
    let mut rng = Rng::new(seed);
    let mut stream = Vec::with_capacity(n);
    for _ in 0..n / ROUND_OPS {
        let mut round = Vec::with_capacity(ROUND_OPS);
        for (key, &want) in &quota {
            // Refill from further pools (derived seeds) until the stratum
            // has enough requests queued.
            while queues.get(key).map_or(0, VecDeque::len) < want {
                for line in loadgen::mixed_workload(n / 2 + ROUND_OPS, DOCS, pool_seed) {
                    queues.entry(stratum(&line)).or_default().push_back(line);
                }
                pool_seed = pool_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            }
            round.extend(
                queues
                    .get_mut(key)
                    .into_iter()
                    .flat_map(|q| q.drain(..want)),
            );
        }
        rng.shuffle(&mut round);
        stream.extend(round);
    }
    stream
}

pub fn input_digest(seed: u64) -> Vec<u8> {
    stream(seed, 2 * ROUND_OPS).join("\n").into_bytes()
}

/// One lockstep line-protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let writer = BufWriter::new(stream.try_clone().expect("clone socket"));
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send request");
        let mut resp = String::new();
        let read = self.reader.read_line(&mut resp).expect("read response");
        assert!(read > 0, "server closed the connection");
        resp.truncate(resp.trim_end().len());
        resp
    }
}

/// A running server with its corpus stored and the warm-up pass done.
struct Live {
    addr: String,
    engine: Arc<ServiceEngine>,
    control: Client,
    server: JoinHandle<std::io::Result<()>>,
}

fn start(inp: &SetupInputs) -> Live {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        engine: EngineConfig::default(),
    })
    .expect("bind a loopback port");
    let addr = server.local_addr().to_string();
    let engine = server.engine();
    let server = std::thread::spawn(move || server.run());
    let mut control = Client::connect(&addr);
    for line in inp.corpus.iter().chain(&inp.warmup) {
        let resp = control.round_trip(line);
        assert!(
            resp.contains("\"ok\":true"),
            "set-up request failed: {resp}"
        );
    }
    Live {
        addr,
        engine,
        control,
        server,
    }
}

fn stop(mut live: Live) {
    let resp = live.control.round_trip(r#"{"op":"shutdown"}"#);
    assert!(resp.contains("\"ok\":true"), "shutdown refused: {resp}");
    drop(live.control);
    live.server
        .join()
        .expect("server thread panicked")
        .expect("server exited cleanly");
}

/// What a pass kept of the responses: an ok flag per request, and the
/// full text of the requests picked for the replay check.
struct Answers {
    ok: Vec<bool>,
    kept: BTreeMap<usize, String>,
}

/// The requests whose responses the replay check compares (seeded).
fn replay_sample(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut keep = vec![false; n];
    for _ in 0..REPLAY_SAMPLES.min(n) {
        keep[rng.below(n)] = true;
    }
    keep
}

/// The set-up of a fresh process, timed: server start, corpus and warm-up
/// (which also builds the arithmetic oracle's tables), then shutdown.
pub fn setup_probe() -> f64 {
    let inp = setup_inputs();
    let t0 = Instant::now();
    let live = start(&inp);
    let secs = t0.elapsed().as_secs_f64();
    stop(live);
    secs
}

/// Replays `stream[range]` from [`CLIENTS`] lockstep connections (client
/// `c` sends requests `start + c, start + c + CLIENTS, …`). Returns the
/// timing, in stream order, and records the answers.
fn pass(
    live: &Live,
    stream: &[String],
    range: Range<usize>,
    keep: &[bool],
    answers: &mut Answers,
    tr: Option<&mut Tracer>,
) -> Timing {
    let base = tr.as_ref().map(|t| t.base());
    let (start, end) = (range.start, range.end);
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::connect(&live.addr)).collect();
    let t0 = Instant::now();
    type Out = Vec<(u64, bool, Option<String>)>;
    let results: Vec<(Out, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut tracer = base.map(Tracer::new);
                    let mut out = Vec::with_capacity((end - start) / CLIENTS + 1);
                    for i in (start + c..end).step_by(CLIENTS) {
                        let span = tracer.as_mut().map(|t| t.begin("request", i as u64));
                        let t = Instant::now();
                        let resp = client.round_trip(&stream[i]);
                        let nanos = t.elapsed().as_nanos() as u64;
                        let ok = resp.contains("\"ok\":true");
                        out.push((nanos, ok, keep[i].then_some(resp)));
                        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                            t.end(span);
                        }
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut timing = Timing {
        wall_s: t0.elapsed().as_secs_f64(),
        latency_ns: vec![0; end - start],
        control_ms: 0.0,
    };
    let mut tr = tr;
    for (c, (out, tracer)) in results.into_iter().enumerate() {
        for (j, (nanos, ok, resp)) in out.into_iter().enumerate() {
            let i = start + c + j * CLIENTS;
            timing.latency_ns[i - start] = nanos;
            answers.ok[i] = ok;
            if let Some(resp) = resp {
                answers.kept.insert(i, resp);
            }
        }
        if let (Some(main), Some(t)) = (tr.as_deref_mut(), tracer) {
            main.merge(t);
        }
    }
    timing
}

/// Untimed checks: every response is `ok`, and the sampled requests
/// replayed sequentially in-process on a fresh engine give byte-identical
/// responses (the determinism contract of docs/SERVE.md).
fn check(inp: &SetupInputs, stream: &[String], answers: &Answers) -> u64 {
    let engine = ServiceEngine::new(EngineConfig::default());
    let mut scratch = WorkerScratch::default();
    for line in &inp.corpus {
        engine.handle_request(line, &mut scratch);
    }
    let mut failed = 0;
    for (i, &ok) in answers.ok.iter().enumerate() {
        let replay_ok = answers
            .kept
            .get(&i)
            .is_none_or(|resp| engine.handle_request(&stream[i], &mut scratch).line == *resp);
        if !(ok && replay_ok) {
            eprintln!("serve_mix: request {i} failed its output check");
            failed += 1;
        }
    }
    failed
}

fn stats_of(live: &mut Live) -> Value {
    let line = live.control.round_trip(r#"{"op":"stats"}"#);
    json::parse(&line).expect("stats answer parses")
}

fn layer_metrics(
    stream: &[String],
    live: &Live,
    before: &Value,
    after: &Value,
    rtt: &[u64],
    seed: u64,
    tr: &mut Tracer,
) -> Layers {
    let d = |path: &[&str]| probes::stat(after, path) - probes::stat(before, path);
    let mut m = Layers::new();
    let ops = [
        "check",
        "extract",
        "solve",
        "window",
        "game",
        "classify",
        "lint",
        "definable",
        "doc",
    ];
    let engine_ms: f64 = ops.iter().map(|op| d(&["endpoints", op, "wall_ms"])).sum();
    let engine_count: f64 = ops.iter().map(|op| d(&["endpoints", op, "count"])).sum();
    let mean_rtt_us = rtt.iter().sum::<u64>() as f64 / rtt.len() as f64 / 1e3;
    m.insert(
        "server.frontend_us",
        mean_rtt_us - common::ratio(engine_ms * 1e3, engine_count),
    );
    m.insert(
        "engine.check_share",
        common::ratio(d(&["endpoints", "check", "wall_ms"]), engine_ms),
    );
    probes::plan_counters(&mut m, before, after);
    m.insert("arith.game_hits", d(&["arith", "game_hits"]));
    m.insert("serve.canon_game_hits", d(&["table", "canon_game_hits"]));
    let (th, tm) = (d(&["table", "hits"]), d(&["table", "misses"]));
    m.insert("ttable.hit_rate", common::ratio(th, th + tm));
    m.insert("ttable.evictions", d(&["table", "evictions"]));
    let states = d(&["solver", "states_explored"]);
    m.insert(
        "solver.states_per_solved_pair",
        common::ratio(states, d(&["solver", "games"])),
    );
    m.insert(
        "solver.ns_per_state",
        common::ratio(d(&["solver", "wall_ms"]) * 1e6, states),
    );
    let memo = d(&["solver", "memo_hits"]);
    m.insert("solver.memo_hit_rate", common::ratio(memo, memo + states));
    m.insert(
        "solver.pruned_per_state",
        common::ratio(d(&["solver", "pruned_moves"]), states),
    );

    // Single-layer probes on the live (idle) engine: the whole engine path,
    // the JSON layer, the planner on a benchmark-owned document store, and
    // the structure layer on 10³–10⁴-letter documents (after set-up this
    // workload builds no structure, so the probe is its only measurement).
    probes::structure_probes(&mut m, tr, seed);
    let store = ShardedArena::new();
    let docs: HashMap<String, Arc<fc_logic::FactorStructure>> = (0..DOCS)
        .map(|i| {
            let r = tr.leaf("intern", i as u64, || {
                store.intern(&Word::from(loadgen::doc_text(i)))
            });
            (loadgen::doc_name(i), store.structure(r))
        })
        .collect();
    let mut plan = probes::PlanProbe::new();
    let mut scratch = WorkerScratch::default();
    let mut by_op: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (i, line) in stream.iter().take(PROBE_LINES).enumerate() {
        let op = i as u64;
        let span = tr.begin("op", op);
        let req = tr
            .leaf("json_parse", op, || json::parse(line))
            .expect("request parses");
        let t = Instant::now();
        let resp = tr.leaf("handle_request", op, || {
            live.engine.handle_request(line, &mut scratch)
        });
        let name = req
            .get("op")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        by_op
            .entry(name.clone())
            .or_default()
            .push(t.elapsed().as_nanos() as u64);
        let parsed = json::parse(&resp.line).expect("response parses");
        tr.leaf("json_render", op, || parsed.to_string());
        if name == "check" {
            let src = req.get("formula").and_then(Value::as_str);
            let doc = req.get("doc").and_then(Value::as_str);
            plan.check(
                tr,
                op,
                src.unwrap_or_default(),
                &docs[doc.unwrap_or_default()],
            );
        }
        tr.end(span);
    }
    for (op, lat) in by_op.iter_mut() {
        lat.sort_unstable();
        let key = match op.as_str() {
            "check" => "engine.check_p50_us",
            "extract" => "engine.extract_p50_us",
            "solve" => "engine.solve_p50_us",
            "window" => "engine.window_p50_us",
            "game" => "engine.game_p50_us",
            "classify" => "engine.classify_p50_us",
            "lint" => "engine.lint_p50_us",
            "definable" => "engine.definable_p50_us",
            _ => continue,
        };
        m.insert(key, common::quantile(lat, 0.5) as f64 / 1e3);
        if op == "check" {
            m.insert(
                "engine.check_p99_us",
                common::quantile(lat, 0.99) as f64 / 1e3,
            );
        }
    }
    m.insert("json.parse_us", tr.mean_us("json_parse"));
    m.insert("json.render_us", tr.mean_us("json_render"));
    m.insert("plan.compile_us", plan.compile_us());
    m
}

impl Answers {
    fn new(n: usize) -> Answers {
        Answers {
            ok: vec![false; n],
            kept: BTreeMap::new(),
        }
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Outcome {
    let n = cfg.ops(NOMINAL_OPS_PER_S, ROUND_OPS);
    let inp = setup_inputs();
    let stream = stream(cfg.seed, n);
    let keep = replay_sample(cfg.seed, n);
    let live = start(&inp);
    let mut answers = Answers::new(n);
    let (rounds, setups) = common::timed_rounds("serve_mix", n, ROUND_OPS, |range| {
        pass(&live, &stream, range, &keep, &mut answers, None)
    });
    stop(live);
    let mut layers = Layers::new();
    if cfg.trace {
        let mut live = start(&inp);
        let before = stats_of(&mut live);
        let mut traced_answers = Answers::new(n);
        let traced = pass(&live, &stream, 0..n, &keep, &mut traced_answers, Some(tr));
        let after = stats_of(&mut live);
        layers = layer_metrics(
            &stream,
            &live,
            &before,
            &after,
            &traced.latency_ns,
            cfg.seed,
            tr,
        );
        let untraced: f64 = rounds.iter().map(|r| r.wall_s).sum();
        layers.insert("trace.overhead_ratio", traced.wall_s / untraced);
        stop(live);
    }
    let failed = check(&inp, &stream, &answers);
    Outcome {
        attempted: n as u64,
        failed,
        setups,
        rounds,
        layers,
    }
}
