//! Deterministic mixed-workload generation and replay.
//!
//! [`mixed_workload`] renders a seeded stream of request lines covering
//! every deterministic endpoint (check, solve, extract, game, window,
//! lint, definable, classify) over a small pool of formulas, words and
//! stored documents. The same `(requests, docs, seed)` triple always
//! yields the same byte-exact lines, so the stream serves two masters:
//! the `fc-loadgen` binary replays it over TCP for throughput/latency
//! numbers, and the differential suite replays it concurrently vs.
//! sequentially and demands byte-identical responses. (The `stats`
//! endpoint is deliberately excluded from the mix — its answer depends on
//! interleaving; `fc-loadgen` queries it once at the end instead.)
//!
//! Formula sources are rendered with the parser's canonical `to_source`,
//! i.e. exactly the structural key of the plan cache — a replay with F
//! distinct formulas compiles F plans and hits the cache on everything
//! else, which is the effect `scripts/check.sh`'s smoke leg asserts.

use crate::json::{self, Value};
use fc_logic::parser::to_source;
use fc_logic::{library, Formula};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Xorshift64*: tiny, seedable, good enough for workload mixing.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        // Splitmix64 scramble so nearby seeds diverge immediately; the
        // final `| 1` keeps the state nonzero.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Xorshift((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Short words the solve/game/classify legs draw from.
const WORDS: [&str; 10] = [
    "", "a", "b", "ab", "ba", "aab", "abab", "aabb", "bba", "abba",
];

/// Regexes the definable leg draws from (a mix of definable,
/// non-definable and frontier cases).
const REGEXES: [&str; 5] = ["a*b*", "(ab)*", "(aa)*", "a|b", "ab|ba"];

/// Lint sources: clean, warning-laden, and erroneous formulas.
const LINT_SRCS: [&str; 4] = [
    "E x, y: (x = y.y)",
    "E x: (E x: (x = \"a\"))",
    "E x: (y = x.x)",
    "E x: (x =",
];

fn sentence_pool() -> Vec<String> {
    [
        library::phi_square(),
        library::phi_cube_free(),
        library::on_whole_word(|x| library::phi_contains(x, b'a')),
        library::phi_input_equals(b"ab"),
    ]
    .iter()
    .map(to_source)
    .collect()
}

fn open_pool() -> Vec<String> {
    [library::r_copy("x", "y"), library::phi_contains("x", b'b')]
        .iter()
        .map(|f: &Formula| to_source(f))
        .collect()
}

/// Name of the i-th corpus document.
pub fn doc_name(i: usize) -> String {
    format!("doc{i}")
}

/// Deterministic content of the i-th corpus document. Every fourth
/// document is long, so both structure backends (dense and succinct)
/// appear in the store; the evaluation legs of the workload stick to the
/// short ones (formula evaluation is polynomial in the factor count, and
/// a 100-character document has ~5000 factors — fine to store and probe,
/// too slow to sweep quantifiers over at load-generator rates).
pub fn doc_text(i: usize) -> String {
    let lengths = [8, 12, 16, 100];
    let len = lengths[i % lengths.len()];
    let mut rng = Xorshift::new(0x0d0c ^ (i as u64) << 8);
    (0..len)
        .map(|_| if rng.below(2) == 0 { 'a' } else { 'b' })
        .collect()
}

/// The `put` requests that seed the document store.
pub fn setup_requests(docs: usize) -> Vec<String> {
    (0..docs)
        .map(|i| {
            Value::object([
                ("op", Value::String("put".into())),
                ("name", Value::String(doc_name(i))),
                ("text", Value::String(doc_text(i))),
            ])
            .to_string()
        })
        .collect()
}

/// Renders `requests` mixed request lines over `docs` stored documents.
/// Deterministic in all three arguments.
pub fn mixed_workload(requests: usize, docs: usize, seed: u64) -> Vec<String> {
    assert!(docs > 0, "need at least one document");
    let sentences = sentence_pool();
    let opens = open_pool();
    let mut rng = Xorshift::new(seed);
    let mut lines = Vec::with_capacity(requests);
    for _ in 0..requests {
        let sentence = &sentences[rng.below(sentences.len() as u64) as usize];
        let open = &opens[rng.below(opens.len() as u64) as usize];
        // Evaluation legs avoid the long (every-fourth) documents.
        let eval_doc = {
            let mut i = rng.below(docs as u64) as usize;
            if i % 4 == 3 {
                i = (i + 1) % docs;
            }
            doc_name(i)
        };
        let word = WORDS[rng.below(WORDS.len() as u64) as usize];
        let line = match rng.below(100) {
            0..=27 => Value::object([
                ("op", Value::String("check".into())),
                ("formula", Value::String(sentence.clone())),
                ("doc", Value::String(eval_doc)),
            ]),
            28..=29 => Value::object([
                ("op", Value::String("doc".into())),
                (
                    "name",
                    Value::String(doc_name(rng.below(docs as u64) as usize)),
                ),
            ]),
            30..=44 => Value::object([
                ("op", Value::String("solve".into())),
                ("formula", Value::String(open.clone())),
                ("word", Value::String(word.into())),
                ("limit", Value::Number(16.0)),
            ]),
            45..=59 => Value::object([
                ("op", Value::String("extract".into())),
                ("formula", Value::String(opens[0].clone())),
                ("vars", Value::Array(vec!["x".into(), "y".into()])),
                ("doc", Value::String(eval_doc)),
            ]),
            60..=69 => Value::object([
                ("op", Value::String("game".into())),
                ("w", Value::String(word.into())),
                (
                    "v",
                    Value::String(WORDS[rng.below(WORDS.len() as u64) as usize].into()),
                ),
                ("k", Value::Number((1 + rng.below(2)) as f64)),
            ]),
            70..=79 => Value::object([
                ("op", Value::String("window".into())),
                ("formula", Value::String(sentence.clone())),
                ("max_len", Value::Number((3 + rng.below(2)) as f64)),
            ]),
            80..=87 => Value::object([
                ("op", Value::String("lint".into())),
                (
                    "formula",
                    Value::String(LINT_SRCS[rng.below(LINT_SRCS.len() as u64) as usize].into()),
                ),
            ]),
            88..=93 => Value::object([
                ("op", Value::String("definable".into())),
                (
                    "regex",
                    Value::String(REGEXES[rng.below(REGEXES.len() as u64) as usize].into()),
                ),
            ]),
            _ => {
                let start = rng.below(4) as usize;
                Value::object([
                    ("op", Value::String("classify".into())),
                    (
                        "words",
                        Value::Array(WORDS[start..start + 5].iter().map(|&w| w.into()).collect()),
                    ),
                    ("k", Value::Number(1.0)),
                ])
            }
        };
        lines.push(line.to_string());
    }
    lines
}

/// One lockstep line-protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }
}

/// What to replay and where.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total mixed requests across all clients.
    pub requests: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Documents to `put` before the run.
    pub docs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Send `{"op":"shutdown"}` after the final stats query.
    pub shutdown: bool,
}

impl LoadgenConfig {
    /// Defaults: 100 000 requests, 8 clients, 16 documents.
    pub fn new(addr: impl Into<String>) -> LoadgenConfig {
        LoadgenConfig {
            addr: addr.into(),
            requests: 100_000,
            clients: 8,
            docs: 16,
            seed: 0xfc5e_ed01,
            shutdown: false,
        }
    }
}

/// Aggregate replay results.
#[derive(Clone, Debug)]
pub struct LoadgenSummary {
    /// Requests replayed (excluding setup and the final stats query).
    pub requests: u64,
    /// Responses carrying `"ok":false`.
    pub errors: u64,
    /// Wall time of the replay phase.
    pub wall: Duration,
    /// Requests per second over the replay phase.
    pub throughput_qps: f64,
    /// Median round-trip latency.
    pub p50: Duration,
    /// 99th-percentile round-trip latency.
    pub p99: Duration,
    /// Worst round-trip latency.
    pub max: Duration,
    /// Plan-cache hits reported by the server's final `stats` answer.
    pub plan_cache_hits: u64,
    /// Plan-cache misses reported by the server's final `stats` answer.
    pub plan_cache_misses: u64,
    /// Shared game-table probe hits from the final `stats` answer.
    pub table_hits: u64,
    /// Shared game-table probe misses from the final `stats` answer.
    pub table_misses: u64,
    /// Entries inserted into the shared game table over the run.
    pub table_inserts: u64,
    /// Entries dropped by generational eviction over the run.
    pub table_evictions: u64,
    /// `game` requests answered from a canonical root entry (repeat,
    /// letter-renamed, or swapped pairs — no game search).
    pub canon_game_hits: u64,
    /// `classify` pairs answered by the batch engine's canonical memo.
    pub batch_canon_hits: u64,
    /// Per-endpoint latency breakdown, sorted by op name. Ops are read
    /// back from the workload lines *after* the timed replay, so the
    /// breakdown adds no work to the measured section.
    pub per_op: Vec<OpLatency>,
    /// The server's final `stats` response line, verbatim.
    pub stats_line: String,
}

/// Client-side latency quantiles for one endpoint of the mix.
#[derive(Clone, Debug)]
pub struct OpLatency {
    /// Endpoint name (the request's `op` field).
    pub op: String,
    /// Requests of this op in the replay.
    pub count: u64,
    /// Median round-trip latency for this op.
    pub p50: Duration,
    /// 99th-percentile round-trip latency for this op.
    pub p99: Duration,
}

impl LoadgenSummary {
    /// Hit fraction of the plan cache (0 when it was never consulted).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }

    /// Hit fraction of the shared game table (0 when never probed).
    pub fn table_hit_rate(&self) -> f64 {
        let total = self.table_hits + self.table_misses;
        if total == 0 {
            0.0
        } else {
            self.table_hits as f64 / total as f64
        }
    }

    /// Flat JSON rendering (the summary line `fc-loadgen` prints).
    /// Per-op quantiles flatten to `serve_<op>_p50_us` /
    /// `serve_<op>_p99_us` keys.
    pub fn to_json(&self) -> Value {
        let us = |d: Duration| Value::Number(d.as_nanos() as f64 / 1e3);
        let mut obj: std::collections::BTreeMap<String, Value> = [
            ("loadgen_requests", Value::Number(self.requests as f64)),
            ("loadgen_errors", Value::Number(self.errors as f64)),
            (
                "loadgen_wall_ms",
                Value::Number(self.wall.as_secs_f64() * 1e3),
            ),
            ("serve_throughput_qps", Value::Number(self.throughput_qps)),
            ("serve_p50_us", us(self.p50)),
            ("serve_p99_us", us(self.p99)),
            ("serve_max_us", us(self.max)),
            (
                "serve_plan_cache_hits",
                Value::Number(self.plan_cache_hits as f64),
            ),
            (
                "serve_plan_cache_misses",
                Value::Number(self.plan_cache_misses as f64),
            ),
            (
                "serve_plan_cache_hit_rate",
                Value::Number(self.plan_cache_hit_rate()),
            ),
            ("serve_table_hits", Value::Number(self.table_hits as f64)),
            (
                "serve_table_misses",
                Value::Number(self.table_misses as f64),
            ),
            ("serve_table_hit_rate", Value::Number(self.table_hit_rate())),
            (
                "serve_table_inserts",
                Value::Number(self.table_inserts as f64),
            ),
            (
                "serve_table_evictions",
                Value::Number(self.table_evictions as f64),
            ),
            (
                "serve_canon_game_hits",
                Value::Number(self.canon_game_hits as f64),
            ),
            (
                "serve_batch_canon_hits",
                Value::Number(self.batch_canon_hits as f64),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for op in &self.per_op {
            obj.insert(
                format!("serve_{}_count", op.op),
                Value::Number(op.count as f64),
            );
            obj.insert(format!("serve_{}_p50_us", op.op), us(op.p50));
            obj.insert(format!("serve_{}_p99_us", op.op), us(op.p99));
        }
        Value::Object(obj)
    }
}

fn percentile(sorted_nanos: &[u64], q: f64) -> Duration {
    if sorted_nanos.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted_nanos.len() - 1) as f64 * q).round() as usize;
    Duration::from_nanos(sorted_nanos[idx])
}

/// Replays the workload against a running server: seeds the documents,
/// fans the mixed stream out over `clients` lockstep connections, then
/// queries `stats` (and optionally shuts the server down).
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenSummary> {
    let mut control = Client::connect(&config.addr)?;
    for line in setup_requests(config.docs) {
        let resp = control.round_trip(&line)?;
        if !resp.contains("\"ok\":true") {
            return Err(io::Error::other(format!("setup rejected: {resp}")));
        }
    }

    let lines = mixed_workload(config.requests, config.docs, config.seed);
    let clients = config.clients.max(1).min(lines.len().max(1));
    let chunk = lines.len().div_ceil(clients);
    let t0 = Instant::now();
    let mut per_client: Vec<io::Result<(u64, Vec<u64>)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .chunks(chunk)
            .map(|slice| {
                let addr = config.addr.as_str();
                s.spawn(move || -> io::Result<(u64, Vec<u64>)> {
                    let mut c = Client::connect(addr)?;
                    let mut errors = 0u64;
                    let mut lat = Vec::with_capacity(slice.len());
                    for line in slice {
                        let sent = Instant::now();
                        let resp = c.round_trip(line)?;
                        lat.push(sent.elapsed().as_nanos() as u64);
                        if resp.contains("\"ok\":false") {
                            errors += 1;
                        }
                    }
                    Ok((errors, lat))
                })
            })
            .collect();
        per_client = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
    });
    let wall = t0.elapsed();

    let mut errors = 0u64;
    let mut latencies = Vec::with_capacity(lines.len());
    // Per-client latency vectors are aligned with their line chunks, so
    // zipping them back recovers each sample's request line; the op field
    // is only parsed out here, after the clock stopped.
    let mut by_op: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    for (slice, r) in lines.chunks(chunk).zip(per_client) {
        let (e, lat) = r?;
        errors += e;
        for (line, &nanos) in slice.iter().zip(&lat) {
            let op = json::parse(line)
                .ok()
                .and_then(|v| v.get("op").and_then(Value::as_str).map(String::from))
                .unwrap_or_else(|| "?".into());
            by_op.entry(op).or_default().push(nanos);
        }
        latencies.extend(lat);
    }
    latencies.sort_unstable();
    let per_op = by_op
        .into_iter()
        .map(|(op, mut lat)| {
            lat.sort_unstable();
            OpLatency {
                op,
                count: lat.len() as u64,
                p50: percentile(&lat, 0.50),
                p99: percentile(&lat, 0.99),
            }
        })
        .collect();

    let stats_line = control.round_trip(r#"{"op":"stats"}"#)?;
    let stats = json::parse(&stats_line)
        .map_err(|e| io::Error::other(format!("bad stats response: {e}")))?;
    let counter = |section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|pc| pc.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64
    };
    let cache_counter = |key: &str| counter("plan_cache", key);
    let summary = LoadgenSummary {
        requests: lines.len() as u64,
        errors,
        wall,
        throughput_qps: lines.len() as f64 / wall.as_secs_f64().max(1e-9),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        max: percentile(&latencies, 1.0),
        plan_cache_hits: cache_counter("hits"),
        plan_cache_misses: cache_counter("misses"),
        table_hits: counter("table", "hits"),
        table_misses: counter("table", "misses"),
        table_inserts: counter("table", "inserts"),
        table_evictions: counter("table", "evictions"),
        canon_game_hits: counter("table", "canon_game_hits"),
        batch_canon_hits: counter("batch", "canon_hits"),
        per_op,
        stats_line,
    };
    if config.shutdown {
        let resp = control.round_trip(r#"{"op":"shutdown"}"#)?;
        if !resp.contains("\"ok\":true") {
            return Err(io::Error::other(format!("shutdown rejected: {resp}")));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = mixed_workload(500, 8, 42);
        let b = mixed_workload(500, 8, 42);
        assert_eq!(a, b);
        assert_ne!(a, mixed_workload(500, 8, 43));
    }

    #[test]
    fn workload_lines_are_valid_requests() {
        for line in mixed_workload(200, 4, 7).iter().chain(&setup_requests(4)) {
            let v = json::parse(line).expect("workload line parses");
            assert!(v.get("op").is_some(), "{line}");
        }
    }

    #[test]
    fn docs_cover_both_backends() {
        let lens: Vec<usize> = (0..4).map(|i| doc_text(i).len()).collect();
        assert!(lens.iter().any(|&l| l <= 64), "{lens:?}");
        assert!(lens.iter().any(|&l| l > 64), "{lens:?}");
    }
}
