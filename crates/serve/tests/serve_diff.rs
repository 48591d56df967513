//! Concurrency differential suite for `fc serve`.
//!
//! The engine's contract is that every response outside `stats` is a
//! deterministic function of the request and the document store — never
//! of scheduling. These tests enforce it at both layers:
//!
//! - engine level: replaying a mixed workload from N threads (each with
//!   its own worker scratch) yields byte-identical responses to a
//!   sequential replay;
//! - TCP level: N pipelining client connections against a live server see
//!   exactly what one lockstep client sees;
//!
//! plus the robustness legs: malformed requests get error *responses*
//! (the worker survives), and `shutdown` actually terminates `run()`.

use fc_serve::engine::{EngineConfig, ServiceEngine, WorkerScratch};
use fc_serve::loadgen::{mixed_workload, setup_requests};
use fc_serve::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

const DOCS: usize = 6;
const SEED: u64 = 0x5eed;

fn seeded_engine() -> ServiceEngine {
    let engine = ServiceEngine::new(EngineConfig::default());
    for line in setup_requests(DOCS) {
        let resp = engine.handle(&line);
        assert!(resp.contains(r#""ok":true"#), "setup failed: {resp}");
    }
    engine
}

#[test]
fn concurrent_replay_is_byte_identical_to_sequential() {
    let workload = mixed_workload(600, DOCS, SEED);

    let sequential_engine = seeded_engine();
    let sequential: Vec<String> = workload
        .iter()
        .map(|l| sequential_engine.handle(l))
        .collect();
    assert!(
        !sequential.iter().any(|r| r.contains(r#""ok":false"#)),
        "workload contains rejected requests"
    );

    let engine = Arc::new(seeded_engine());
    let threads = 4;
    let chunk = workload.len().div_ceil(threads);
    let mut concurrent: Vec<Vec<String>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = workload
            .chunks(chunk)
            .map(|slice| {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    let mut scratch = WorkerScratch::default();
                    slice
                        .iter()
                        .map(|l| engine.handle_request(l, &mut scratch).line)
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        concurrent = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let concurrent: Vec<String> = concurrent.into_iter().flatten().collect();

    assert_eq!(sequential.len(), concurrent.len());
    for (i, (s, c)) in sequential.iter().zip(&concurrent).enumerate() {
        assert_eq!(s, c, "response {i} diverged for request {}", workload[i]);
    }
}

struct TestClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TestClient {
    fn connect(addr: std::net::SocketAddr) -> TestClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        TestClient {
            writer: BufWriter::new(stream.try_clone().unwrap()),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut resp = String::new();
        assert!(
            self.reader.read_line(&mut resp).unwrap() > 0,
            "server closed the connection"
        );
        resp.truncate(resp.trim_end().len());
        resp
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn spawn_server(workers: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle)
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut c = TestClient::connect(addr);
    let resp = c.round_trip(r#"{"op":"shutdown"}"#);
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    drop(c);
    handle.join().expect("server thread");
}

#[test]
fn tcp_concurrent_clients_match_lockstep_client() {
    let workload = mixed_workload(400, DOCS, SEED ^ 0xc11e);
    let (addr, handle) = spawn_server(4);

    let mut control = TestClient::connect(addr);
    for line in setup_requests(DOCS) {
        assert!(control.round_trip(&line).contains(r#""ok":true"#));
    }

    let sequential: Vec<String> = workload.iter().map(|l| control.round_trip(l)).collect();

    let threads = 4;
    let chunk = workload.len().div_ceil(threads);
    let mut concurrent: Vec<Vec<String>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = workload
            .chunks(chunk)
            .map(|slice| {
                s.spawn(move || {
                    let mut c = TestClient::connect(addr);
                    // Pipeline: write the whole slice, then read every
                    // response — exercises the writer's reorder buffer.
                    for line in slice {
                        c.send(line);
                    }
                    (0..slice.len()).map(|_| c.recv()).collect::<Vec<String>>()
                })
            })
            .collect();
        concurrent = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let concurrent: Vec<String> = concurrent.into_iter().flatten().collect();

    assert_eq!(sequential, concurrent);
    // Shutdown only completes once every client hangs up — release the
    // control connection before asking for it.
    drop(control);
    shutdown(addr, handle);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds replay each rank-2 refutation with the solver"
)]
fn rank2_profile_answers_the_long_game_pair_quickly() {
    // a⁶⁰ba⁶⁰ vs a⁶⁰ba⁶² at k = 3: no arithmetic or fingerprint tier
    // answers it and the exact solver needs 40–50 s even at k = 2, but the
    // two words' rank-2 type profiles differ, which refutes every k ≥ 2.
    let (addr, handle) = spawn_server(2);
    let mut c = TestClient::connect(addr);
    let budget = std::time::Duration::from_secs(5);
    c.reader.get_ref().set_read_timeout(Some(budget)).unwrap();
    let a60 = "a".repeat(60);
    let line = format!(r#"{{"op":"game","w":"{a60}b{a60}","v":"{a60}baa{a60}","k":3}}"#);
    let start = std::time::Instant::now();
    let resp = c.round_trip(&line);
    let elapsed = start.elapsed();
    assert!(resp.contains(r#""equivalent":false"#), "{resp}");
    assert!(elapsed < budget, "took {elapsed:?} (budget {budget:?})");
    drop(c);
    shutdown(addr, handle);
}

#[test]
fn malformed_requests_do_not_kill_workers() {
    // One worker: if a bad request killed it, the follow-ups would hang.
    let (addr, handle) = spawn_server(1);
    let mut c = TestClient::connect(addr);
    for bad in ["{oops", "[1,2,3]", r#"{"op":"warp"}"#, r#"{"op":42}"#] {
        let resp = c.round_trip(bad);
        assert!(resp.contains(r#""ok":false"#), "{bad} -> {resp}");
        assert!(resp.contains("\"error\""), "{bad} -> {resp}");
    }
    let resp = c.round_trip(r#"{"op":"ping","id":"alive"}"#);
    assert_eq!(resp, r#"{"id":"alive","ok":true,"op":"ping"}"#);
    drop(c);
    shutdown(addr, handle);
}

#[test]
fn graceful_shutdown_drains_and_returns() {
    let (addr, handle) = spawn_server(2);
    let mut c = TestClient::connect(addr);
    // Stores are awaited (pipelined requests may execute out of order —
    // see docs/SERVE.md); the queries are then pipelined directly ahead
    // of the shutdown, and every response must still arrive, in order,
    // before the server goes down.
    assert!(c
        .round_trip(r#"{"op":"put","name":"d","text":"abba"}"#)
        .contains(r#""ok":true"#));
    c.send(r#"{"op":"check","formula":"E x, y: (x = y.y)","doc":"d"}"#);
    c.send(r#"{"op":"shutdown"}"#);
    assert!(c.recv().contains(r#""verdict":"#));
    assert!(c.recv().contains(r#""op":"shutdown""#));
    drop(c);
    handle.join().expect("server thread");
}
