//! End-to-end contract of the sweep daemon: two clients submitting the
//! identical cell cost exactly one simulation, and both read byte-identical
//! result payloads — the second served straight from the content-addressed
//! cache (or by joining the in-flight job, if it races the first). A
//! restart on the same cache file then serves the cell with no work at all.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noclat-sweepd-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running daemon: the child process and the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `sweepd` on an OS-assigned port and waits for its banner.
    fn spawn(cache: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sweepd"))
            .args([
                "--listen",
                "127.0.0.1:0",
                "--cache",
                cache.to_str().unwrap(),
                "--jobs",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sweepd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("sweepd: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    /// Sends the shutdown op and waits for the process to exit.
    fn shutdown(mut self) {
        let mut client = self.connect();
        let ack = client.request(r#"{"op":"shutdown"}"#);
        assert!(ack.contains(r#""ok":true"#), "{ack}");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "sweepd exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("sweepd did not exit within 30s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send");
        self.stream.flush().expect("flush");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-exchange");
        line.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line()
    }
}

/// The verbatim payload spliced into a response or event line: everything
/// after the first `"result":` with the frame's closing brace stripped.
fn result_bytes(line: &str) -> &str {
    let (_, tail) = line
        .split_once(r#""result":"#)
        .unwrap_or_else(|| panic!("no result in {line}"));
    tail.strip_suffix('}')
        .unwrap_or_else(|| panic!("unterminated frame {line}"))
}

/// A small 4×4 cell (seconds, not minutes) that still exercises the full
/// simulation path.
const CELL: &str =
    r#"{"op":"submit","cell":{"size":4,"workload":2,"warmup":200,"measure":2000},"wait":true}"#;

fn stats_field(stats: &str, field: &str) -> u64 {
    let marker = format!(r#""{field}":"#);
    let (_, tail) = stats
        .split_once(&marker)
        .unwrap_or_else(|| panic!("no {field} in {stats}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn two_clients_one_simulation_identical_bytes() {
    let dir = tmp_dir("dedup");
    let cache = dir.join("cache.nj");
    let daemon = Daemon::spawn(&cache);

    // Client 1 computes the cell, streaming progress to the terminal event.
    let mut first = daemon.connect();
    let ack = first.request(CELL);
    assert!(
        ack.contains(r#""status":"queued""#) || ack.contains(r#""status":"running""#),
        "first submission must enqueue work: {ack}"
    );
    assert!(ack.contains(r#""dedup":false"#), "{ack}");
    assert!(
        ack.contains(r#""estimate":{"#),
        "ack should carry the analytic estimate: {ack}"
    );
    let done = loop {
        let line = first.read_line();
        if line.contains(r#""event":"done""#) {
            break line;
        }
        assert!(
            line.contains(r#""event":"state""#),
            "unexpected event before done: {line}"
        );
    };
    let computed = result_bytes(&done).to_string();
    assert!(
        computed.contains(r#""offchip":"#) && computed.contains(r#""mean_latency":"#),
        "{computed}"
    );

    // Client 2 submits the identical cell: a pure cache hit, no simulation,
    // result bytes identical to what client 1 watched being computed.
    let mut second = daemon.connect();
    let hit = second.request(CELL);
    assert!(hit.contains(r#""status":"cached""#), "{hit}");
    assert_eq!(result_bytes(&hit), computed, "cache must splice verbatim");

    // The daemon's own counters corroborate: one simulation, one cache hit.
    let stats = second.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 1, "{stats}");
    assert!(stats_field(&stats, "cache_hits") >= 1, "{stats}");
    assert_eq!(stats_field(&stats, "cache_size"), 1, "{stats}");

    // `status` and `result` address the cell by key from any connection.
    let key = {
        let (_, tail) = hit.split_once(r#""key":""#).unwrap();
        tail[..16].to_string()
    };
    let status = second.request(&format!(r#"{{"op":"status","key":"{key}"}}"#));
    assert!(status.contains(r#""status":"cached""#), "{status}");
    let fetched = second.request(&format!(r#"{{"op":"result","key":"{key}"}}"#));
    assert_eq!(result_bytes(&fetched), computed);

    daemon.shutdown();

    // A fresh daemon on the same cache file serves the cell cold: the cache
    // is durable state, not process memory.
    let daemon = Daemon::spawn(&cache);
    let mut third = daemon.connect();
    let warm = third.request(CELL);
    assert!(warm.contains(r#""status":"cached""#), "{warm}");
    assert_eq!(result_bytes(&warm), computed, "restart must not recompute");
    let stats = third.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 0, "{stats}");
    daemon.shutdown();
}

#[test]
fn protocol_errors_are_typed_not_fatal() {
    let dir = tmp_dir("errors");
    let daemon = Daemon::spawn(&dir.join("cache.nj"));
    let mut client = daemon.connect();

    // Malformed JSON, unknown op, invalid cells: each a one-line error, and
    // the connection keeps serving afterwards.
    let r = client.request("{not json");
    assert!(
        r.contains(r#""ok":false"#) && r.contains("bad request"),
        "{r}"
    );
    let r = client.request(r#"{"op":"transmogrify"}"#);
    assert!(r.contains("unknown op"), "{r}");
    let r = client.request(r#"{"op":"submit","cell":{"size":7}}"#);
    assert!(r.contains("cell.size"), "{r}");
    let r = client.request(r#"{"op":"submit","cell":{"scheme":"s3"}}"#);
    assert!(r.contains("cell.scheme"), "{r}");
    let r = client.request(r#"{"op":"submit","cell":{"fabric":"donut"}}"#);
    assert!(r.contains(r#""ok":false"#), "{r}");
    let r = client.request(r#"{"op":"result","key":"00000000000000aa"}"#);
    assert!(r.contains("unknown key"), "{r}");
    let r = client.request(r#"{"op":"status","key":"zz"}"#);
    assert!(r.contains("bad key"), "{r}");

    // The connection is still healthy: stats answers.
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 0, "{stats}");
    daemon.shutdown();
}

#[test]
fn oversized_request_line_is_refused_and_only_its_connection_closed() {
    use noclat_engine::server::MAX_REQUEST_LINE;
    let dir = tmp_dir("oversized");
    let daemon = Daemon::spawn(&dir.join("cache.nj"));

    // A line of exactly the limit is still served (padding is whitespace).
    let mut client = daemon.connect();
    let mut padded = String::from(r#"{"op":"stats"}"#);
    padded.push_str(&" ".repeat(MAX_REQUEST_LINE - padded.len()));
    let stats = client.request(&padded);
    assert_eq!(stats_field(&stats, "jobs_run"), 0, "{stats}");

    // One byte more, and no newline in sight: the daemon must answer
    // without waiting for one, then hang up.
    let flood = vec![b'x'; MAX_REQUEST_LINE + 1];
    client.stream.write_all(&flood).expect("send flood");
    client.stream.flush().expect("flush");
    let refusal = client.read_line();
    assert_eq!(
        refusal,
        format!(r#"{{"ok":false,"error":"request line exceeds {MAX_REQUEST_LINE} bytes"}}"#)
    );
    let mut rest = String::new();
    let n = client
        .reader
        .read_line(&mut rest)
        .expect("read after refusal");
    assert_eq!(n, 0, "the refused connection is closed, got {rest:?}");

    // Everyone else is unaffected.
    let mut other = daemon.connect();
    let stats = other.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 0, "{stats}");
    daemon.shutdown();
}

#[test]
fn concurrent_identical_submissions_share_one_job() {
    let dir = tmp_dir("join");
    let daemon = Daemon::spawn(&dir.join("cache.nj"));

    // A longer cell so the second submission plausibly lands in flight; the
    // assertions hold either way (joined or cached), and the stats pin the
    // invariant that matters: exactly one simulation ran.
    let cell = r#"{"op":"submit","cell":{"size":4,"workload":3,"warmup":200,"measure":20000},"wait":true}"#;
    let mut a = daemon.connect();
    let mut b = daemon.connect();
    a.send(cell);
    b.send(cell);
    let mut results = Vec::new();
    for client in [&mut a, &mut b] {
        loop {
            let line = client.read_line();
            if line.contains(r#""status":"cached""#) {
                results.push(result_bytes(&line).to_string());
                break;
            }
            if line.contains(r#""event":"done""#) {
                results.push(result_bytes(&line).to_string());
                break;
            }
        }
    }
    assert_eq!(
        results[0], results[1],
        "shared cell must agree byte-for-byte"
    );

    let stats = a.request(r#"{"op":"stats"}"#);
    assert_eq!(
        stats_field(&stats, "jobs_run"),
        1,
        "identical cells must cost one simulation: {stats}"
    );
    daemon.shutdown();
}
