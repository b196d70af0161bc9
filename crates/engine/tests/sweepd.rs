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
    /// Spawns `sweepd` with two workers on an OS-assigned port.
    fn spawn(cache: &Path) -> Daemon {
        Daemon::spawn_with(cache, &["--jobs", "2"])
    }

    /// Spawns `sweepd` on an OS-assigned port and waits for its banner.
    fn spawn_with(cache: &Path, flags: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sweepd"))
            .args(["--listen", "127.0.0.1:0", "--cache"])
            .arg(cache)
            .args(flags)
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
        Client::connect(&self.addr)
    }

    /// Sends the shutdown op and waits for the process to exit.
    fn shutdown(self) {
        let mut client = self.connect();
        let ack = client.request(r#"{"op":"shutdown"}"#);
        assert!(ack.contains(r#""ok":true"#), "{ack}");
        self.wait_exit();
    }

    /// Waits for a daemon that has been told to shut down to exit with 0.
    fn wait_exit(mut self) {
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

impl Drop for Daemon {
    /// A test that fails before its shutdown must not leave a daemon behind
    /// (it may be simulating an endless cell). A no-op once it has exited.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    /// The line and its newline in one write, as the daemon sends its own:
    /// a second write would wait out Nagle and the daemon's delayed ACK.
    fn send(&mut self, line: &str) {
        let line = format!("{line}\n");
        self.stream.write_all(line.as_bytes()).expect("send");
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

/// [`CELL`] in other words: the defaults spelled out, through aliases.
const CELL_RESPELLED: &str = r#"{"op":"submit","cell":{"size":4,"fabric":"","mc":"corner","scheme":"none","workload":2,"warmup":200,"measure":2000},"wait":true}"#;

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

    // Client 2 submits the identical cell, spelled differently: a pure cache
    // hit, no simulation, result bytes identical to what client 1 watched
    // being computed.
    let mut second = daemon.connect();
    let hit = second.request(CELL_RESPELLED);
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

/// A second small cell, for tests that need one nobody has computed.
const OTHER_CELL: &str =
    r#"{"op":"submit","cell":{"size":4,"workload":5,"warmup":200,"measure":2000},"wait":true}"#;

/// A cell far too long to finish inside a test: it only ever ends by
/// cancellation or deadline.
const ENDLESS: &str = r#"{"op":"submit","cell":{"size":4,"workload":2,"warmup":200,"measure":4000000000},"wait":true}"#;

/// The 16-hex key of a reply or event line.
fn key_of(line: &str) -> String {
    let (_, tail) = line
        .split_once(r#""key":""#)
        .unwrap_or_else(|| panic!("no key in {line}"));
    tail[..16].to_string()
}

/// Reads `state` events until the cell reports `running`.
fn await_running(client: &mut Client, key: &str) {
    loop {
        let line = client.read_line();
        if line == format!(r#"{{"event":"state","key":"{key}","state":"running"}}"#) {
            return;
        }
        assert_eq!(
            line,
            format!(r#"{{"event":"state","key":"{key}","state":"queued"}}"#)
        );
    }
}

#[test]
fn cancel_stops_a_running_cell_and_a_queued_cell_never_runs() {
    let dir = tmp_dir("cancel");
    let daemon = Daemon::spawn_with(&dir.join("cache.nj"), &["--jobs", "1"]);

    // The single worker is busy with a cell that would run for hours.
    let mut runner = daemon.connect();
    let running = key_of(&runner.request(ENDLESS));
    await_running(&mut runner, &running);

    // A second cell queues behind it.
    let mut waiter = daemon.connect();
    let ack = waiter.request(CELL);
    assert!(ack.contains(r#""status":"queued""#), "{ack}");
    let queued = key_of(&ack);
    assert_eq!(
        waiter.read_line(),
        format!(r#"{{"event":"state","key":"{queued}","state":"queued"}}"#)
    );

    // Cancel both from a third connection: the queued one first, so it can
    // never have been claimed by the worker.
    let mut operator = daemon.connect();
    for key in [&queued, &running] {
        assert_eq!(
            operator.request(&format!(r#"{{"op":"cancel","key":"{key}"}}"#)),
            format!(r#"{{"ok":true,"op":"cancel","key":"{key}","cancelled":true}}"#)
        );
    }
    assert_eq!(
        runner.read_line(),
        format!(r#"{{"event":"cancelled","key":"{running}"}}"#)
    );
    assert_eq!(
        waiter.read_line(),
        format!(r#"{{"event":"cancelled","key":"{queued}"}}"#)
    );

    // Nothing ran to completion, nothing was cached.
    let stats = operator.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "cache_size"), 0, "{stats}");

    // The worker survived: a fresh cell computes, and it is the only
    // simulation the daemon ever finished (the cancelled queued cell did
    // not sneak in before it).
    let mut line = operator.request(OTHER_CELL);
    while !line.contains(r#""event":"done""#) {
        assert!(!line.contains(r#""event":"cancelled""#), "{line}");
        line = operator.read_line();
    }
    let stats = operator.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "cache_size"), 1, "{stats}");
    daemon.shutdown();
}

#[test]
fn expired_job_timeout_is_a_failed_event_naming_the_deadline() {
    let dir = tmp_dir("timeout");
    let daemon = Daemon::spawn_with(
        &dir.join("cache.nj"),
        &["--jobs", "1", "--job-timeout", "0.25"],
    );
    let mut client = daemon.connect();
    let key = key_of(&client.request(ENDLESS));
    await_running(&mut client, &key);
    let failed = client.read_line();
    assert!(
        failed.starts_with(&format!(
            r#"{{"event":"failed","key":"{key}","error":"sweep job #0 (cell v1 size=4 "#
        )),
        "{failed}"
    );
    assert!(
        failed.contains(&format!("exceeded its 250 ms deadline [config {key}]")),
        "{failed}"
    );
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "cache_size"), 0, "{stats}");
    daemon.shutdown();
}

/// The wire format, byte for byte. Every deterministic reply is compared
/// with the string the daemon sent when the protocol was released; the
/// cached answers splice a payload this test wrote into the cache file
/// itself, so they do not move with the simulator. Lines that depend on
/// scheduling (`queued` or `running`) are pinned up to that one word.
#[test]
fn reply_bytes_are_pinned() {
    use noclat_engine::{sweepd_cache_fingerprint, CellSpec, Json, ResultCache};

    const PAYLOAD: &str = r#"{"pinned":1.5,"text":"a \"quoted\" word","list":[1,2,3]}"#;
    const KEY: &str = "0970a49b431d0895";
    let dir = tmp_dir("bytes");
    let cache = dir.join("cache.nj");
    {
        let request = Json::parse(CELL).unwrap();
        let spec = CellSpec::from_json(request.get("cell").unwrap()).unwrap();
        assert_eq!(format!("{:016x}", spec.key()), KEY, "cache keys are frozen");
        let mut seeded = ResultCache::open(&cache, sweepd_cache_fingerprint()).unwrap();
        seeded.insert(spec.key(), PAYLOAD).unwrap();
    }
    let daemon = Daemon::spawn_with(&cache, &["--jobs", "1"]);
    let mut client = daemon.connect();

    let exchanges: &[(&str, &str)] = &[
        // Refusals: one typed line each, the connection keeps serving.
        (
            "{not json",
            r#"{"ok":false,"error":"bad request: expected '\"' at byte 1"}"#,
        ),
        (
            r#"{"op":"transmogrify"}"#,
            r#"{"ok":false,"error":"unknown op \"transmogrify\""}"#,
        ),
        (
            r#"{"key":"00"}"#,
            r#"{"ok":false,"error":"unknown op \"\""}"#,
        ),
        (
            r#"{"op":"submit"}"#,
            r#"{"ok":false,"error":"submit needs a cell object"}"#,
        ),
        (
            r#"{"op":"submit","cell":3}"#,
            r#"{"ok":false,"error":"cell must be an object"}"#,
        ),
        (
            r#"{"op":"submit","cell":{"size":7}}"#,
            r#"{"ok":false,"error":"cell.size must be 4, 8, 16 or 32"}"#,
        ),
        (
            r#"{"op":"submit","cell":{"workload":19}}"#,
            r#"{"ok":false,"error":"cell.workload must be in 1..=18"}"#,
        ),
        (
            r#"{"op":"submit","cell":{"measure":0}}"#,
            r#"{"ok":false,"error":"cell.measure must be at least 1 cycle"}"#,
        ),
        (
            r#"{"op":"submit","cell":{"seed":"x"}}"#,
            r#"{"ok":false,"error":"cell.seed must be an unsigned integer"}"#,
        ),
        (
            r#"{"op":"submit","cell":{"fabric":7}}"#,
            r#"{"ok":false,"error":"cell.fabric must be a string"}"#,
        ),
        // A fabric is never partly ignored: `mc=` and parameters the named
        // fabric does not take are refused, naming the field.
        (
            r#"{"op":"submit","cell":{"fabric":"torus:mc=edge"}}"#,
            r#"{"ok":false,"error":"cell.fabric: \"torus:mc=edge\" sets mc=, which a cell takes as its own field"}"#,
        ),
        (
            r#"{"op":"submit","cell":{"fabric":"mesh:c=4"}}"#,
            r#"{"ok":false,"error":"cell.fabric: mesh takes no c= parameter"}"#,
        ),
        (
            r#"{"op":"submit","cell":{"fabric":"torus:skip=3"}}"#,
            r#"{"ok":false,"error":"cell.fabric: torus takes no skip= parameter"}"#,
        ),
        (
            r#"{"op":"status"}"#,
            r#"{"ok":false,"error":"missing key"}"#,
        ),
        (
            r#"{"op":"result"}"#,
            r#"{"ok":false,"error":"missing key"}"#,
        ),
        (
            r#"{"op":"cancel"}"#,
            r#"{"ok":false,"error":"missing key"}"#,
        ),
        (
            r#"{"op":"status","key":"zz"}"#,
            r#"{"ok":false,"error":"bad key \"zz\": invalid digit found in string"}"#,
        ),
        (
            r#"{"op":"result","key":"00000000000000aa"}"#,
            r#"{"ok":false,"error":"unknown key (never submitted)"}"#,
        ),
        (
            r#"{"op":"result","key":"00000000000000aa","wait":true}"#,
            r#"{"ok":false,"error":"unknown key (never submitted)"}"#,
        ),
        // Keyed ops on a key nobody submitted.
        (
            r#"{"op":"status","key":"00000000000000aa"}"#,
            r#"{"ok":true,"op":"status","key":"00000000000000aa","status":"unknown"}"#,
        ),
        (
            r#"{"op":"cancel","key":"aa"}"#,
            r#"{"ok":true,"op":"cancel","key":"00000000000000aa","cancelled":false}"#,
        ),
        (
            r#"{"op":"stats"}"#,
            r#"{"ok":true,"op":"stats","jobs_run":0,"cache_hits":0,"dedup_joins":0,"cache_size":1,"inflight":0}"#,
        ),
        // The cached cell: payload spliced verbatim, always last.
        (
            CELL,
            r#"{"ok":true,"op":"submit","key":"0970a49b431d0895","status":"cached","result":{"pinned":1.5,"text":"a \"quoted\" word","list":[1,2,3]}}"#,
        ),
        (
            r#"{"op":"status","key":"0970a49b431d0895"}"#,
            r#"{"ok":true,"op":"status","key":"0970a49b431d0895","status":"cached"}"#,
        ),
        (
            r#"{"op":"result","key":"0970a49b431d0895"}"#,
            r#"{"ok":true,"op":"result","key":"0970a49b431d0895","status":"cached","result":{"pinned":1.5,"text":"a \"quoted\" word","list":[1,2,3]}}"#,
        ),
        (
            r#"{"op":"result","key":"0970a49b431d0895","wait":true}"#,
            r#"{"ok":true,"op":"result","key":"0970a49b431d0895","status":"cached","result":{"pinned":1.5,"text":"a \"quoted\" word","list":[1,2,3]}}"#,
        ),
        (
            r#"{"op":"cancel","key":"0970a49b431d0895"}"#,
            r#"{"ok":true,"op":"cancel","key":"0970a49b431d0895","cancelled":false}"#,
        ),
        (
            r#"{"op":"stats"}"#,
            r#"{"ok":true,"op":"stats","jobs_run":0,"cache_hits":3,"dedup_joins":0,"cache_size":1,"inflight":0}"#,
        ),
    ];
    for (request, reply) in exchanges {
        assert_eq!(client.request(request), *reply, "reply to {request}");
    }
    // Blank lines are skipped, not answered: the next reply is the stats.
    client.send("");
    client.send("   ");
    assert!(client
        .request(r#"{"op":"stats"}"#)
        .starts_with(r#"{"ok":true,"op":"stats","#));
    // Bytes that are not UTF-8 are a bad request, not a dropped connection.
    client.stream.write_all(b"\xff\xfe\n").unwrap();
    assert_eq!(
        client.read_line(),
        r#"{"ok":false,"error":"bad request: invalid utf-8 sequence of 1 bytes from index 0"}"#
    );

    // A computed cell: ack, progress events and the terminal event, pinned
    // up to the scheduling-dependent state word.
    let one_of = |line: &str, head: &str, tail: &str| {
        let states = ["queued", "running"];
        assert!(
            states.iter().any(|s| line == format!("{head}{s}{tail}")),
            "{line}\n  is not {head}<queued|running>{tail}"
        );
    };
    let ack = client.request(OTHER_CELL);
    let key = key_of(&ack);
    assert_eq!(key, "77b31461c68cd428", "cache keys are frozen");
    let (head, estimate) = ack
        .split_once(r#","dedup":false,"estimate":"#)
        .unwrap_or_else(|| panic!("{ack}"));
    one_of(
        head,
        &format!(r#"{{"ok":true,"op":"submit","key":"{key}","status":""#),
        "\"",
    );
    let estimate = Json::parse(estimate.strip_suffix('}').unwrap()).unwrap();
    assert!(estimate.get("mean_latency").is_some(), "{ack}");
    assert_eq!(estimate.get("stable").and_then(Json::as_bool), Some(true));
    let done = loop {
        let line = client.read_line();
        if line.starts_with(r#"{"event":"done""#) {
            break line;
        }
        one_of(
            &line,
            &format!(r#"{{"event":"state","key":"{key}","state":""#),
            "\"}",
        );
    };
    let payload = result_bytes(&done);
    assert_eq!(
        done,
        format!(r#"{{"event":"done","key":"{key}","result":{payload}}}"#)
    );
    assert!(Json::parse(payload).is_ok(), "{payload}");
    assert_eq!(
        client.request(&format!(r#"{{"op":"result","key":"{key}"}}"#)),
        format!(
            r#"{{"ok":true,"op":"result","key":"{key}","status":"cached","result":{payload}}}"#
        )
    );
    assert_eq!(
        client.request(r#"{"op":"stats"}"#),
        r#"{"ok":true,"op":"stats","jobs_run":1,"cache_hits":4,"dedup_joins":0,"cache_size":2,"inflight":0}"#
    );

    // Shutdown acknowledges, then this connection is closed.
    assert_eq!(
        client.request(r#"{"op":"shutdown"}"#),
        r#"{"ok":true,"op":"shutdown"}"#
    );
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");
    daemon.wait_exit();
}

#[test]
fn shutdown_joins_the_executors_and_releases_the_cache_lock() {
    use noclat_engine::{ServerConfig, SweepServer};

    let dir = tmp_dir("release");
    let cache = dir.join("cache.nj");
    let lock = noclat_engine::cache::lock_path(&cache);
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    // In-process, so that a leaked executor thread would keep the cache —
    // and its lock file — alive past `serve()`.
    let serve = |cache: &Path| {
        let server = SweepServer::bind("127.0.0.1:0", cache, &config).expect("bind");
        let addr = server.local_addr().to_string();
        (addr, std::thread::spawn(move || server.serve()))
    };

    let (addr, serving) = serve(&cache);
    let mut client = Client::connect(&addr);
    let mut line = client.request(CELL);
    while !line.contains(r#""event":"done""#) {
        line = client.read_line();
    }
    let computed = result_bytes(&line).to_string();
    assert!(lock.exists(), "a serving daemon holds the cache lock");

    // One cell is running and one is queued when the daemon is told to
    // stop (two workers, so a third endless cell waits): both waiters read
    // `cancelled`, and `serve()` still returns.
    let mut waiters: Vec<(Client, String)> = (0..3)
        .map(|seed| {
            let mut waiter = Client::connect(&addr);
            let endless = ENDLESS.replace(r#""size":4"#, &format!(r#""size":4,"seed":{seed}"#));
            let key = key_of(&waiter.request(&endless));
            (waiter, key)
        })
        .collect();
    let mut idle = Client::connect(&addr);
    idle.request(r#"{"op":"stats"}"#);
    assert_eq!(
        client.request(r#"{"op":"shutdown"}"#),
        r#"{"ok":true,"op":"shutdown"}"#
    );
    serving.join().expect("serve thread").expect("serve");
    assert!(
        !lock.exists(),
        "serve() returned with the cache still locked"
    );
    for (waiter, key) in &mut waiters {
        let cancelled = format!(r#"{{"event":"cancelled","key":"{key}"}}"#);
        while waiter.read_line() != cancelled {}
    }
    // A connection that outlived the daemon cannot start new work, and is
    // closed after the refusal.
    assert_eq!(
        idle.request(ENDLESS),
        r#"{"ok":false,"error":"shutting down"}"#
    );
    let mut rest = String::new();
    assert_eq!(idle.reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");

    // Same process, same path: the second daemon binds and serves the cell
    // from the cache.
    let (addr, serving) = serve(&cache);
    let mut client = Client::connect(&addr);
    let hit = client.request(CELL);
    assert!(hit.contains(r#""status":"cached""#), "{hit}");
    assert_eq!(result_bytes(&hit), computed);
    let stats = client.request(r#"{"op":"stats"}"#);
    assert_eq!(stats_field(&stats, "jobs_run"), 0, "{stats}");
    client.request(r#"{"op":"shutdown"}"#);
    serving.join().expect("serve thread").expect("serve");
    assert!(!lock.exists());
}

#[test]
fn connection_over_the_limit_is_refused_and_the_rest_keep_working() {
    use noclat_engine::server::MAX_CONNECTIONS;
    let dir = tmp_dir("limit");
    let daemon = Daemon::spawn_with(&dir.join("cache.nj"), &["--jobs", "1"]);

    // Fill every slot; a round trip on each proves it was admitted. The
    // first one also has a cell in flight.
    let mut admitted: Vec<Client> = (0..MAX_CONNECTIONS).map(|_| daemon.connect()).collect();
    let running = key_of(&admitted[0].request(ENDLESS));
    for client in &mut admitted[1..] {
        let stats = client.request(r#"{"op":"stats"}"#);
        assert_eq!(stats_field(&stats, "inflight"), 1, "{stats}");
    }

    // One more: a typed refusal, then the connection is closed.
    let mut extra = daemon.connect();
    assert_eq!(
        extra.read_line(),
        format!(r#"{{"ok":false,"error":"too many connections (limit {MAX_CONNECTIONS})"}}"#)
    );
    let mut rest = String::new();
    assert_eq!(extra.reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");

    // The others and the in-flight cell are untouched.
    await_running(&mut admitted[0], &running);
    let last = admitted.last_mut().unwrap();
    let status = last.request(&format!(r#"{{"op":"status","key":"{running}"}}"#));
    assert!(status.contains(r#""status":"running""#), "{status}");

    // A slot frees when its client hangs up (the daemon notices at its next
    // read, so poll), and the next connection is served again.
    drop(admitted.split_off(MAX_CONNECTIONS / 2));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut retry = daemon.connect();
        retry.send(r#"{"op":"stats"}"#);
        let mut reply = String::new();
        retry.reader.read_line(&mut reply).expect("read");
        if reply.contains(r#""op":"stats""#) {
            break;
        }
        assert!(Instant::now() < deadline, "no slot was ever freed: {reply}");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(admitted);
    daemon.shutdown();
}
