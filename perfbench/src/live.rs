//! The measured runs: the release `freezeml serve --socket` binary as a
//! separate process, driven closed-loop over TCP by one client thread
//! (round-robin over the connections of a workload). Nothing is checked or allocated for checking inside the
//! timed region; answers are kept and checked after the server exits.

use crate::check::check_line;
use crate::gen::{interleave, Conn, Kind, Step};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// No answer within this long counts the request failed and ends the
/// connection (a hung server must not hang the benchmark).
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server.
pub struct Server {
    child: Child,
    addr: String,
    /// Drains the server's stderr after the `serving on` line, so the
    /// server can never block on a full pipe; yields what it read.
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawn on an ephemeral port and wait for the `serving on ADDR`
    /// line — no connect-retry polling.
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "--engine",
                "uf",
                "--max-sessions",
                "2",
                "serve",
                "--socket",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if err.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the server exited before serving".to_string());
            }
            if let Some(rest) = line.trim().strip_prefix("freezeml: serving on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = err.read_to_string(&mut rest);
            rest
        });
        Ok(Server {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        let w =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(ANSWER_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { r, w })
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Drain with the protocol `shutdown` on `via`, close every client,
    /// and require a clean exit 0 with no abandoned session.
    pub fn shutdown(mut self, mut via: Client, others: Vec<Client>) -> Result<(), String> {
        let mut answer = String::new();
        let sent = via.roundtrip("{\"cmd\":\"shutdown\"}\n", &mut answer);
        drop(others);
        drop(via);
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let stderr = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        if sent.is_err() || !answer.contains("\"draining\":true") {
            return Err(format!("shutdown was not acknowledged: {answer:?}"));
        }
        match status {
            Some(s) if s.success() && !stderr.contains("abandoning") => Ok(()),
            Some(s) => Err(format!("unclean exit ({s}): {stderr}")),
            None => Err("the server did not exit within 30 s of shutdown".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}

pub struct Client {
    r: BufReader<TcpStream>,
    w: TcpStream,
}

impl Client {
    /// Send one newline-terminated line (one write) and read one answer
    /// line into `answer`; returns the round-trip time.
    pub fn roundtrip(&mut self, line: &str, answer: &mut String) -> std::io::Result<Duration> {
        answer.clear();
        let t0 = Instant::now();
        self.w.write_all(line.as_bytes())?;
        if self.r.read_line(answer)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(t0.elapsed())
    }
}

/// What a live run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Round trips of the measured phase, by kind, in sending order.
    pub latencies: Vec<(Kind, Duration)>,
    /// When each of those answers arrived, from the measured phase's start.
    pub answered_at: Vec<Duration>,
    /// The measured phase, from the first line sent to the last answer.
    pub wall: Duration,
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Why the run is not correct, beyond failed lines.
    pub problems: Vec<String>,
}

/// Answer every warm-up line of every connection, in connection order.
fn warm_up(clients: &mut [Client], conns: &[Conn]) -> Result<(), String> {
    let mut answer = String::new();
    for (c, conn) in clients.iter_mut().zip(conns) {
        for s in &conn.warmup {
            c.roundtrip(&s.line, &mut answer)
                .map_err(|e| format!("warm-up: {e}"))?;
            check_line(&answer, &s.expect).map_err(|e| format!("warm-up answer: {e}"))?;
        }
    }
    Ok(())
}

/// Start a fresh server, connect every connection and answer the
/// warm-up lines; returns the server, its clients and the seconds that
/// took.
fn set_up(bin: &Path, conns: &[Conn]) -> Result<(Server, Vec<Client>, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin)?;
    let mut clients = conns
        .iter()
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    warm_up(&mut clients, conns)?;
    Ok((server, clients, t0.elapsed().as_secs_f64()))
}

/// The measured server is set up first. `setups - 1` more servers are
/// set up, timed and shut down at even points through the measured
/// phase, while the measured server idles, so that the set-up times
/// sample the host across the run as the round trips do; the pauses
/// are left out of `answered_at` and `wall`.
pub fn run(bin: &Path, conns: &[Conn], setups: usize) -> Result<Outcome, String> {
    let (server, mut clients, first) = set_up(bin, conns)?;
    let mut setup_s = Vec::with_capacity(setups);
    setup_s.push(first);
    // One client thread sends every connection's lines round-robin,
    // so at most one request is in flight.
    let steps = interleave(conns, false);
    let mut times = Vec::with_capacity(steps.len());
    let mut answered_at = Vec::with_capacity(steps.len());
    let mut answers: Vec<(&Step, String)> = Vec::with_capacity(steps.len());
    let mut dead = vec![false; conns.len()];
    let mut answer = String::new();
    let mut paused = Duration::ZERO;
    let mut pauses = (1..setups).map(|k| k * steps.len() / setups).peekable();
    let start = Instant::now();
    for (i, &(c, step)) in steps.iter().enumerate() {
        if pauses.next_if_eq(&i).is_some() {
            let t0 = Instant::now();
            let (extra, mut extra_clients, s) = set_up(bin, conns)?;
            let via = extra_clients.remove(0);
            extra.shutdown(via, extra_clients)?;
            setup_s.push(s);
            paused += t0.elapsed();
        }
        if dead[c] {
            continue; // the rest of a broken connection count as failed
        }
        match clients[c].roundtrip(&step.line, &mut answer) {
            Ok(d) => {
                times.push((step.kind, d));
                answered_at.push(start.elapsed() - paused);
                answers.push((step, std::mem::take(&mut answer)));
            }
            Err(_) => dead[c] = true,
        }
    }
    let wall = start.elapsed() - paused;
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(f64::NAN);
    let via = clients.remove(0);
    let mut problems = Vec::new();
    if let Err(e) = server.shutdown(via, clients) {
        problems.push(e);
    }

    let attempted = steps.len();
    let mut failed = attempted - answers.len();
    // Identical request and answer lines recur (reads between two
    // edits); each distinct pair is checked once.
    let mut passed = std::collections::HashSet::new();
    for (step, answer) in &answers {
        if passed.contains(&(step.line.as_str(), answer.as_str())) {
            continue;
        }
        if let Err(e) = check_line(answer, &step.expect) {
            if failed < 3 {
                eprintln!("perfbench: wrong answer: {e}");
            }
            failed += 1;
        } else {
            passed.insert((step.line.as_str(), answer.as_str()));
        }
    }
    Ok(Outcome {
        setup_s,
        latencies: times,
        answered_at,
        wall,
        peak_rss_mb,
        attempted,
        failed,
        problems,
    })
}

/// Median round trip of the cheapest line the server answers — a
/// `type-of` on a document that is not open — over `n` lines, in µs.
pub fn rtt_us(bin: &Path, n: usize) -> Result<f64, String> {
    let server = Server::spawn(bin)?;
    let mut client = server.connect()?;
    let line = "{\"cmd\":\"type-of\",\"doc\":\"none\",\"name\":\"x\"}\n";
    let mut answer = String::new();
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let d = client
            .roundtrip(line, &mut answer)
            .map_err(|e| e.to_string())?;
        if !answer.contains("unknown document") {
            return Err(format!("unexpected answer to the probe line: {answer}"));
        }
        times.push(d.as_secs_f64() * 1e6);
    }
    server.shutdown(client, Vec::new())?;
    Ok(crate::quantile(&mut times, 0.5))
}
