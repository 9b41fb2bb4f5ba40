//! Building, starting and stopping the `cornetd` under test.

use crate::http;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where runs keep their daemon state directories (inside the checkout).
pub const RUN_DIR: &str = ".bench_run";

/// Build `cornetd` from the checkout's sources and return its path.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "cornetd"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cornetd failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("cornetd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cornetd not found at {}", bin.display()))
    }
}

/// A running daemon with a fresh state directory.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    state_dir: PathBuf,
}

impl Daemon {
    /// Start `bin` with default flags on `127.0.0.1:0`; returns the daemon
    /// and the seconds from spawn to its "listening" line.
    fn start(bin: &Path, state_dir: PathBuf) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(state_dir.parent().unwrap_or(Path::new(".")))
            .map_err(|e| format!("creating {}: {e}", RUN_DIR))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(&state_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning cornetd: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("cornetd exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("cornetd listening on ") {
                let setup_s = started.elapsed().as_secs_f64();
                let Ok(addr) = addr.parse() else {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("bad listen address {addr:?}"));
                };
                let daemon = Daemon {
                    child,
                    stdout,
                    addr,
                    state_dir,
                };
                return Ok((daemon, setup_s));
            }
        }
    }

    /// Start a daemon on a state directory of its own; pushes its
    /// spawn-to-listening seconds onto `setup_s`.
    pub fn start_fresh(bin: &Path, setup_s: &mut Vec<f64>) -> Result<Daemon, String> {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(RUN_DIR).join(format!("cornetd-{}-{n}", std::process::id()));
        let (daemon, secs) = Daemon::start(bin, dir)?;
        setup_s.push(secs);
        Ok(daemon)
    }

    /// Start and stop `reps` daemons: extra set-up samples for a steady
    /// `setup_s` median.
    pub fn warm_up(bin: &Path, reps: usize, setup_s: &mut Vec<f64>) -> Result<(), String> {
        for _ in 0..reps {
            Daemon::start_fresh(bin, setup_s)?.stop()?;
        }
        Ok(())
    }

    /// Whether the process is still running.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Peak resident set size of the daemon, in MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        crate::report::vm_hwm_mb(&self.child.id().to_string())
    }

    /// `POST /v1/shutdown`, then wait for the process to exit and remove
    /// its state directory.
    pub fn stop(mut self) -> Result<(), String> {
        let sent = http::request(self.addr, "POST", "/v1/shutdown", None, "");
        let deadline = Instant::now() + Duration::from_secs(90);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).unwrap_or(0) > 0 {}
        let result = match (sent, exited) {
            (Ok(r), Some(status)) if r.status == 202 && status.success() => Ok(()),
            (Ok(r), _) if r.status != 202 => Err(format!("shutdown answered {}", r.status)),
            (Err(e), _) => Err(format!("shutdown: {e}")),
            (_, status) => Err(format!("cornetd did not exit cleanly ({status:?})")),
        };
        let _ = std::fs::remove_dir_all(&self.state_dir);
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}
