//! `benes-serve` daemons as child processes on ephemeral loopback ports.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use benes_serve::{Client, Frame};

/// A running daemon. Dropping it kills and reaps the process if it is
/// still running, so no error path leaks one.
pub struct Daemon {
    child: Option<Child>,
    /// Keeps the daemon's stdout pipe drained; ends at its EOF.
    stdout: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
}

/// The `benes-serve` cargo built beside this executable: in the same
/// directory, or one up for a unit-test executable (cargo puts those in
/// `deps/`).
fn daemon_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benes-serve: {e}"))?;
    let name = format!("benes-serve{}", std::env::consts::EXE_SUFFIX);
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join(&name))
        .find(|p| p.is_file())
        .ok_or_else(|| {
            format!(
                "no {name} beside {}: build it with `cargo build -p benes-serve`",
                exe.display()
            )
        })
}

impl Daemon {
    /// Spawns `benes-serve --threads 1 --workers 1 --allow-drain` on an
    /// ephemeral port and waits for its `listening on` line.
    pub fn spawn() -> Result<Self, String> {
        let path = daemon_path()?;
        let mut child = Command::new(&path)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--workers",
                "1",
                "--allow-drain",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", path.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Self { child: Some(child), stdout: None, addr: String::new() };
        let mut lines = BufReader::new(stdout).lines();
        daemon.addr = lines
            .next()
            .and_then(Result::ok)
            .and_then(|l| l.strip_prefix("listening on ").map(str::to_string))
            .ok_or("benes-serve exited before it was listening")?;
        daemon.stdout = Some(std::thread::spawn(move || lines.for_each(drop)));
        Ok(daemon)
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Stops the daemon over the wire with a `Drain` frame and checks
    /// that it acknowledges and exits with status 0.
    pub fn drain(mut self) -> Result<(), String> {
        let mut client =
            Client::connect(&self.addr).map_err(|e| format!("connect for drain: {e}"))?;
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("drain read timeout: {e}"))?;
        client.send(&Frame::Drain).map_err(|e| format!("send drain: {e}"))?;
        match client.recv() {
            Ok(Frame::StatsReply { .. }) => {}
            other => return Err(format!("drain not acknowledged: {other:?}")),
        }
        drop(client);
        self.wait_exit(Duration::from_secs(15))
    }

    /// Waits for a daemon that was told to stop (by `drain` or by a
    /// fleet drain) and checks its exit status.
    pub fn wait_exit(&mut self, budget: Duration) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon waited once");
        let until = Instant::now() + budget;
        let verdict = loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break Ok(()),
                Ok(Some(status)) => break Err(format!("benes-serve exited with {status}")),
                Ok(None) if Instant::now() < until => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    kill(&mut child);
                    break Err("benes-serve did not exit after drain".into());
                }
                Err(e) => {
                    kill(&mut child);
                    break Err(format!("wait for benes-serve: {e}"));
                }
            }
        };
        self.join_stdout();
        verdict
    }

    fn join_stdout(&mut self) {
        if let Some(t) = self.stdout.take() {
            // The drain thread only reads a pipe; it cannot panic.
            let _ = t.join();
        }
    }
}

fn kill(child: &mut Child) {
    // The process may already be gone; reaping is what matters.
    let _ = child.kill();
    let _ = child.wait();
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            kill(child);
        }
        self.join_stdout();
    }
}
