//! The server child process and the set-up time measured on it.

use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use trustseq_dist::net::{Addr, Conn};

use crate::client::stats_roundtrip;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// A running `svcbench-server` process. Dropping it kills the process if
/// [`stop`](Self::stop) was not called.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Where it listens.
    pub addr: Addr,
}

/// The server binary, built next to this one.
pub fn server_exe() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let server = exe.with_file_name("svcbench-server");
    if server.is_file() {
        Ok(server)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} not found; build the svcbench package", server.display()),
        ))
    }
}

impl ServerProc {
    /// Starts the server, connects, tells it to start accepting, and waits
    /// for its first `stats` reply. Returns the process, that connection
    /// (kept for `stats` frames) and the set-up time: spawn until the
    /// reply, which the server sends only once its population is built and
    /// it is serving.
    pub fn spawn(exe: &Path) -> io::Result<(ServerProc, Conn, Duration)> {
        let t0 = Instant::now();
        let child = Command::new(exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        // Owned by `proc` from here on, so every early return kills it.
        let mut proc = ServerProc {
            child,
            addr: Addr::Tcp(String::new()),
        };
        let mut line = String::new();
        let stdout = proc.child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line)?;
        proc.addr = line
            .trim()
            .parse()
            .map_err(|e| io::Error::other(format!("server printed {line:?}: {e}")))?;
        let mut conn = Conn::connect(&proc.addr, CONNECT_TIMEOUT)?;
        let stdin = proc.child.stdin.as_mut().expect("stdin is piped");
        stdin.write_all(b"go\n")?;
        stdin.flush()?;
        stats_roundtrip(&mut conn, 0)?;
        Ok((proc, conn, t0.elapsed()))
    }

    /// The process id, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Closes the server's standard input, its stop signal, and waits for
    /// it to drain and exit cleanly.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
