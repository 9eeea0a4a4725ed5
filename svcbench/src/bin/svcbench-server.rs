//! The benchmark's server process: a `trustseq_service::Server` with the
//! configuration of [`svcbench::workload::server_config`], on an ephemeral
//! loopback port.
//!
//! Prints the bound address as its first line of output, then waits for a
//! line on its standard input (the load generator's sign that it has
//! connected) before it starts accepting; serves until its standard input
//! closes, then drains and exits. Waiting keeps the accept loop's 10 ms
//! idle poll out of the measured set-up time: the first connection is
//! already waiting when the loop starts, instead of arriving just after it
//! went to sleep in some spawns and just before in others. It uses the
//! system allocator, so none of the load generator's instrumentation runs
//! inside the measured process.

use std::io::{BufRead, Read, Write};

use trustseq_service::Server;

fn main() -> std::io::Result<()> {
    let server = Server::bind(svcbench::workload::server_config())?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", server.local_addr())?;
    out.flush()?;
    drop(out);
    if std::io::stdin().lock().read_line(&mut String::new())? == 0 {
        return Ok(()); // stdin closed before the go-ahead: nothing to serve
    }
    let handle = server.handle();
    let watcher = std::thread::spawn(move || {
        // EOF (or a read error) on stdin is the parent's stop signal.
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        handle.shutdown();
    });
    server.run()?;
    watcher.join().expect("stdin watcher panicked");
    Ok(())
}
