//! The load generator: one load connection driven closed-loop (`sat`) or
//! open-loop (`rate`), and one connection for `stats` frames.
//!
//! The client runs at most two threads: the closed loop writes and reads
//! from one thread, the open loop adds a reader so that sends stay on
//! schedule while replies are outstanding. Nothing is verified on the
//! clock; replies are only recorded.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use trustseq_dist::net::{encode_frame, Conn, FrameDecoder};
use trustseq_dist::{ServiceReply, ServiceRequest, ServiceStats};

use crate::verify::Reply;
use crate::workload::{Entry, Stream};

/// Outstanding requests in the closed loop: four of the server's
/// 64-request worker batches, so the worker always finds a full batch.
/// At one batch, goodput swung between batching regimes and spread three
/// to four times as much between runs.
pub const WINDOW: usize = 256;
/// Most requests the open loop keeps unanswered: half the server's 1024
/// queue slots. A request due while this many are open waits until a reply
/// frees a slot and is still timed from its due time, so a stall is
/// charged in full; without the cap a host stall of a few tens of
/// milliseconds at the offered rate filled the queue and the server shed
/// requests.
pub const MAX_IN_FLIGHT: usize = 512;
/// A reply gap this long ends a phase; requests still open are unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// `stats` sampling period of the open loop.
const SAMPLE_EVERY_NS: u64 = 10_000_000;
/// Lead time before the first open-loop request is due, so the reader
/// thread is already waiting.
const START_NS: u64 = 2_000_000;

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The request frame for `entry` under `seq`.
fn frame(entry: &Entry, seq: u64, pool: &[String]) -> io::Result<Vec<u8>> {
    encode_frame(&entry.request(seq, pool).to_wire()).map_err(invalid)
}

/// Records one reply frame into `replies` (indexed by `seq - first_seq`).
fn record(frame: &str, first_seq: u64, replies: &mut [Reply]) -> io::Result<usize> {
    let reply = ServiceReply::from_wire(frame).map_err(invalid)?;
    let index = reply
        .seq()
        .checked_sub(first_seq)
        .map(|i| i as usize)
        .filter(|&i| i < replies.len())
        .ok_or_else(|| invalid(format!("reply to unknown seq {}", reply.seq())))?;
    if replies[index] != Reply::Missing {
        return Err(invalid(format!("second reply to seq {}", reply.seq())));
    }
    replies[index] =
        Reply::of(&reply).ok_or_else(|| invalid("stats reply on the load connection"))?;
    Ok(index)
}

/// A window boundary the closed loop passed.
#[derive(Debug, Clone, Copy)]
pub struct Mark<T> {
    /// Time since the phase began.
    pub at: Duration,
    /// Replies received so far.
    pub answered: u64,
    /// Of which verdicts (not rejections).
    pub verdicts: u64,
    /// The caller's probe, taken at the boundary.
    pub probe: T,
}

/// What a closed-loop phase saw.
#[derive(Debug)]
pub struct ClosedLoop<T> {
    /// Replies, indexed by request order.
    pub replies: Vec<Reply>,
    /// `windows + 1` boundaries: the start, then the end of each window.
    pub marks: Vec<Mark<T>>,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Reply bytes read.
    pub bytes_in: u64,
    /// `read` calls that returned data.
    pub reads: u64,
}

/// Keeps [`WINDOW`] requests from `stream` outstanding on `conn` for
/// `duration`, then waits for the open ones. The duration is cut into
/// `windows` equal windows; `probe` runs at each boundary (for CPU times)
/// and its result is kept with the reply counts.
pub fn closed_loop<T>(
    conn: &mut Conn,
    stream: &mut Stream,
    pool: &[String],
    first_seq: u64,
    duration: Duration,
    windows: u32,
    mut probe: impl FnMut() -> io::Result<T>,
) -> io::Result<ClosedLoop<T>> {
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut replies: Vec<Reply> = Vec::with_capacity(1 << 20);
    let mut decoder = FrameDecoder::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut wbuf: Vec<u8> = Vec::with_capacity(WINDOW * 64);
    let (mut bytes_out, mut bytes_in, mut reads) = (0u64, 0u64, 0u64);
    let (mut answered, mut verdicts) = (0u64, 0u64);
    let mut outstanding = 0usize;
    let start = Instant::now();
    let mut marks = vec![Mark {
        at: Duration::ZERO,
        answered,
        verdicts,
        probe: probe()?,
    }];
    let mut next_mark = duration / windows;
    loop {
        let now = start.elapsed();
        if now >= next_mark && marks.len() <= windows as usize {
            marks.push(Mark {
                at: now,
                answered,
                verdicts,
                probe: probe()?,
            });
            next_mark = duration * marks.len() as u32 / windows;
        }
        if marks.len() <= windows as usize {
            while outstanding < WINDOW {
                let seq = first_seq + replies.len() as u64;
                let entry = stream.next().expect("streams are endless");
                wbuf.extend_from_slice(&frame(&entry, seq, pool)?);
                replies.push(Reply::Missing);
                outstanding += 1;
            }
            conn.write_all(&wbuf)?;
            bytes_out += wbuf.len() as u64;
            wbuf.clear();
        }
        if outstanding == 0 {
            break;
        }
        let n = match conn.read(&mut rbuf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        };
        reads += 1;
        bytes_in += n as u64;
        decoder.push(&rbuf[..n]);
        while let Some(f) = decoder.next_frame().map_err(invalid)? {
            let i = record(&f, first_seq, &mut replies)?;
            answered += 1;
            verdicts += u64::from(!matches!(replies[i], Reply::Rejected(_)));
            outstanding -= 1;
        }
    }
    Ok(ClosedLoop {
        replies,
        marks,
        bytes_out,
        bytes_in,
        reads,
    })
}

/// What an open-loop phase saw.
#[derive(Debug)]
pub struct OpenLoop<T> {
    /// Replies, indexed by request order.
    pub replies: Vec<Reply>,
    /// Per request: reply arrival minus due time, in µs; `INFINITY` when
    /// no verdict came back.
    pub latency_us: Vec<f64>,
    /// Per request: how late the generator sent it, in µs, including any
    /// wait for a slot under [`MAX_IN_FLIGHT`].
    pub lag_us: Vec<f64>,
    /// Largest server queue depth seen by the `stats` samples.
    pub depth_max: u32,
    /// The caller's probe at each window boundary: `windows + 1` values.
    pub marks: Vec<T>,
}

/// Periodic `stats` sampling on the second connection, never blocking the
/// open loop's sender: the socket is non-blocking and each sample's reply
/// is collected at a later poll.
struct Sampler<'a> {
    conn: &'a mut Conn,
    decoder: FrameDecoder,
    buf: Vec<u8>,
    next_ns: u64,
    seq: u64,
    depth_max: u32,
}

impl Sampler<'_> {
    fn poll(&mut self, now_ns: u64) -> io::Result<()> {
        loop {
            match self.conn.read(&mut self.buf) {
                Ok(0) => return Err(io::Error::other("stats connection closed")),
                Ok(n) => self.decoder.push(&self.buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        while let Some(f) = self.decoder.next_frame().map_err(invalid)? {
            if let ServiceReply::Stats { stats, .. } =
                ServiceReply::from_wire(&f).map_err(invalid)?
            {
                self.depth_max = self.depth_max.max(stats.queue_depth);
            }
        }
        if now_ns >= self.next_ns {
            self.next_ns = now_ns + SAMPLE_EVERY_NS;
            self.seq += 1;
            let req = encode_frame(&ServiceRequest::Stats { seq: self.seq }.to_wire())
                .map_err(invalid)?;
            match self.conn.write(&req) {
                Ok(n) if n == req.len() => {}
                Ok(_) => return Err(io::Error::other("partial stats frame write")),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Sends `entries` on `conn` at `rate` requests per second, each at its
/// due time regardless of replies (unless [`MAX_IN_FLIGHT`] are open), and
/// times every reply from its due time. With `stats`, samples the server's
/// queue depth on that connection every 10 ms. The entries are cut into `windows` equal runs
/// (the last takes the remainder); `probe` runs when each run's first
/// request is due and once more after the last is sent.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<T>(
    conn: &mut Conn,
    stats: Option<&mut Conn>,
    entries: &[Entry],
    pool: &[String],
    first_seq: u64,
    rate: f64,
    windows: u32,
    mut probe: impl FnMut() -> io::Result<T>,
) -> io::Result<OpenLoop<T>> {
    let n = entries.len();
    let window_size = (n / windows.max(1) as usize).max(1);
    let mut marks = Vec::with_capacity(windows as usize + 1);
    // Off the clock: every frame is encoded before the first is due.
    let mut frames: Vec<u8> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(n);
    for (i, entry) in entries.iter().enumerate() {
        frames.extend_from_slice(&frame(entry, first_seq + i as u64, pool)?);
        ends.push(frames.len());
    }
    let due_ns = |i: usize| START_NS + (i as f64 * 1e9 / rate) as u64;
    let mut sampler = match stats {
        Some(conn) => {
            set_nonblocking(conn, true)?;
            Some(Sampler {
                conn,
                decoder: FrameDecoder::new(),
                buf: vec![0u8; 4096],
                next_ns: 0,
                seq: 0,
                depth_max: 0,
            })
        }
        None => None,
    };
    let mut reader = conn.try_clone()?;
    reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut lag_us = prefaulted(n, 0.0);
    let answered = AtomicUsize::new(0);
    let t0 = Instant::now();

    let (replies, arrived_ns) = std::thread::scope(|scope| -> io::Result<_> {
        let answered = &answered;
        let rx = scope.spawn(move || -> io::Result<(Vec<Reply>, Vec<u64>)> {
            let mut replies = prefaulted(n, Reply::Missing);
            let mut arrived = prefaulted(n, 0u64);
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 64 << 10];
            let mut got = 0;
            while got < n {
                let len = match reader.read(&mut buf) {
                    Ok(0) => break,
                    Ok(len) => len,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        break
                    }
                    Err(e) => return Err(e),
                };
                let now = t0.elapsed().as_nanos() as u64;
                decoder.push(&buf[..len]);
                while let Some(f) = decoder.next_frame().map_err(invalid)? {
                    arrived[record(&f, first_seq, &mut replies)?] = now;
                    got += 1;
                }
                answered.store(got, Ordering::Release);
            }
            Ok((replies, arrived))
        });

        let mut i = 0;
        let mut send_error = None;
        while i < n {
            let now = t0.elapsed().as_nanos() as u64;
            if let Some(s) = sampler.as_mut() {
                s.poll(now)?;
            }
            let due = due_ns(i);
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
                continue;
            }
            let open_until = answered.load(Ordering::Acquire) + MAX_IN_FLIGHT;
            if i >= open_until {
                if rx.is_finished() {
                    // The reader gave up: nothing more will be answered,
                    // and what is left unsent counts as unanswered.
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            let first = i;
            while i < n && i < open_until && due_ns(i) <= now {
                if marks.len() < windows as usize && i == marks.len() * window_size {
                    marks.push(probe()?);
                }
                lag_us[i] = (now - due_ns(i)) as f64 / 1e3;
                i += 1;
            }
            let from = if first == 0 { 0 } else { ends[first - 1] };
            if let Err(e) = conn.write_all(&frames[from..ends[i - 1]]) {
                send_error = Some(e);
                break;
            }
        }
        if send_error.is_some() {
            // Unblock the reader: nothing more will be answered.
            let _ = conn.shutdown();
        } else {
            marks.push(probe()?);
        }
        let received = rx.join().expect("reader thread panicked")?;
        match send_error {
            Some(e) => Err(e),
            None => Ok(received),
        }
    })?;

    let latency_us = (0..n)
        .map(|i| match replies[i] {
            Reply::Verdict { .. } | Reply::Event { .. } => {
                arrived_ns[i].saturating_sub(due_ns(i)) as f64 / 1e3
            }
            Reply::Missing | Reply::Rejected(_) => f64::INFINITY,
        })
        .collect();
    let depth_max = match sampler {
        Some(s) => {
            set_nonblocking(s.conn, false)?;
            s.depth_max
        }
        None => 0,
    };
    Ok(OpenLoop {
        replies,
        latency_us,
        lag_us,
        depth_max,
        marks,
    })
}

/// A vector of `n` copies of `value` whose pages are already written, so
/// no page fault lands inside a timed phase.
fn prefaulted<T: Clone>(n: usize, value: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, value);
    v
}

fn set_nonblocking(conn: &Conn, on: bool) -> io::Result<()> {
    match conn {
        Conn::Tcp(s) => s.set_nonblocking(on),
        #[cfg(unix)]
        Conn::Unix(s) => s.set_nonblocking(on),
    }
}

/// One blocking `stats` round trip on `conn`.
pub fn stats_roundtrip(conn: &mut Conn, seq: u64) -> io::Result<ServiceStats> {
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let req = encode_frame(&ServiceRequest::Stats { seq }.to_wire()).map_err(invalid)?;
    conn.write_all(&req)?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::other("server closed before the stats reply"));
        }
        decoder.push(&buf[..n]);
        while let Some(f) = decoder.next_frame().map_err(invalid)? {
            if let ServiceReply::Stats { seq: s, stats } =
                ServiceReply::from_wire(&f).map_err(invalid)?
            {
                if s == seq {
                    return Ok(stats);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_dist::net::{Addr, Listener};

    /// A stand-in server that answers every request with a verdict at
    /// once, except that it stops reading for `stall` once it has seen
    /// request `stall_at`. It returns the most requests it ever saw open:
    /// received (up to and including the newest) minus answered.
    fn stalling_server(stall_at: u64, stall: Duration) -> (Addr, std::thread::JoinHandle<u64>) {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 4096];
            let mut stalled = false;
            let (mut written, mut most_open) = (0u64, 0u64);
            loop {
                let n = match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return most_open,
                    Ok(n) => n,
                };
                decoder.push(&buf[..n]);
                let mut out = Vec::new();
                let mut answered = 0;
                while let Some(f) = decoder.next_frame().unwrap() {
                    let seq = ServiceRequest::from_wire(&f).unwrap().seq();
                    most_open = most_open.max(seq + 1 - written);
                    if seq >= stall_at && !stalled {
                        stalled = true;
                        std::thread::sleep(stall);
                    }
                    let reply = ServiceReply::Verdict {
                        seq,
                        feasible: true,
                        remaining: 0,
                        remaining_red: 0,
                    };
                    out.extend_from_slice(&encode_frame(&reply.to_wire()).unwrap());
                    answered += 1;
                }
                if conn.write_all(&out).is_err() {
                    return most_open;
                }
                written += answered;
            }
        });
        (addr, handle)
    }

    /// A server stall is charged to every request due after it began,
    /// measured from its due time, while the sender keeps its schedule.
    #[test]
    fn open_loop_charges_a_stall_to_every_later_request() {
        let stall_at = 100u64;
        let stall = Duration::from_millis(60);
        let (addr, server) = stalling_server(stall_at, stall);
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let rate = 10_000.0; // one request every 100 µs: 40 ms of schedule
        let entries = vec![Entry::Analyze { id: 0 }; 400];
        let run = open_loop(&mut conn, None, &entries, &[], 0, rate, 4, || Ok(())).unwrap();
        drop(conn);
        assert!(server.join().unwrap() <= MAX_IN_FLIGHT as u64);

        assert!(run.replies.iter().all(|r| *r != Reply::Missing));
        assert_eq!(run.marks.len(), 5);
        // The stall began no earlier than request `stall_at` was due and
        // lasted `stall`, so request i cannot have been answered before
        // due(stall_at) + stall: its latency is at least that minus due(i).
        let due_us = |i: usize| i as f64 * 1e6 / rate;
        let stall_end_us = due_us(stall_at as usize) + stall.as_secs_f64() * 1e6;
        for (i, &lat) in run.latency_us.iter().enumerate().skip(stall_at as usize) {
            let floor = stall_end_us - due_us(i);
            assert!(lat >= floor, "request {i}: {lat} µs < {floor} µs");
        }
        // The whole schedule fits inside the stall, so the last request
        // waited at least the stall's tail from its own due time.
        assert!(run.latency_us[399] >= stall_end_us - due_us(399));
        // Sending stayed on schedule: the generator was not blocked by
        // the stalled server.
        let mut lag = run.lag_us.clone();
        crate::stats::sort(&mut lag);
        assert!(crate::stats::percentile(&lag, 0.5) < 5_000.0, "lag {lag:?}");
    }

    /// A stall longer than the in-flight cap covers holds the sender at
    /// [`MAX_IN_FLIGHT`] open requests, so the server never holds more,
    /// and the held requests are still charged from their due times.
    #[test]
    fn open_loop_holds_at_most_the_in_flight_cap() {
        let stall_at = 100u64;
        let stall = Duration::from_millis(60);
        let (addr, server) = stalling_server(stall_at, stall);
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let rate = 20_000.0; // 1 200 requests fall due during the stall
        let entries = vec![Entry::Analyze { id: 0 }; 2_000];
        let run = open_loop(&mut conn, None, &entries, &[], 0, rate, 4, || Ok(())).unwrap();
        drop(conn);
        let most_open = server.join().unwrap();

        assert!(run.replies.iter().all(|r| *r != Reply::Missing));
        assert!(most_open <= MAX_IN_FLIGHT as u64, "{most_open} open");
        // Request `held` cannot go out before the reply to `stall_at`, which
        // the server writes after its stall: it is sent late by at least
        // the rest of the stall, and that lateness is in its latency.
        let due_us = |i: usize| i as f64 * 1e6 / rate;
        let stall_end_us = due_us(stall_at as usize) + stall.as_secs_f64() * 1e6;
        let held = stall_at as usize + MAX_IN_FLIGHT;
        assert!(run.lag_us[held] >= stall_end_us - due_us(held), "{}", run.lag_us[held]);
        assert!(run.latency_us[held] >= run.lag_us[held]);
    }

    /// A server that stops answering leaves the sender at the cap; it
    /// returns once the reader gives up, with the rest unanswered.
    #[test]
    fn open_loop_ends_when_the_server_stops_answering() {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = vec![0u8; 4096];
            while matches!(conn.read(&mut buf), Ok(n) if n > 0) {}
        });
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let entries = vec![Entry::Analyze { id: 0 }; MAX_IN_FLIGHT + 100];
        let run = open_loop(&mut conn, None, &entries, &[], 0, 100_000.0, 1, || Ok(())).unwrap();
        drop(conn);
        server.join().unwrap();
        assert!(run.replies.iter().all(|r| *r == Reply::Missing));
        assert!(run.latency_us.iter().all(|l| l.is_infinite()));
    }
}
