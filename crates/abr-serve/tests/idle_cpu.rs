//! Idle-CPU guard: a server whose only client is connected but silent
//! must sit still between its idle waits, not spin. CPU time is read from
//! `/proc/self/stat`, which covers every thread of the process, so this
//! test lives in its own binary with nothing else running beside it.
#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used)]

use abr_serve::protocol::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use abr_serve::store::dataset_provider;
use abr_serve::{loadgen, Server, ServerConfig};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat`'s time fields (`USER_HZ`,
/// 100 on every Linux architecture this builds for).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process so far, in seconds.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, so utime (14) and stime (15) are at 11 and 12.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().unwrap();
    let stime: u64 = fields[12].parse().unwrap();
    (utime + stime) as f64 / USER_HZ
}

#[test]
fn an_idle_server_uses_under_five_percent_of_a_core() {
    // The shipped defaults (thread count, poll interval, deadlines), so
    // this measures what an idle `cava serve` costs.
    let bound = Server::bind("127.0.0.1:0", ServerConfig::default(), dataset_provider()).unwrap();
    let addr = bound.addr();
    let server = thread::spawn(move || bound.serve());

    let mut client = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut client,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut client).unwrap(),
        Frame::HelloOk { .. }
    ));
    // Let every reactor thread run out of work first.
    thread::sleep(Duration::from_millis(200));

    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    thread::sleep(Duration::from_secs(1));
    let cpu = process_cpu_s() - cpu0;
    let wall = t0.elapsed().as_secs_f64();
    let share = cpu / wall;

    drop(client);
    loadgen::shutdown_server(addr).unwrap();
    server.join().unwrap();
    eprintln!(
        "idle server: {:.1}% of a core ({cpu:.2} s CPU in {wall:.2} s)",
        share * 100.0
    );
    assert!(share < 0.05, "idle server used more than 5% of a core");
}
