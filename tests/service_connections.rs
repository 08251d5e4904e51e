//! Connection handling of the job daemon: thousands of short connections
//! must leave the process's memory maps where they were. A connection
//! handler thread that exits without releasing its stack keeps two maps
//! (stack and guard page), which `/proc/self/maps` shows. The test has a
//! file of its own, so no concurrently running test adds maps to the
//! count.
#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::time::Duration;

use dualphase_als::serve::{Client, Daemon, DaemonConfig};

/// 2000 sequential connections, alternating a plain-HTTP probe and a
/// line-protocol status call, are all answered and add fewer than 500
/// maps (a leaked handler per connection would add about 4000); shutdown
/// then returns.
#[test]
fn short_connections_do_not_grow_memory_maps() {
    let maps = || std::fs::read_to_string("/proc/self/maps").unwrap().lines().count();
    let dir = std::env::temp_dir().join(format!("als-service-conns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DaemonConfig::new(&dir);
    cfg.runners = 1;
    let daemon = Daemon::start(cfg).unwrap();
    let client = Client::new(daemon.addr().to_string());

    let before = maps();
    for i in 0..2000 {
        if i % 2 == 0 {
            assert_eq!(client.http_get("/healthz").unwrap(), "ok\n", "request {i}");
        } else {
            assert_eq!(client.status("j-999999").unwrap_err().code, "not_found", "request {i}");
        }
    }
    let grown = maps().saturating_sub(before);
    assert!(grown < 500, "2000 connections added {grown} memory maps");

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(daemon.shutdown().is_ok()));
    assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Ok(true), "shutdown must return");
    let _ = std::fs::remove_dir_all(&dir);
}
