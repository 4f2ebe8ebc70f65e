//! A server that has served many short sessions holds on to none of their
//! threads. Two leaks are told apart, and each reading is a count, not a
//! size, so an allocator arena that a thread maps while the test measures
//! (64 MiB of address space with glibc) does not read as a leak:
//!
//! - a session thread that never returns stays in `/proc/self/task`;
//! - a session thread that returned but was never joined has left
//!   `/proc/self/task`, yet keeps its stack and guard page mapped, two
//!   entries in `/proc/self/maps` per connection ever served.
//!
//! The test runs in a process of its own, so no other suite's threads
//! share what it counts, and its one sibling here, which starts no server
//! thread, never runs at the same time (`ONE_AT_A_TIME`).

use tqo_exec::SchedulerConfig;
use tqo_serve::{serve, Client, ServerConfig};
use tqo_storage::paper;

static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Threads alive in this process, or `None` where procfs does not list
/// them.
fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// Memory mappings of this process, or `None` where procfs does not list
/// them.
fn mapping_count() -> Option<usize> {
    Some(
        std::fs::read_to_string("/proc/self/maps")
            .ok()?
            .lines()
            .count(),
    )
}

fn connect_ping_close(addr: std::net::SocketAddr, cycles: usize) {
    for _ in 0..cycles {
        let mut client = Client::connect(addr).expect("connect");
        client.ping().expect("ping");
    }
}

#[test]
fn closed_sessions_release_their_threads() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut server = serve(
        paper::catalog(),
        ServerConfig {
            scheduler: SchedulerConfig {
                workers: 1,
                max_queries: 4,
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    // Warm up: the first sessions pay one-time allocator and pool costs.
    connect_ping_close(server.addr(), 10);
    let (Some(threads), Some(mappings)) = (thread_count(), mapping_count()) else {
        eprintln!("no /proc/self/task or /proc/self/maps here; nothing to count");
        return;
    };
    connect_ping_close(server.addr(), 200);
    let threads_after = thread_count().expect("procfs was readable a moment ago");
    let mappings_after = mapping_count().expect("procfs was readable a moment ago");
    server.stop();
    // A handful of sessions may still be closing when the second readings
    // are taken, and a new allocator arena is one or two mappings; a leak
    // is one thread, or two mappings, per each of the 200 sessions.
    let grown = threads_after.saturating_sub(threads);
    assert!(
        grown < 16,
        "{grown} more threads after 200 closed sessions ({threads} → {threads_after})"
    );
    let grown = mappings_after.saturating_sub(mappings);
    assert!(
        grown < 100,
        "{grown} more mappings after 200 closed sessions ({mappings} → {mappings_after})"
    );
}

#[test]
fn a_server_without_workers_is_refused() {
    // With no worker no query would ever run: every `QueryHandle::wait`
    // would block, and `Server::stop` would wait on that session forever.
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let refused = serve(
        paper::catalog(),
        ServerConfig {
            scheduler: SchedulerConfig {
                workers: 0,
                max_queries: 4,
            },
            ..ServerConfig::default()
        },
    );
    assert!(matches!(refused, Err(tqo_core::Error::Unsupported { .. })));
}
