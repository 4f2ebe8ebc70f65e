//! A server that has served many short sessions holds on to none of their
//! threads. A session thread that returned but was never joined keeps its
//! stack mapped, so address space would grow by about one stack per
//! connection ever served. That test runs in a process of its own, so no
//! other suite's threads share the address space it measures. Its one
//! sibling here starts no server thread, and the two never run at once
//! (`ONE_AT_A_TIME`): a thread that first allocates while the address
//! space is being measured can map a fresh allocator arena (64 MiB with
//! glibc), which reads as leaked session stacks.

use tqo_exec::SchedulerConfig;
use tqo_serve::{serve, Client, ServerConfig};
use tqo_storage::paper;

static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The process's virtual memory size in KiB (`VmSize` in
/// `/proc/self/status`), or `None` where procfs does not provide it.
fn vm_size_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmSize:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
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
    let Some(before) = vm_size_kib() else {
        eprintln!("no /proc/self/status here; nothing to measure");
        return;
    };
    connect_ping_close(server.addr(), 200);
    let after = vm_size_kib().expect("VmSize was readable a moment ago");
    server.stop();
    // Each unjoined session keeps a thread stack (2 MiB by default)
    // mapped: 200 of them grow the address space by about 400 MiB. A
    // handful of sessions still closing when the second reading is taken
    // fit well inside the bound.
    let grown_mib = after.saturating_sub(before) / 1024;
    assert!(
        grown_mib < 64,
        "address space grew {grown_mib} MiB over 200 closed sessions ({before} → {after} KiB)"
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
