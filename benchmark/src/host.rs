//! Host facts written beside the numbers, so they read correctly later.

use std::path::Path;

use crate::json::Json;

/// Cores the process may run on (1 when the host will not say).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), if `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Forget the peak so far: `VmHWM` restarts from the current resident
/// set (`clear_refs` code 5). Where the kernel refuses, the peak stays
/// process-wide and every window reports the same value.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Kernel clock ticks per second, as `/proc` reports times. Fixed by the
/// Linux user-space ABI.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads, ended
/// ones included. Unlike wall time it does not count the time a
/// hypervisor gave the core to someone else.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; the rest follows its ')'.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// System-wide `(busy, stolen)` CPU seconds since boot, from the first
/// line of `/proc/stat`: time the guest's cores ran something, and time
/// they wanted to run but the hypervisor ran someone else.
pub fn system_cpu_s() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let busy = ticks.first()? + ticks.get(1)? + ticks.get(2)? + ticks.get(5)? + ticks.get(6)?;
    Some((busy / CLK_TCK, ticks.get(7)? / CLK_TCK))
}

/// Write `doc` to `dir/name`, creating `dir`. The numbers are already on
/// stdout, so a read-only checkout only loses the detail file.
pub fn write_json(dir: &Path, name: &str, doc: &Json) {
    let path = dir.join(name);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
