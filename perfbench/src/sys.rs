//! Process and filesystem probes read from `/proc` and the store
//! directory.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat` CPU times (`CLK_TCK`,
/// 100 on every Linux configuration this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).expect("read a /proc stat file");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric CPU field");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// CPU time of the whole process (all threads), seconds.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU time of the calling thread, seconds.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size of the process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() >= before);
        assert!(thread_cpu_s() <= process_cpu_s());
        assert!(peak_rss_mb() > 0.0);
        std::hint::black_box(x);
    }
}
