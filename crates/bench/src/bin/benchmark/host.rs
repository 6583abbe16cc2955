//! What the numbers ran on, and the per-process resource readings
//! (`/proc`) behind `cpu_us_per_req` and `peak_rss_mb`.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture it exposes it on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds `pid` has used (`None` for this process).
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let path =
        pid.map_or_else(|| "/proc/self/stat".to_string(), |p| format!("/proc/{p}/stat"));
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of `pid` in MiB (`None` for this
/// process).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid
        .map_or_else(|| "/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the peak resident set size of `pid` (`None` for this process)
/// to its current one (Linux 4.0 and later).
pub fn reset_peak_rss(pid: Option<u32>) -> std::io::Result<()> {
    let path = pid.map_or_else(
        || "/proc/self/clear_refs".to_string(),
        |p| format!("/proc/{p}/clear_refs"),
    );
    std::fs::write(path, "5")
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The host block as a JSON object.
pub fn host_json() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = command_line(Command::new("rustc").arg("--version"))
        .unwrap_or_else(|| "unknown".into());
    // The checkout a benchmark runs in need not be a git repository, and
    // git must not go looking for one above it.
    let git =
        |args: &[&str]| command_line(Command::new("git").env("GIT_DIR", ".git").args(args));
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"available_parallelism\":{},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\
         \"profile\":\"{profile}\",\"git_rev\":{},\"git_dirty\":{}}}",
        cores(),
        json_str(&cpu_model),
        json_str(&kernel),
        json_str(&rustc),
        json_str(&rev),
        dirty.map_or_else(|| "null".into(), |d| d.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_cpu_and_memory_readings() {
        let cpu = cpu_seconds(None).expect("/proc/self/stat");
        assert!(cpu >= 0.0);
        assert!(peak_rss_mb(None).expect("/proc/self/status") > 0.0);
        reset_peak_rss(None).expect("/proc/self/clear_refs");
        assert!(peak_rss_mb(None).expect("peak after reset") > 0.0);
    }

    #[test]
    fn host_block_is_one_json_object() {
        let h = host_json();
        assert!(h.starts_with('{') && h.ends_with('}'));
        assert!(h.contains("\"available_parallelism\":"));
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
