//! Sleep-poll lint for the wire path.
//!
//! The serve and shard crates move requests between threads and
//! sockets. A thread there that sleeps, or reads with a socket timeout
//! far shorter than any real deadline, is polling: it wakes on a
//! clock instead of on the event it waits for, and on Linux socket
//! timeouts run on the jiffy clock, so a "1 ms" read timeout returns
//! after up to 8 ms. Every wait there must be a blocking receive or
//! read that the event itself ends. This lint flags every
//! `thread::sleep(` and every `set_read_timeout(Some(..))` whose
//! literal duration is under 10 ms; a deliberate pause carries
//! `// analyze:allow(sleep-poll): <reason>`.

use crate::report::{Finding, Pillar};

use super::source::SourceFile;

/// Read timeouts at or above this are real deadlines, not polls.
const POLL_FLOOR_NS: u128 = 10_000_000;

/// Scans one file for sleeps and short read timeouts outside tests.
#[must_use]
pub fn scan_sleep_polls(display: &str, file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || file.allows(idx, "sleep-poll") {
            continue;
        }
        let message = if line.code.contains("thread::sleep(") {
            "thread::sleep on the wire path: block on the event instead (a channel \
             receive or a blocking read), or state why the pause is needed with an \
             analyze:allow(sleep-poll) marker"
        } else if let Some(at) = line.code.find("set_read_timeout(Some(") {
            // rustfmt may move the argument onto the next line.
            let next = file.lines.get(idx + 1).map_or("", |l| l.code.as_str());
            let arg = format!("{}{next}", &line.code[at..]);
            match literal_duration_ns(&arg) {
                Some(ns) if ns < POLL_FLOOR_NS => {
                    "read timeout under 10 ms on the wire path: it polls the socket \
                     (and fires late on the jiffy clock); block in the read, or state \
                     why with an analyze:allow(sleep-poll) marker"
                }
                _ => continue,
            }
        } else {
            continue;
        };
        findings.push(Finding::error(
            Pillar::Workspace,
            "sleep-poll",
            display,
            idx + 1,
            message.to_string(),
        ));
    }
    findings
}

/// The first `Duration::from_{secs,millis,micros,nanos}(<integer>)` in
/// `code`, in nanoseconds. `None` when there is none or its argument is
/// not an integer literal.
fn literal_duration_ns(code: &str) -> Option<u128> {
    let rest = &code[code.find("Duration::from_")? + "Duration::from_".len()..];
    let (unit, rest) = rest.split_once('(')?;
    let scale = match unit {
        "secs" => 1_000_000_000,
        "millis" => 1_000_000,
        "micros" => 1_000,
        "nanos" => 1,
        _ => return None,
    };
    let digits: String = rest.split(')').next()?.chars().filter(|&c| c != '_').collect();
    digits.trim().parse::<u128>().ok().map(|v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(text: &str) -> Vec<Finding> {
        let file = SourceFile::parse(PathBuf::from("t.rs"), text);
        scan_sleep_polls("t.rs", &file)
    }

    #[test]
    fn sleeps_and_short_read_timeouts_are_flagged() {
        let text = "fn f(s: &TcpStream) {\n    std::thread::sleep(Duration::from_micros(200));\n    s.set_read_timeout(Some(Duration::from_millis(1)));\n    s.set_read_timeout(Some(\n        Duration::from_micros(9_999),\n    ));\n}\n";
        let lines: Vec<usize> = scan(text).iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4]);
    }

    #[test]
    fn real_deadlines_markers_and_tests_pass() {
        let text = "fn f(s: &TcpStream, t: Duration) {\n    s.set_read_timeout(Some(Duration::from_millis(10)));\n    s.set_read_timeout(Some(Duration::from_secs(2)));\n    s.set_read_timeout(Some(t));\n    s.set_read_timeout(None);\n    // analyze:allow(sleep-poll): the soak paces its rounds on purpose\n    std::thread::sleep(pause);\n    let sleep_ms = 3; // a name, not a call\n}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(Duration::from_millis(1)); }\n}\n";
        assert!(scan(text).is_empty(), "{:#?}", scan(text));
    }

    #[test]
    fn durations_parse_in_every_unit() {
        assert_eq!(literal_duration_ns("Duration::from_secs(2))"), Some(2_000_000_000));
        assert_eq!(
            literal_duration_ns("Duration::from_millis(1_000)"),
            Some(1_000_000_000)
        );
        assert_eq!(literal_duration_ns("Duration::from_nanos(5)"), Some(5));
        assert_eq!(literal_duration_ns("Duration::from_millis(ms)"), None);
        assert_eq!(literal_duration_ns("timeout"), None);
    }
}
