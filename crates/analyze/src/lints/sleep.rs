//! Sleep-poll lint for the wire path.
//!
//! The serve and shard crates move requests between threads and
//! sockets. A thread there that sleeps, or reads with a socket timeout
//! far shorter than any real deadline, is polling: it wakes on a
//! clock instead of on the event it waits for, and on Linux socket
//! timeouts run on the jiffy clock, so a "1 ms" read timeout returns
//! after up to 8 ms. Every wait there must be a blocking receive or
//! read that the event itself ends. This lint flags every
//! `thread::sleep(` and every literal `Duration::from_*(N)` under
//! 10 ms — a read timeout, a `recv_timeout` budget or any other timer
//! that short is a poll; a deliberate pause carries
//! `// analyze:allow(sleep-poll): <reason>`.

use crate::report::{Finding, Pillar};

use super::source::SourceFile;

/// Durations at or above this are real deadlines, not polls.
const POLL_FLOOR_NS: u128 = 10_000_000;

/// Scans one file for sleeps and short literal durations outside tests.
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
        } else if literal_durations_ns(&line.code).any(|ns| ns < POLL_FLOOR_NS) {
            "literal duration under 10 ms on the wire path: a read timeout or \
             recv_timeout budget this short polls (and a socket timeout fires late \
             on the jiffy clock); block on the event, or state why with an \
             analyze:allow(sleep-poll) marker"
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

/// Every `Duration::from_{secs,millis,micros,nanos}(<integer>)` in
/// `code`, in nanoseconds; arguments that are not integer literals are
/// skipped.
fn literal_durations_ns(code: &str) -> impl Iterator<Item = u128> + '_ {
    code.split("Duration::from_").skip(1).filter_map(literal_duration_ns)
}

/// The duration `unit(<integer>)…` spells (the text after
/// `Duration::from_`), in nanoseconds.
fn literal_duration_ns(rest: &str) -> Option<u128> {
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
        // The split call is flagged where its literal is.
        assert_eq!(lines, vec![2, 3, 5]);
    }

    #[test]
    fn short_timed_waits_are_flagged() {
        // The handler's old retry timer: a 1 ms `recv_timeout` budget.
        let text = "fn f() {\n    let budget = match drain {\n        None if starved => Some(Duration::from_millis(1)),\n        None => None,\n    };\n    rx.recv_timeout(Duration::from_nanos(500));\n    let t = (Duration::from_secs(1), Duration::from_micros(50));\n}\n";
        let lines: Vec<usize> = scan(text).iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 6, 7]);
    }

    #[test]
    fn the_floor_and_a_marked_line_pass() {
        let text = "fn f() {\n    rx.recv_timeout(Duration::from_millis(10));\n    // analyze:allow(sleep-poll): a bounded back-off after an error\n    let pause = Duration::from_millis(1);\n    let pace = Duration::from_micros(100); // analyze:allow(sleep-poll): paced on purpose\n}\n";
        assert!(scan(text).is_empty(), "{:#?}", scan(text));
    }

    #[test]
    fn real_deadlines_markers_and_tests_pass() {
        let text = "fn f(s: &TcpStream, t: Duration) {\n    s.set_read_timeout(Some(Duration::from_millis(10)));\n    s.set_read_timeout(Some(Duration::from_secs(2)));\n    s.set_read_timeout(Some(t));\n    s.set_read_timeout(None);\n    // analyze:allow(sleep-poll): the soak paces its rounds on purpose\n    std::thread::sleep(pause);\n    let sleep_ms = 3; // a name, not a call\n}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(Duration::from_millis(1)); }\n}\n";
        assert!(scan(text).is_empty(), "{:#?}", scan(text));
    }

    #[test]
    fn durations_parse_in_every_unit() {
        let all = |code| literal_durations_ns(code).collect::<Vec<_>>();
        assert_eq!(all("Duration::from_secs(2))"), [2_000_000_000]);
        assert_eq!(all("Duration::from_millis(1_000)"), [1_000_000_000]);
        assert_eq!(all("Duration::from_nanos(5)"), [5]);
        assert_eq!(all("Duration::from_millis(ms)"), []);
        assert_eq!(all("timeout"), []);
        assert_eq!(all("(Duration::from_millis(ms), Duration::from_micros(3))"), [3_000]);
    }
}
