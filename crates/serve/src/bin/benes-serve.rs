//! The benes-serve daemon: expose a routing engine over the wire
//! protocol, with an optional HTTP metrics endpoint.
//!
//! ```text
//! benes-serve [--addr HOST:PORT] [--threads T] [--workers W]
//!             [--queue-depth D] [--quota Q] [--quantum K]
//!             [--read-timeout-ms MS] [--allow-drain]
//!             [--metrics-addr HOST:PORT]
//! ```
//!
//! The server prints `listening on HOST:PORT` once ready (scripts
//! parse this to discover an ephemeral port) and runs until a client
//! sends a Drain frame (requires `--allow-drain`).

use std::time::Duration;

use benes_engine::EngineConfig;
use benes_serve::http::{serve_http, HttpOptions, HttpResponse};
use benes_serve::server::{ServeConfig, Server};

struct Args {
    addr: String,
    metrics_addr: Option<String>,
    config: ServeConfig,
}

fn parse_args() -> Args {
    let mut addr = "127.0.0.1:9200".to_string();
    let mut metrics_addr = None;
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--threads" => {
                config.threads = value("--threads").parse().expect("--threads: usize")
            }
            "--workers" => {
                config.engine.workers =
                    value("--workers").parse().expect("--workers: usize")
            }
            "--queue-depth" => {
                config.engine.max_queue_depth =
                    value("--queue-depth").parse().expect("--queue-depth: usize")
            }
            "--quota" => config.quota = value("--quota").parse().expect("--quota: usize"),
            "--quantum" => {
                config.quantum = value("--quantum").parse().expect("--quantum: u32")
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(
                    value("--read-timeout-ms").parse().expect("--read-timeout-ms: u64"),
                )
            }
            "--allow-drain" => config.allow_drain = true,
            other => panic!("unknown argument {other} (see the module docs for usage)"),
        }
    }
    Args { addr, metrics_addr, config }
}

fn main() {
    let args = parse_args();
    let EngineConfig { workers, .. } = args.config.engine;
    let server = match Server::start(&args.addr, args.config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("benes-serve: cannot start on {}: {err}", args.addr);
            std::process::exit(2);
        }
    };
    println!("listening on {}", server.local_addr());
    println!("engine: {workers} workers; send a Drain frame to stop (if --allow-drain)");

    if let Some(maddr) = args.metrics_addr {
        let listener =
            std::net::TcpListener::bind(&maddr).expect("bind the metrics endpoint");
        println!("metrics on http://{}/metrics", listener.local_addr().expect("bound"));
        // The exposition thread keeps its own engine and counter
        // handles: `server` moves into `wait` below, but scrapes must
        // stay live.
        let engine = server.engine_arc();
        let counters = server.counters_arc();
        let scrape = move || {
            let mut expo = engine.stats().exposition();
            expo.extend(counters.exposition());
            expo
        };
        std::thread::spawn(move || {
            serve_http(listener, HttpOptions::default(), move |path| match path {
                "/metrics" => {
                    HttpResponse::ok("text/plain; version=0.0.4", scrape().to_prometheus())
                }
                "/metrics.json" => HttpResponse::ok("application/json", scrape().to_json()),
                other => HttpResponse::not_found(&format!(
                    "no route {other}; try /metrics or /metrics.json\n"
                )),
            });
        });
    }

    let report = server.wait();
    println!("drained: {} canceled, timed_out={}", report.canceled, report.timed_out);
}
