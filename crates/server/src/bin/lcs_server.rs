//! The daemon CLI: bind, serve, block until `POST /shutdown`.
//!
//! ```text
//! lcs_server [--addr 127.0.0.1:7420] [--workers 4] [--max-body BYTES]
//!            [--timeout-secs 10] [--sessions 16]
//! ```

use lcs_server::{Server, ServerConfig};
use std::time::Duration;

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7420".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            "--max-body" => config.max_body = parse(&value("--max-body"), "--max-body"),
            "--timeout-secs" => {
                config.io_timeout =
                    Duration::from_secs(parse(&value("--timeout-secs"), "--timeout-secs"))
            }
            "--sessions" => config.session_capacity = parse(&value("--sessions"), "--sessions"),
            "--help" | "-h" => {
                println!(
                    "usage: lcs_server [--addr HOST:PORT] [--workers N] [--max-body BYTES] \
                     [--timeout-secs S] [--sessions N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let handle = match Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    };
    println!("lcs_server listening on {}", handle.addr());
    handle.wait();
    println!("lcs_server stopped");
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| panic!("invalid value for {flag}: {s}"))
}
