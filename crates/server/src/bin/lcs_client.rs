//! A tiny curl stand-in for driving the daemon from CI and the shell.
//!
//! ```text
//! lcs_client ADDR METHOD PATH [JSON_BODY]
//! lcs_client 127.0.0.1:7420 GET /health
//! lcs_client 127.0.0.1:7420 POST /sessions '{"graph":{"kind":"grid","rows":8,"cols":8}}'
//! ```
//!
//! Prints the response body to stdout and exits 0 on 2xx, 1 otherwise
//! (the status code goes to stderr), so CI can assert on both channels.

use lcs_server::client::Client;
use std::net::ToSocketAddrs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        eprintln!("usage: lcs_client ADDR METHOD PATH [JSON_BODY]");
        std::process::exit(2);
    }
    let addr = args[0]
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| {
            eprintln!("cannot resolve address {}", args[0]);
            std::process::exit(2);
        });
    let method = args[1].to_ascii_uppercase();
    let path = &args[2];
    let body = args.get(3).map(String::as_str).unwrap_or("");

    let mut client = Client::new(addr);
    let response = match client.request(&method, path, body.as_bytes()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("request failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", lcs_server::json::render(&response.body));
    eprintln!("status: {}", response.status);
    std::process::exit(if response.is_ok() { 0 } else { 1 });
}
