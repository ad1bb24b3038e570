//! `netfence`: the one entry point to every experiment of the reproduction.
//!
//! ```text
//! cargo run --release -- list
//! cargo run --release -- run <name> [--quick | --full] [--trace]
//! cargo run --release -- check
//! ```
//!
//! The experiments themselves are the rows of
//! [`netfence::experiments::registry::EXPERIMENTS`]; this file only maps
//! `argv` onto them.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use netfence::experiments::registry::{self, Size};

const USAGE: &str = "usage: netfence list\n\
                     \x20      netfence run <name> [--quick | --full] [--trace]\n\
                     \x20      netfence check";

fn dispatch(args: &[&str]) -> Result<String, String> {
    match args {
        ["list"] => Ok(registry::list()),
        ["check"] => registry::check(),
        ["run", name, flags @ ..] => {
            let (mut size, mut trace) = (Size::Default, false);
            for &flag in flags {
                match flag {
                    "--quick" if size == Size::Default => size = Size::Quick,
                    "--full" if size == Size::Default => size = Size::Full,
                    "--trace" if !trace => trace = true,
                    _ => return Err(format!("unexpected argument `{flag}`\n{USAGE}")),
                }
            }
            registry::run(name, size, trace)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match dispatch(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("netfence: {msg}");
            ExitCode::FAILURE
        }
    }
}
