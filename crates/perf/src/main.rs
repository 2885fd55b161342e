//! `cargo run --release -p tempo-perf -- --seed 42`; see `--help` and the README.

use tempo_perf::bench::{run, Args};

fn main() {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| run(&args));
    if let Err(message) = outcome {
        eprintln!("tempo-perf: {message}");
        std::process::exit(1);
    }
}
