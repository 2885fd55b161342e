//! The command line: which workloads and passes to run, the report, the results file
//! and the contract's result line.

use crate::json::Json;
use crate::micro;
use crate::passes::{self, Layers, Plan, Samples};
use crate::spec::{workload, EndToEnd, Workload, WORKLOADS};
use crate::stats::Agg;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "\
tempo-perf: the repo's benchmark (see crates/perf/README.md)

  --seed N          seeds every arrival schedule and mix (default 42)
  --workload NAME   one workload instead of all four; the last line of stdout is then
                    the result object {correct, attempted, failed, metrics}
  --trace 0|1       0: only the end-to-end pass; 1: only the layer pass (default: both)
  --seconds S       seconds one run measures per workload (default 20): repetitions of
                    1 s on loopback and of 4 s on the WAN
  --check-repeat    run the end-to-end pass twice and compare the values
  --smoke           only check that everything runs; not a measurement
  --out PATH        results file (default <target dir>/tempo-perf/results.json)";

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Seeds every arrival schedule and mix.
    pub seed: u64,
    /// One workload instead of all four.
    pub workload: Option<&'static Workload>,
    /// `Some(false)`: only the end-to-end pass; `Some(true)`: only the layer pass.
    pub trace: Option<bool>,
    /// How many repetitions, or a smoke run.
    pub plan: Plan,
    /// Run the end-to-end pass twice and compare.
    pub check_repeat: bool,
    /// Results file.
    pub out: PathBuf,
}

/// The directory generated files go to: cargo's target directory, which the contract's
/// driver places inside the checkout.
fn scratch_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("tempo-perf")
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            seed: 42,
            workload: None,
            trace: None,
            plan: Plan {
                seconds: 20,
                smoke: false,
            },
            check_repeat: false,
            out: scratch_dir().join("results.json"),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--check-repeat" => {
                    parsed.check_repeat = true;
                    continue;
                }
                "--smoke" => {
                    parsed.plan.smoke = true;
                    continue;
                }
                _ => {}
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} {value}: not a whole number"))
            };
            match flag.as_str() {
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.plan.seconds = number()?,
                "--trace" => parsed.trace = Some(number()? != 0),
                "--out" => parsed.out = PathBuf::from(&value),
                "--workload" => {
                    let w = workload(&value).ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value}; one of {}", names.join(", "))
                    })?;
                    parsed.workload = Some(w);
                }
                _ => return Err(format!("unknown argument {flag}\n\n{USAGE}")),
            }
        }
        Ok(parsed)
    }
}

/// Everything one workload produced.
#[derive(Debug, Default)]
struct WorkloadResult {
    end_to_end: Vec<(&'static EndToEnd, Agg)>,
    /// The second end-to-end pass of `--check-repeat`.
    repeat: Vec<(&'static EndToEnd, Agg)>,
    layers: Option<Layers>,
    attempted: u64,
    failed: u64,
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// One end-to-end pass: set-up cycles of its own, then rounds. A round visits every
/// workload in turn, and a workload with fewer repetitions than there are rounds has
/// them spread evenly over the rounds, so a noisy neighbour costs each workload one
/// repetition, not one workload all of them.
fn end_to_end_pass(
    workloads: &[&'static Workload],
    plan: &Plan,
    seed: u64,
) -> Result<Vec<Samples>, String> {
    let mut samples = vec![Samples::default(); workloads.len()];
    for (w, samples) in workloads.iter().zip(&mut samples) {
        passes::setup_cycles(w, plan, samples)?;
    }
    let rounds = workloads.iter().map(|w| plan.reps(w)).max().unwrap_or(0);
    for round in 0..rounds {
        for (w, samples) in workloads.iter().zip(&mut samples) {
            let reps = plan.reps(w);
            let rep = round * reps / rounds;
            if round == 0 || rep != (round - 1) * reps / rounds {
                eprintln!("  {} rep {}/{reps}", w.name, rep + 1);
                passes::end_to_end_rep(w, plan, seed + 1000 * rep as u64, samples)?;
            }
        }
    }
    for (w, samples) in workloads.iter().zip(&samples) {
        let p50_ms = samples
            .aggregate()
            .into_iter()
            .find(|(m, _)| m.name == "p50_ms");
        plan.check_sessions(w, p50_ms.expect("p50_ms was measured").1.median)?;
    }
    Ok(samples)
}

fn print_end_to_end(name: &str, aggs: &[(&'static EndToEnd, Agg)]) {
    for (m, agg) in aggs {
        println!(
            "{name:18} {:12} {:>14.4} {:6} (median of {}, min {:.4}, max {:.4}; {} is better, bound {})",
            m.name,
            agg.median,
            m.unit,
            agg.n,
            agg.min,
            agg.max,
            m.better.as_str(),
            m.bound
        );
    }
}

fn print_layers(name: &str, layers: &Layers) {
    for (m, value) in &layers.values {
        println!(
            "{name:18} {:40} {value:>16.4} {:6} -> {}",
            m.name, m.unit, m.moves
        );
    }
    for (metric, unit, value) in &layers.diagnostics {
        println!("{name:18} {metric:40} {value:>16.4} {unit:6} (diagnostic)");
    }
    let get = |metric| layers.get(metric).unwrap_or(f64::NAN);
    let replica = get("runtime.replica_cpu_us_per_cmd");
    let io = get("net.io_cpu_us_per_cmd");
    let pump = get("load.pump_cpu_us_per_cmd");
    let codec = get("kernel.msgs_per_cmd")
        * (get("codec.encode_ns_per_msg") + get("codec.decode_ns_per_msg"))
        / 1000.0;
    let process = get("runtime.process_cpu_us_per_cmd");
    println!(
        "{name:18} budget: replica {replica:.1} us/cmd = replay {:.1} + codec {codec:.1} + unattributed {:.1}; \
         replica + io {io:.1} + pump {pump:.1} = {:.1} of the process's {process:.1} \
         (the rest is the harness and what threads burnt after their last poll); CPU bound {:.0} ops/s",
        get("kernel.replay_us_per_cmd"),
        get("runtime.unattributed_cpu_us_per_cmd"),
        replica + io + pump,
        get("runtime.cpu_bound_tput_ops_s"),
    );
}

/// Compares two end-to-end passes; returns how many pairs disagree beyond their bound.
fn print_repeat(
    name: &str,
    first: &[(&'static EndToEnd, Agg)],
    second: &[(&'static EndToEnd, Agg)],
) -> usize {
    let mut disagreements = 0;
    for ((m, a), (_, b)) in first.iter().zip(second) {
        let (lo, hi) = (a.median.min(b.median), a.median.max(b.median));
        let diff = (hi - lo) / lo;
        let within = diff <= m.bound || hi - lo <= m.floor;
        disagreements += usize::from(!within);
        println!(
            "{name:18} {:12} {:>14.4} vs {:>14.4} {:6} differ by {:.4} (bound {}){}",
            m.name,
            a.median,
            b.median,
            m.unit,
            diff,
            m.bound,
            if within { "" } else { "  DISAGREE" }
        );
    }
    disagreements
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn agg_json(agg: &Agg, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(agg.median)),
        ("unit", Json::str(unit)),
        ("min", Json::Num(agg.min)),
        ("max", Json::Num(agg.max)),
        ("n", Json::Num(agg.n as f64)),
    ])
}

fn end_to_end_json(aggs: &[(&'static EndToEnd, Agg)]) -> Json {
    Json::obj(aggs.iter().map(|(m, agg)| (m.name, agg_json(agg, m.unit))))
}

fn layers_json(layers: &Layers) -> Json {
    Json::obj(
        layers
            .values
            .iter()
            .map(|(m, value)| (m.name, metric_json(*value, m.unit))),
    )
}

/// The contract's result object for one workload: the metrics of whichever passes ran.
fn result_line(result: &WorkloadResult) -> Json {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for (m, agg) in &result.end_to_end {
        metrics.push((m.name.to_string(), metric_json(agg.median, m.unit)));
    }
    if let Some(layers) = &result.layers {
        metrics.extend(layers_json(layers).members().iter().cloned());
    }
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Runs what `args` asks for. Errors are harness failures: a failed correctness gate,
/// op-count or session-sizing check, or passes that disagree under `--check-repeat`.
pub fn run(args: &Args) -> Result<(), String> {
    let begun = Instant::now();
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let plan = &args.plan;
    let nproc = crate::procfs::cores();
    let rev = git_rev();
    println!(
        "tempo-perf: rev {rev}, {nproc} cores, seed {}, {} s per workload{}",
        args.seed,
        plan.seconds,
        if plan.smoke {
            ": a SMOKE run with the rates cut, not a measurement"
        } else {
            ""
        }
    );
    for w in &workloads {
        println!(
            "{:18} {} repetition(s) at scale {:.3}",
            w.name,
            plan.reps(w),
            plan.scale(w)
        );
    }
    let mut results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|_| WorkloadResult::default())
        .collect();

    // Correctness first: nothing is timed for a workload whose history fails the checker.
    for w in &workloads {
        eprintln!("  {} correctness gate", w.name);
        passes::gate(w, args.seed + 900_001)?;
    }

    if args.trace != Some(true) {
        let first = end_to_end_pass(&workloads, plan, args.seed)?;
        for (result, samples) in results.iter_mut().zip(&first) {
            result.end_to_end = samples.aggregate();
            result.attempted += samples.attempted;
            result.failed += samples.failed;
        }
        if args.check_repeat {
            let second = end_to_end_pass(&workloads, plan, args.seed)?;
            for (result, samples) in results.iter_mut().zip(&second) {
                result.repeat = samples.aggregate();
                result.attempted += samples.attempted;
                result.failed += samples.failed;
            }
        }
    }
    if args.trace != Some(false) {
        let scratch = scratch_dir();
        let size = if plan.smoke { 0.05 } else { 1.0 };
        let micro = (micro::net(size)?, micro::store(&scratch, size)?);
        for (w, result) in workloads.iter().zip(&mut results) {
            eprintln!("  {} layer pass", w.name);
            let with_atlas = args.workload.is_none();
            let layers = passes::layers(w, plan, args.seed + 100_000, &micro, with_atlas)?;
            result.attempted += layers.attempted;
            result.failed += layers.failed;
            result.layers = Some(layers);
        }
    }

    println!();
    let mut disagreements = 0;
    for (w, result) in workloads.iter().zip(&results) {
        print_end_to_end(w.name, &result.end_to_end);
        if !result.repeat.is_empty() {
            disagreements += print_repeat(w.name, &result.end_to_end, &result.repeat);
        }
        if let Some(layers) = &result.layers {
            print_layers(w.name, layers);
        }
        println!(
            "{:18} attempted {} failed {}",
            w.name, result.attempted, result.failed
        );
    }

    let document = Json::obj([
        ("git_rev", Json::str(rev)),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(plan.seconds as f64)),
        ("wall_s", Json::Num(begun.elapsed().as_secs_f64())),
        (
            "workloads",
            Json::obj(workloads.iter().zip(&results).map(|(w, result)| {
                let layers = result.layers.as_ref();
                let diagnostics = layers.map_or(Json::Null, |l| {
                    Json::obj(
                        l.diagnostics
                            .iter()
                            .map(|(name, unit, value)| (*name, metric_json(*value, unit))),
                    )
                });
                (
                    w.name,
                    Json::obj([
                        ("repetitions", Json::Num(plan.reps(w) as f64)),
                        ("scale", Json::Num(plan.scale(w))),
                        ("attempted", Json::Num(result.attempted as f64)),
                        ("failed", Json::Num(result.failed as f64)),
                        ("end_to_end", end_to_end_json(&result.end_to_end)),
                        ("end_to_end_repeat", end_to_end_json(&result.repeat)),
                        ("per_layer", layers.map_or(Json::Null, layers_json)),
                        ("diagnostics", diagnostics),
                    ]),
                )
            })),
        ),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, format!("{document}\n"))
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("results written to {}", args.out.display());

    if disagreements > 0 {
        return Err(format!(
            "{disagreements} metric x workload pair(s) disagree beyond their bound"
        ));
    }
    if args.workload.is_some() {
        println!("{}", result_line(&results[0]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse(&[
            "--workload",
            "wan_rw",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(args.workload.map(|w| w.name), Some("wan_rw"));
        let plan = |seconds, smoke| Plan { seconds, smoke };
        assert_eq!(
            (args.seed, args.trace, args.plan),
            (7, Some(true), plan(20, false))
        );
        let defaults = parse(&[]).expect("parses");
        assert_eq!(
            (defaults.seed, defaults.trace, defaults.plan),
            (42, None, plan(20, false))
        );
        assert!(!defaults.check_repeat);
        let flags = parse(&["--smoke", "--seconds", "3", "--check-repeat"]).unwrap();
        assert_eq!((flags.plan, flags.check_repeat), (plan(3, true), true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"])
            .unwrap_err()
            .contains("lan_rw"));
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let agg = Agg::of(&[1.5, 2.5, 3.5]).unwrap();
        let result = WorkloadResult {
            end_to_end: vec![
                (&crate::spec::END_TO_END[1], agg),
                (&crate::spec::END_TO_END[3], agg),
            ],
            attempted: 10,
            failed: 0,
            ..WorkloadResult::default()
        };
        let line = result_line(&result).to_string();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
    }
}
