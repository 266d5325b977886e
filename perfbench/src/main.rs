//! `perfbench --workload <scan|chaos|ingest> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (reporting the median set-up
//! time), then sweeps it on two workers until `--seconds` have passed,
//! checking every sweep's outputs. With `--trace 0` the last line of
//! stdout is the end-to-end result; with `--trace 1` traced and untraced
//! sweeps alternate and the last line carries the per-layer metrics. The
//! spans of the last traced sweep are written to `perfbench/out/`.

use ccc_perfbench::measure::{median, peak_rss_mb, percentile};
use ccc_perfbench::report::{result_line, unit_of, Layers, END_TO_END, PER_LAYER};
use ccc_perfbench::{
    probe_generation, run_sweep, run_traced, setup, trace, Inputs, Sweep, TracedSweep, Workload,
    DEFAULT_SEED, WORKERS,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Each runs in a fresh
/// child process (plus the one this process keeps for its sweeps): a
/// set-up's speed varies from process to process far more than within
/// one, and a user pays one cold set-up per process.
const SETUP_PROCESSES: usize = 4;
/// Sweeps per run even when `--seconds` runs out first.
const MIN_SWEEPS: usize = 3;
/// Observations timed for `testgen.observation.p50_us` on workloads that
/// generate inside the sweep.
const GENERATION_PROBE: usize = 2_000;
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let workload = get("--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be scan, chaos or ingest")?;
    let seed = get("--seed")
        .map_or(Ok(DEFAULT_SEED), str::parse)
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .map_or(Ok(10.0), str::parse::<f64>)
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only: get("--setup-only") == Some("1"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <scan|chaos|ingest> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let domains = w.domains();

    if args.setup_only {
        let t0 = Instant::now();
        let inputs = setup(w, args.seed, domains);
        println!("{}", t0.elapsed().as_secs_f64());
        drop(inputs);
        return ExitCode::SUCCESS;
    }
    let mut setup_s = match child_setups(&args) {
        Ok(times) => times,
        Err(e) => {
            eprintln!("perfbench: set-up child failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let inputs = setup(w, args.seed, domains);
    setup_s.push(t0.elapsed().as_secs_f64());

    let started = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut traced: Vec<TracedSweep> = Vec::new();
    while sweeps.len() < MIN_SWEEPS || started.elapsed().as_secs_f64() < args.seconds {
        if args.trace {
            traced.push(run_traced(w, &inputs, WORKERS));
        }
        sweeps.push(run_sweep(w, &inputs, WORKERS));
    }
    let measured_s = started.elapsed().as_secs_f64();

    // Output checks: per-domain failures, identical digests across every
    // sweep (traced or not), and the recorded digest at the default seed.
    let reference = sweeps[0].digest.clone();
    let golden_ok = args.seed != DEFAULT_SEED || reference == w.golden_digest();
    let all_same = sweeps
        .iter()
        .map(|s| &s.digest)
        .chain(traced.iter().map(|t| &t.digest))
        .all(|d| *d == reference);
    let mut attempted = 0;
    let mut failed = 0;
    let results = sweeps
        .iter()
        .map(|s| (s.failed, &s.digest))
        .chain(traced.iter().map(|t| (t.failed, &t.digest)));
    for (sweep_failed, digest) in results {
        attempted += domains;
        failed += if *digest == reference && golden_ok {
            sweep_failed
        } else {
            domains
        };
    }
    let correct = failed == 0;

    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall.as_secs_f64()).collect();
    let println_check =
        |label: &str, ok: bool| println!("check {label}: {}", if ok { "ok" } else { "FAILED" });
    println!(
        "perfbench {}: seed {}, {domains} domains per sweep, {WORKERS} workers, {} untraced + {} traced sweeps in {measured_s:.1} s",
        w.name(),
        args.seed,
        sweeps.len(),
        traced.len(),
    );
    println_check("per-domain outputs", failed == 0);
    println_check(
        "digest identical across traced and untraced sweeps",
        all_same,
    );
    if args.seed == DEFAULT_SEED {
        println_check("digest equals the recorded default-seed digest", golden_ok);
    }
    println!("digest {reference}");
    println!(
        "failed_ratio {} ({failed} of {attempted} domains)",
        failed as f64 / attempted as f64
    );
    println!(
        "sweep wall {:.3} s median ({:.3}–{:.3} s)",
        median(&walls),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max)
    );

    let line = if args.trace {
        let layers = layer_medians(&inputs, &traced, &walls);
        let traced_wall = layers["bench.sweep.wall_s"];
        println!(
            "traced sweep wall {traced_wall:.3} s; busy times below are worker-s, summed across {WORKERS} workers ({:.3} worker-s available)",
            traced_wall * WORKERS as f64
        );
        for (name, unit) in PER_LAYER {
            println!("  {name:<36} {:>14.6} {unit}", layers[name]);
        }
        if let Some(last) = traced.last() {
            write_spans(w, args.seed, &last.spans);
        }
        result_line(correct, attempted, failed, PER_LAYER, &layers)
    } else {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        let per_sweep =
            |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
        values.insert("setup_s", median(&setup_s));
        values.insert(
            "domains_per_s",
            per_sweep(&|s| s.domains as f64 / s.wall.as_secs_f64()),
        );
        // CPU time is charged in 10 ms ticks, so it is summed over the
        // whole run rather than read per sweep.
        let cpu_s: f64 = sweeps.iter().map(|s| s.cpu_s).sum();
        let swept: usize = sweeps.iter().map(|s| s.domains).sum();
        values.insert("cpu_s_per_kdomain", cpu_s * 1000.0 / swept as f64);
        values.insert("peak_rss_mb", peak_rss_mb());
        values.insert(
            "chain_p50_us",
            per_sweep(&|s| percentile(&s.chain_ns, 50.0) / 1e3),
        );
        values.insert(
            "chain_p99_us",
            per_sweep(&|s| percentile(&s.chain_ns, 99.0) / 1e3),
        );
        for (name, _) in END_TO_END {
            println!("  {name:<20} {:>14.6} {}", values[name], unit_of(name));
        }
        result_line(correct, attempted, failed, END_TO_END, &values)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Per-layer metrics: the median over traced sweeps of each reading,
/// plus the generation percentile and the tracing overhead.
fn layer_medians(inputs: &Inputs, traced: &[TracedSweep], walls: &[f64]) -> Layers {
    let mut layers = Layers::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = traced
            .iter()
            .map(|t| t.layers.get(name).copied().unwrap_or(0.0))
            .collect();
        layers.insert(name, median(&values));
    }
    let generation_ns = match inputs {
        Inputs::Ingest(i) => i.generation_ns.clone(),
        Inputs::Corpus(c) => probe_generation(c, GENERATION_PROBE),
    };
    layers.insert(
        "testgen.observation.p50_us",
        percentile(&generation_ns, 50.0) / 1e3,
    );
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall.as_secs_f64()).collect();
    layers.insert(
        "obs.trace_overhead_ratio",
        median(&traced_walls) / median(walls) - 1.0,
    );
    layers
}

/// Write the spans of one traced sweep next to the benchmark's sources.
fn write_spans(w: Workload, seed: u64, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.spans.tsv", w.name()));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::render_tsv(spans)))
    {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Time `SETUP_PROCESSES` set-ups, each in a child process that is waited
/// for before the next starts.
fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROCESSES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    args.workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            if !out.status.success() {
                return Err(format!("exit status {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| e.to_string())
        })
        .collect()
}
