//! Large-swarm scale sweep: wall-clock scaling of the flow world.
//!
//! For every swarm size the same seeded run executes twice, each in a
//! fresh child process (the binary re-execs itself with a hidden `--one`
//! flag), so allocator and page-cache warm-up cannot leak from one
//! measurement into the next. The two runs must produce identical
//! observables — a cross-process determinism check — and the faster
//! run's wall-clock per simulated second lands in `BENCH_scale.json`.
//!
//! Flags: `--paper` (paper-scale durations), `--max-size N` (cap the
//! size axis — the CI smoke job uses this), `--xl` (append 16k/65k
//! trend rows), `--metrics-out DIR`.
//!
//! XL rows run once (no repeat): at 65k peers the point is the
//! wall/vsec trend line the incremental solver bends — their
//! `identical` field is `null` in `BENCH_scale.json`.

use p2p_simulation::experiments::scale::{
    run_scale_once, scale_table, run_scale_with, ScaleCell, ScaleParams, SCALE_SEED,
};
use std::process::Command;
use std::time::Instant;
use wp2p_bench::{
    dump_metrics, metrics_handle, metrics_out_from_args, preamble, preset_from_args, Preset,
};

struct SizeResult {
    peers: usize,
    cell: ScaleCell,
    /// Fastest wall-clock seconds over the size's runs.
    wall: f64,
    /// `None` when the size ran once (XL trend rows).
    identical: Option<bool>,
}

fn max_size_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--max-size")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn xl_from_args() -> bool {
    std::env::args().any(|a| a == "--xl")
}

/// Hidden child mode: `--one SIZE SEED` runs a single timed cell and
/// prints one machine-readable line on stdout for the parent.
fn one_from_args() -> Option<(usize, u64)> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--one")?;
    let size = args.get(i + 1)?.parse().ok()?;
    let seed = args.get(i + 2)?.parse().ok()?;
    Some((size, seed))
}

fn run_one_and_print(params: &ScaleParams, size: usize, seed: u64) {
    let disabled = metrics::handle::MetricsHandle::disabled();
    let t0 = Instant::now();
    let cell = run_scale_once(params, size, &disabled, seed);
    let wall = t0.elapsed().as_secs_f64();
    // Bit-exact fields so the parent's determinism check loses nothing
    // in transit.
    println!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {}",
        wall.to_bits(),
        cell.completed,
        cell.mean_progress.to_bits(),
        cell.events,
        cell.queue_peak,
        cell.scheduled,
        cell.cancelled,
        cell.cancel_noops,
        cell.stall_aborts,
        cell.solver_full,
        cell.solver_incremental,
        cell.solver_class,
        cell.solver_resources_touched
    );
}

/// Runs one timed cell in a fresh process and parses its report.
fn timed_child(preset: Preset, size: usize, seed: u64) -> (f64, ScaleCell) {
    let exe = std::env::current_exe().expect("own binary path");
    let mut cmd = Command::new(exe);
    if matches!(preset, Preset::Paper) {
        cmd.arg("--paper");
    }
    let out = cmd
        .args(["--one", &size.to_string(), &seed.to_string()])
        .output()
        .expect("spawn timed child");
    assert!(out.status.success(), "timed child failed for {size} peers");
    let text = String::from_utf8(out.stdout).expect("child report is UTF-8");
    let f: Vec<u64> = text
        .split_whitespace()
        .map(|v| v.parse().expect("child report field"))
        .collect();
    assert_eq!(f.len(), 13, "malformed child report: {text:?}");
    (
        f64::from_bits(f[0]),
        ScaleCell {
            completed: f[1] as usize,
            mean_progress: f64::from_bits(f[2]),
            events: f[3],
            queue_peak: f[4] as usize,
            scheduled: f[5],
            cancelled: f[6],
            cancel_noops: f[7],
            stall_aborts: f[8],
            solver_full: f[9],
            solver_incremental: f[10],
            solver_class: f[11],
            solver_resources_touched: f[12],
        },
    )
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

fn scale_json(preset: Preset, vsecs: f64, results: &[SizeResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"preset\": \"{}\",\n  \"virtual_secs\": {},\n  \"sizes\": [\n",
        match preset {
            Preset::Quick => "quick",
            Preset::Paper => "paper",
        },
        json_f(vsecs)
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"peers\": {}, \"events\": {}, \"queue_peak\": {}, ",
                "\"scheduled\": {}, \"cancelled\": {}, \"stall_aborts\": {}, ",
                "\"solver_full\": {}, \"solver_incremental\": {}, ",
                "\"solver_class\": {}, \"solver_resources_touched\": {}, ",
                "\"wall_secs\": {}, \"wall_per_vsec\": {}, \"identical\": {}}}{}\n"
            ),
            r.peers,
            r.cell.events,
            r.cell.queue_peak,
            r.cell.scheduled,
            r.cell.cancelled,
            r.cell.stall_aborts,
            r.cell.solver_full,
            r.cell.solver_incremental,
            r.cell.solver_class,
            r.cell.solver_resources_touched,
            json_f(r.wall),
            json_f(r.wall / vsecs),
            r.identical
                .map_or("null".to_string(), |b| b.to_string()),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let preset = preset_from_args();
    let params = match preset {
        Preset::Quick => ScaleParams::quick(),
        Preset::Paper => ScaleParams::paper(),
    };
    if let Some((size, seed)) = one_from_args() {
        run_one_and_print(&params, size, seed);
        return;
    }
    preamble("Scale sweep", preset);
    // The size axis always reaches 2048 (that is the point of the
    // sweep); the preset only controls per-run duration and file size.
    let mut sizes: Vec<usize> = vec![16, 64, 256, 512, 1024, 2048];
    if let Some(cap) = max_size_from_args() {
        sizes.retain(|&s| s <= cap);
    }
    let vsecs = params.duration.as_secs_f64();
    let mut results: Vec<SizeResult> = Vec::new();
    let mut all_identical = true;
    for (point, &size) in sizes.iter().enumerate() {
        let seed = p2p_simulation::harness::cell_seed(SCALE_SEED, point, 0);
        // Two timed runs, each in a fresh child process; keep the
        // minimum (the least-disturbed measurement).
        let (w1, cell) = timed_child(preset, size, seed);
        let (w2, cell2) = timed_child(preset, size, seed);
        let wall = w1.min(w2);
        let identical = cell == cell2;
        if !identical {
            all_identical = false;
            eprintln!("REPLAY MISMATCH at {size} peers:\n  run 1: {cell:?}\n  run 2: {cell2:?}");
        }
        eprintln!(
            "  {size:>5} peers: {wall:>7.2}s ({:.1} ms/vsec), {} events{}",
            1e3 * wall / vsecs,
            cell.events,
            if identical { "" } else { "  [MISMATCH]" }
        );
        results.push(SizeResult {
            peers: size,
            cell,
            wall,
            identical: Some(identical),
        });
    }
    if xl_from_args() {
        // Single-run trend rows at the XL sizes.
        for (i, &size) in [16_384usize, 65_536].iter().enumerate() {
            let seed = p2p_simulation::harness::cell_seed(SCALE_SEED, sizes.len() + i, 0);
            let (wall, cell) = timed_child(preset, size, seed);
            eprintln!(
                "  {size:>5} peers: {wall:>7.2}s ({:.1} ms/vsec), {} events [xl trend]",
                1e3 * wall / vsecs,
                cell.events,
            );
            results.push(SizeResult {
                peers: size,
                cell,
                wall,
                identical: None,
            });
        }
    }
    let json = scale_json(preset, vsecs, &results);
    match std::fs::write("BENCH_scale.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_scale.json ({} sizes)", results.len()),
        Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
    }
    // The registry experiment's deterministic table (preset sizes), plus
    // metrics if requested.
    let out = metrics_out_from_args();
    let handle = metrics_handle(out.as_deref(), SCALE_SEED);
    let points = run_scale_with(&params, &handle, SCALE_SEED);
    scale_table(&points).print();
    if let Some(dir) = &out {
        dump_metrics(dir, "scale", &handle);
    }
    assert!(all_identical, "repeated runs of one cell diverged");
}
