//! The wP2P benchmark binary: measures one workload in this process.
//!
//! ```text
//! wp2p-perfbench --workload <swarm-2048|service-mix|packet-wlan> --seed <n>
//!                --seconds <s> --trace <0|1> [--size full|tiny]
//!                [--expected <file>] [--trace-out <file>] [--bless]
//! ```
//!
//! A run builds the world, warms it up to the window start and saves it
//! there. Repetition 0 measures the window on that world; every later
//! repetition rebuilds the world with the same builder calls, restores
//! the blob and measures the same window again, until `--seconds` have
//! passed. Every repetition must end with the same simulated statistics.
//! The last stdout line is one JSON object; `perfbench/README.md`
//! defines every metric. `perfbench/run.py` is the entry point that
//! builds this binary and pins its environment.

mod world;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};

use simnet::time::SimTime;
use world::{
    announces, conns_live, flow_cheap, packet_cheap, shard_down, Cheap, Size, Stats, Toggle,
    Window, Workload, World, CHEAP,
};

/// Expected statistics at the canonical seed, one
/// `<workload> <size> <seed> <statistic> <value>` line each.
const EXPECTED: &str = include_str!("../expected.txt");

/// A run stops adding repetitions after this long whatever its floors,
/// so it always ends well inside three minutes.
const HARD_CAP: Duration = Duration::from_secs(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    expected: Option<String>,
    trace_out: Option<String>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: Workload::Swarm,
        seed: Workload::CANONICAL_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        expected: None,
        trace_out: None,
        bless: false,
    };
    let mut named = false;
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(&v).ok_or(format!("unknown workload {v}"))?;
                named = true;
            }
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => a.size = Size::parse(&v).ok_or(format!("unknown size {v}"))?,
            "--expected" => a.expected = Some(v),
            "--trace-out" => a.trace_out = Some(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(a)
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            println!("FAILED {what}: {e}");
        }
    }
}

/// Stored statistics for `(workload, size)`, at the canonical seed.
fn expected_for(text: &str, wl: Workload, size: Size) -> Vec<(String, u64)> {
    let seed = Workload::CANONICAL_SEED.to_string();
    text.lines()
        .map(str::split_whitespace)
        .filter_map(|mut f| {
            let key = (f.next()?, f.next()?, f.next()?);
            let (name, value) = (f.next()?, f.next()?.parse().ok()?);
            (key == (wl.name(), size.name(), seed.as_str())).then(|| (name.to_string(), value))
        })
        .collect()
}

fn compare(want: &[(String, u64)], got: &Stats) -> Result<(), String> {
    if want.is_empty() {
        return Err("no stored expectation".into());
    }
    for i in 0..want.len().max(got.0.len()) {
        let w = want.get(i).map(|(n, v)| (n.as_str(), *v));
        let g = got.0.get(i).copied();
        if w != g {
            return Err(format!(
                "first difference at #{i}: got {g:?}, expected {w:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    at_open: Cheap,
    delta: [i64; 5],
}

/// In-memory span recorder; inert unless the run is traced. Spans nest
/// through an open stack and carry [`CHEAP`] counter deltas read at
/// their boundaries (zero where no world exists yet).
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, c: Cheap) {
        if self.on {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_ns: self.ns(),
                end_ns: 0,
                at_open: c,
                delta: [0; 5],
            });
            self.stack.push(self.spans.len() - 1);
        }
    }

    fn close(&mut self, c: Cheap) {
        if self.on {
            let i = self.stack.pop().expect("close matches an open span");
            let end = self.ns();
            let s = &mut self.spans[i];
            s.end_ns = end;
            for (d, (now, then)) in s.delta.iter_mut().zip(c.iter().zip(s.at_open)) {
                *d = *now as i64 - then as i64;
            }
        }
    }

    /// Each span's duration minus the time its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    fn write(&self, path: &str, head: &str) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let own = self.self_ns();
        let mut out = format!("{{{head},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let deltas: Vec<String> = CHEAP
                .iter()
                .zip(s.delta)
                .map(|(n, d)| format!("\"{n}\":{d}"))
                .collect();
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"deltas\":{{{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                own[i],
                deltas.join(",")
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

// ---------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------

/// What one pass over simulated time records.
#[derive(Default)]
struct Probe {
    /// Record step spans and per-event / per-tick samples.
    traced: bool,
    steps_ns: Vec<u64>,
    event_ns: Vec<u64>,
    conns_live: Vec<u64>,
    /// Tracker announces served while a shard was down.
    outage_announces: u64,
}

/// Runs the world to `to`, applying each tracker toggle in `(now, to]`
/// at its instant, and timing one step per flow tick or packet slice.
fn advance(
    world: &mut World,
    to: SimTime,
    win: &Window,
    toggles: &[Toggle],
    p: &mut Probe,
    tr: &mut Tracer,
) {
    match world {
        World::Flow(w) => {
            let now = w.now();
            let mut down_since = shard_down(w).then(|| announces(w));
            let cuts: Vec<(SimTime, Option<Toggle>)> = toggles
                .iter()
                .filter(|t| t.0 > now && t.0 <= to)
                .map(|&t| (t.0, Some(t)))
                .chain([(to, None)])
                .collect();
            for (end, toggle) in cuts {
                let mut last = Instant::now();
                if p.traced {
                    tr.open("tick", flow_cheap(w));
                }
                w.run_until(end, |w| {
                    let now = Instant::now();
                    p.steps_ns.push((now - last).as_nanos() as u64);
                    if p.traced {
                        tr.close(flow_cheap(w));
                        p.conns_live.push(conns_live(w));
                        tr.open("tick", flow_cheap(w));
                    }
                    last = now;
                });
                if p.traced {
                    tr.close(flow_cheap(w));
                }
                if let Some((_, shard, down)) = toggle {
                    tr.open("outage.toggle", flow_cheap(w));
                    if down {
                        down_since = Some(announces(w));
                    } else if let Some(a) = down_since.take() {
                        p.outage_announces += announces(w) - a;
                    }
                    w.set_tracker_shard_down(shard, down);
                    tr.close(flow_cheap(w));
                }
            }
            if let Some(a) = down_since {
                p.outage_announces += announces(w) - a;
            }
        }
        World::Packet(w) => {
            let mut t = w.now();
            while t < to {
                t = (t + win.slice).min(to);
                let start = Instant::now();
                if p.traced {
                    tr.open("slice", packet_cheap(w));
                    let mut last = start;
                    w.run_until(t, |_| {
                        let now = Instant::now();
                        p.event_ns.push((now - last).as_nanos() as u64);
                        last = now;
                    });
                    tr.close(packet_cheap(w));
                } else {
                    w.run_until(t, |_| {});
                }
                p.steps_ns.push(start.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Workload generation, world build and `start()`, each its own span.
fn setup(wl: Workload, size: Size, seed: u64, tr: &mut Tracer) -> (World, f64) {
    let t = Instant::now();
    tr.open("setup.generate", [0; 5]);
    let recipe = wl.generate(size, seed);
    tr.close([0; 5]);
    tr.open("setup.build", [0; 5]);
    let mut world = recipe.build(seed);
    tr.close(world.cheap());
    tr.open("setup.start", world.cheap());
    world.start();
    tr.close(world.cheap());
    let took = t.elapsed().as_secs_f64();
    (world, took)
}

/// Untimed straight run to the window end; the statistics the gate
/// compares against `expected.txt`.
fn straight_stats(wl: Workload, size: Size, seed: u64) -> Result<Stats, String> {
    catch_unwind(|| {
        let mut tr = Tracer::new();
        let (mut w, _) = setup(wl, size, seed, &mut tr);
        let win = wl.window(size);
        let toggles = wl.toggles(size);
        advance(
            &mut w,
            win.to,
            &win,
            &toggles,
            &mut Probe::default(),
            &mut tr,
        );
        w.feasible().map(|()| w.stats())
    })
    .map_err(|_| "panicked".to_string())?
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    save_s: Vec<f64>,
    restore_s: Vec<f64>,
    /// Host seconds per simulated second, untraced repetitions.
    wall_per_vsec: Vec<f64>,
    /// The same, traced repetitions.
    traced_wall_per_vsec: Vec<f64>,
    /// Untraced window host time per repetition.
    window_ns: Vec<u64>,
    steps_ns: Vec<u64>,
    event_ns: Vec<u64>,
    conns_live: Vec<u64>,
    reps: usize,
    traced_reps: usize,
    blob_bytes: usize,
    outage_announces: u64,
    /// Statistics at the window start and end.
    at_from: Stats,
    at_to: Stats,
}

fn measure(args: &Args, gate: &mut Gate, expected: &str, tr: &mut Tracer) -> Samples {
    let (wl, size, seed) = (args.workload, args.size, args.seed);
    let win = wl.window(size);
    let toggles = wl.toggles(size);
    let vsec = win.to.as_secs_f64() - win.from.as_secs_f64();
    let mut s = Samples::default();

    tr.open("warmup", [0; 5]);
    let (mut w0, took) = setup(wl, size, seed, tr);
    s.setup_s.push(took);
    advance(&mut w0, win.from, &win, &toggles, &mut Probe::default(), tr);
    tr.open("snapshot.save", w0.cheap());
    let blob = w0.save();
    tr.close(w0.cheap());
    tr.close(w0.cheap());
    s.blob_bytes = blob.len();

    let mut straight = Some(w0);
    let begin = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    loop {
        let enough = s.wall_per_vsec.len() >= win.min_reps && s.steps_ns.len() >= win.min_steps;
        if (enough && begin.elapsed() >= budget) || begin.elapsed() >= HARD_CAP {
            break;
        }
        // A traced run alternates untraced and traced repetitions so it
        // can report its own overhead.
        let traced = args.trace && s.reps % 2 == 0 && s.reps > 0;
        tr.on = traced;
        let rep = s.reps;
        let out = catch_unwind(AssertUnwindSafe(|| {
            tr.open("rep", [0; 5]);
            let mut w = match straight.take() {
                Some(w) => w,
                None => {
                    let (mut w, took) = setup(wl, size, seed, tr);
                    s.setup_s.push(took);
                    let t = Instant::now();
                    tr.open("snapshot.restore", w.cheap());
                    w.restore(&blob);
                    tr.close(w.cheap());
                    s.restore_s.push(t.elapsed().as_secs_f64());
                    let t = Instant::now();
                    tr.open("snapshot.save", w.cheap());
                    let again = w.save();
                    tr.close(w.cheap());
                    s.save_s.push(t.elapsed().as_secs_f64());
                    gate.check(
                        "restored world saves the identical blob",
                        if again == blob {
                            Ok(())
                        } else {
                            Err(format!("{} bytes vs {} saved", again.len(), blob.len()))
                        },
                    );
                    w
                }
            };
            let at_from = w.stats();
            let mut p = Probe {
                traced,
                ..Probe::default()
            };
            tr.open("window", w.cheap());
            let t = Instant::now();
            advance(&mut w, win.to, &win, &toggles, &mut p, tr);
            let wall = t.elapsed();
            tr.close(w.cheap());
            let at_to = w.stats();
            gate.check("rates feasible at window end", w.feasible());
            tr.close([0; 5]);
            (w, p, wall, at_from, at_to)
        }));
        let Ok((w, p, wall, at_from, at_to)) = out else {
            tr.stack.clear();
            gate.check(&format!("repetition {rep}"), Err("panicked".into()));
            break;
        };
        if rep == 0 {
            if seed == Workload::CANONICAL_SEED {
                gate.check(
                    "statistics match expected.txt",
                    compare(&expected_for(expected, wl, size), &at_to),
                );
            }
            s.at_from = at_from;
            s.at_to = at_to;
        } else {
            gate.check(
                "restored repetition repeats the straight run's statistics",
                compare(
                    &s.at_to
                        .0
                        .iter()
                        .map(|&(n, v)| (n.to_string(), v))
                        .collect::<Vec<_>>(),
                    &at_to,
                ),
            );
        }
        let wpv = wall.as_secs_f64() / vsec;
        if traced {
            s.traced_wall_per_vsec.push(wpv);
            s.traced_reps += 1;
            s.event_ns.extend(p.event_ns);
            s.conns_live.extend(p.conns_live);
        } else if rep > 0 {
            // Repetition 0 is the reference run; the timed windows all
            // start from a freshly restored world, so they are alike.
            s.wall_per_vsec.push(wpv);
            s.window_ns.push(wall.as_nanos() as u64);
            s.steps_ns.extend(p.steps_ns);
        }
        s.outage_announces = p.outage_announces;
        s.reps += 1;
        drop(w);
    }
    s
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of a sorted slice.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it.
fn tail_rung(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|q| ((1.0 - q) * n as f64).round() >= 10.0)
        .unwrap_or(0.5)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A metric as printed: name, value, unit, and the base it rests on.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn end_to_end(win: &Window, s: &Samples, gate: &Gate) -> Vec<Metric> {
    let mut steps = s.steps_ns.clone();
    steps.sort_unstable();
    // The rung comes from the run's guaranteed floor, not from how many
    // steps this host managed, so every run reports the same percentile.
    let rung = tail_rung(win.min_steps);
    let beyond = steps.len() - ((rung * steps.len() as f64).ceil() as usize).min(steps.len());
    let snapshot: Vec<f64> = s
        .save_s
        .iter()
        .zip(&s.restore_s)
        .map(|(a, b)| a + b)
        .collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        Metric {
            name: "setup_s",
            value: median(&s.setup_s),
            unit: "s",
            note: format!("median of {} set-ups", s.setup_s.len()),
        },
        Metric {
            name: "wall_per_vsec",
            value: median(&s.wall_per_vsec),
            unit: "s/s",
            note: format!("median of {} windows", s.wall_per_vsec.len()),
        },
        Metric {
            name: "step_p50_ms",
            value: ms(quantile(&steps, 0.5)),
            unit: "ms",
            note: format!("n={} steps", steps.len()),
        },
        Metric {
            name: "step_tail_ms",
            value: ms(quantile(&steps, rung)),
            unit: "ms",
            note: format!(
                "p{} of n={} steps, {beyond} beyond",
                rung * 100.0,
                steps.len()
            ),
        },
        Metric {
            name: "snapshot_s",
            value: median(&snapshot),
            unit: "s",
            note: format!(
                "median of {} save+restore, blob {} B",
                snapshot.len(),
                s.blob_bytes
            ),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
            note: "VmHWM of this process".into(),
        },
        Metric {
            name: "failed_frac",
            value: gate.failed as f64 / gate.attempted.max(1) as f64,
            unit: "ratio",
            note: format!("{} failed / {} checks", gate.failed, gate.attempted),
        },
    ]
}

/// Per-layer metrics: `(layer, name, unit)` in report order.
const LAYERS: &[(&str, &str, &str)] = &[
    ("simnet::event", "event.events", "count"),
    ("simnet::event", "event.scheduled", "count"),
    ("simnet::event", "event.cancelled", "count"),
    ("simnet::event", "event.cancel_noops", "count"),
    ("simnet::event", "event.max_live", "count"),
    ("simnet::event", "event.ns_per_event", "ns"),
    ("simulation::flow", "flow.ticks", "count"),
    ("simulation::flow", "flow.tick_ms", "ms"),
    ("simulation::flow", "flow.stall_aborts", "count"),
    ("simulation::flow", "flow.conns_live", "count"),
    ("simulation::rates", "rates.solves", "count"),
    ("simulation::rates", "rates.skips", "count"),
    ("simulation::rates", "rates.skip_ratio", "ratio"),
    ("simulation::rates", "rates.full_solves", "count"),
    ("simulation::rates", "rates.incremental_solves", "count"),
    ("simulation::rates", "rates.class_solves", "count"),
    ("simulation::rates", "rates.resources_touched", "count"),
    ("simulation::rates", "rates.flows_touched", "count"),
    ("bittorrent::client", "client.downloaded_bytes", "B"),
    ("bittorrent::client", "client.uploaded_bytes", "B"),
    ("bittorrent::client", "client.connections_opened", "count"),
    ("bittorrent::client", "client.dial_failures", "count"),
    ("bittorrent::client", "client.dial_success_ratio", "ratio"),
    ("bittorrent::client", "client.duplicate_blocks", "count"),
    ("bittorrent::client", "client.dup_block_ratio", "ratio"),
    ("bittorrent::client", "client.snubs", "count"),
    ("bittorrent::client", "client.keepalive_closes", "count"),
    ("bittorrent::client", "client.pex_sent", "count"),
    ("bittorrent::client", "client.pex_received", "count"),
    ("bittorrent::client", "client.breaker_trips", "count"),
    ("bittorrent::client", "client.completed", "count"),
    ("bittorrent::tracker", "tracker.announces", "count"),
    ("bittorrent::tracker", "tracker.sheds", "count"),
    ("bittorrent::tracker", "tracker.outage_announces", "count"),
    ("simnet::snapshot", "snapshot.save_ms", "ms"),
    ("simnet::snapshot", "snapshot.restore_ms", "ms"),
    ("simnet::snapshot", "snapshot.bytes", "B"),
    ("simulation::packet", "packet.events", "count"),
    ("simulation::packet", "packet.event_ns_p50", "ns"),
    ("simulation::packet", "packet.event_ns_tail", "ns"),
    ("sim_tcp::endpoint", "tcp.data_segments", "count"),
    ("sim_tcp::endpoint", "tcp.retransmissions", "count"),
    ("sim_tcp::endpoint", "tcp.retx_ratio", "ratio"),
    ("sim_tcp::endpoint", "tcp.pure_acks", "count"),
    ("sim_tcp::endpoint", "tcp.dupacks", "count"),
    ("sim_tcp::endpoint", "tcp.bytes_acked", "B"),
    ("simnet::wireless", "wireless.frames_accepted", "count"),
    ("simnet::wireless", "wireless.frames_delivered", "count"),
    ("simnet::wireless", "wireless.dropped_buffer", "count"),
    ("simnet::wireless", "wireless.dropped_error", "count"),
    ("simnet::wireless", "wireless.delivery_ratio", "ratio"),
    ("wp2p::am", "am.decoupled", "count"),
    ("wp2p::am", "am.dupacks_dropped", "count"),
    ("wp2p::am", "am.dupacks_seen", "count"),
    ("trace", "trace.overhead_wall_per_vsec", "s/s"),
    ("trace", "self_ms.rep", "ms"),
    ("trace", "self_ms.setup.generate", "ms"),
    ("trace", "self_ms.setup.build", "ms"),
    ("trace", "self_ms.setup.start", "ms"),
    ("trace", "self_ms.snapshot.restore", "ms"),
    ("trace", "self_ms.snapshot.save", "ms"),
    ("trace", "self_ms.window", "ms"),
    ("trace", "self_ms.tick", "ms"),
    ("trace", "self_ms.slice", "ms"),
    ("trace", "self_ms.outage.toggle", "ms"),
];

/// Counts over the window: the difference for world-lifetime counters,
/// the end value for sums over live sessions (client, TCP and AM
/// sessions end with hand-offs and teardowns, so their sums can fall).
fn per_layer(wl: Workload, win: &Window, s: &Samples, tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let end = |n: &str| s.at_to.get(n) as f64;
    let delta = |n: &str| s.at_to.get(n).saturating_sub(s.at_from.get(n)) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let flow = wl != Workload::Packet;
    let mut m = BTreeMap::new();
    for n in [
        "event.events",
        "event.scheduled",
        "event.cancelled",
        "event.cancel_noops",
        "flow.stall_aborts",
        "rates.solves",
        "rates.skips",
        "rates.full_solves",
        "rates.incremental_solves",
        "rates.class_solves",
        "rates.resources_touched",
        "rates.flows_touched",
        "tracker.announces",
        "tracker.sheds",
        "wireless.frames_accepted",
        "wireless.frames_delivered",
        "wireless.dropped_buffer",
        "wireless.dropped_error",
    ] {
        m.insert(n, delta(n));
    }
    for &(_, n, _) in LAYERS {
        if n.starts_with("client.")
            || n.starts_with("tcp.")
            || n.starts_with("am.")
            || n == "event.max_live"
        {
            m.insert(n, end(n));
        }
    }
    let window_ns = median(&s.window_ns.iter().map(|&v| v as f64).collect::<Vec<_>>());
    m.insert(
        "event.ns_per_event",
        ratio(window_ns, delta("event.events")),
    );
    let ticks = if flow {
        ((win.to.as_secs_f64() - win.from.as_secs_f64()) / 0.25).round()
    } else {
        0.0
    };
    m.insert("flow.ticks", ticks);
    let mean = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64);
    m.insert("flow.conns_live", mean(&s.conns_live));
    m.insert(
        "rates.skip_ratio",
        ratio(
            delta("rates.skips"),
            delta("rates.solves") + delta("rates.skips"),
        ),
    );
    let opened = end("client.connections_opened");
    m.insert(
        "client.dial_success_ratio",
        ratio(opened, opened + end("client.dial_failures")),
    );
    let blocks = end("client.downloaded_bytes") / f64::from(wl.block_size());
    m.insert(
        "client.dup_block_ratio",
        ratio(end("client.duplicate_blocks"), blocks),
    );
    m.insert("tracker.outage_announces", s.outage_announces as f64);
    m.insert("snapshot.save_ms", median(&s.save_s) * 1e3);
    m.insert("snapshot.restore_ms", median(&s.restore_s) * 1e3);
    m.insert("snapshot.bytes", s.blob_bytes as f64);
    let mut ev = s.event_ns.clone();
    ev.sort_unstable();
    let reps = s.traced_reps.max(1) as f64;
    m.insert("packet.events", ev.len() as f64 / reps);
    m.insert("packet.event_ns_p50", quantile(&ev, 0.5) as f64);
    m.insert(
        "packet.event_ns_tail",
        quantile(&ev, tail_rung(ev.len())) as f64,
    );
    m.insert(
        "tcp.retx_ratio",
        ratio(end("tcp.retransmissions"), end("tcp.data_segments")),
    );
    m.insert(
        "wireless.delivery_ratio",
        ratio(
            delta("wireless.frames_delivered"),
            delta("wireless.frames_accepted"),
        ),
    );
    m.insert(
        "trace.overhead_wall_per_vsec",
        median(&s.traced_wall_per_vsec) - median(&s.wall_per_vsec),
    );
    // Span self time per traced repetition; warm-up spans excluded.
    let own = tr.self_ns();
    let mut in_warmup = vec![false; tr.spans.len()];
    for (i, sp) in tr.spans.iter().enumerate() {
        in_warmup[i] = sp.name == "warmup" || sp.parent.is_some_and(|p| in_warmup[p]);
    }
    for &(_, n, _) in LAYERS {
        if let Some(span) = n.strip_prefix("self_ms.") {
            let total: u64 = tr
                .spans
                .iter()
                .zip(&own)
                .zip(&in_warmup)
                .filter(|((sp, _), &w)| sp.name == span && !w)
                .map(|((_, &o), _)| o)
                .sum();
            m.insert(n, total as f64 / 1e6 / reps);
        }
    }
    // Tick spans have no children, so their self time is their length.
    m.insert("flow.tick_ms", m["self_ms.tick"]);
    m
}

fn json_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("wp2p-perfbench: refusing a debug build (the invariant checker would dominate); build with --release");
        exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wp2p-perfbench: {e}");
            exit(2);
        }
    };
    let expected = match &args.expected {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("wp2p-perfbench: cannot read {path}: {e}");
            exit(2)
        }),
        None => EXPECTED.to_string(),
    };
    let (wl, size) = (args.workload, args.size);

    if args.bless {
        match straight_stats(wl, size, Workload::CANONICAL_SEED) {
            Ok(st) => {
                for (n, v) in &st.0 {
                    println!(
                        "{} {} {} {n} {v}",
                        wl.name(),
                        size.name(),
                        Workload::CANONICAL_SEED
                    );
                }
            }
            Err(e) => {
                eprintln!("wp2p-perfbench: {e}");
                exit(1);
            }
        }
        return;
    }

    let mut gate = Gate::default();
    // Every run, whatever its seed, first replays the tiny canonical world
    // and compares it with its stored statistics.
    gate.check(
        "tiny canonical world matches expected.txt",
        straight_stats(wl, Size::Tiny, Workload::CANONICAL_SEED)
            .and_then(|st| compare(&expected_for(&expected, wl, Size::Tiny), &st)),
    );

    let mut tr = Tracer::new();
    tr.on = args.trace;
    let s = measure(&args, &mut gate, &expected, &mut tr);
    let win = wl.window(size);
    println!(
        "workload={} size={} seed={} (canonical {}, held out {}) window={}..{} vsec reps={} (1 straight + {} restored, {} traced)",
        wl.name(),
        size.name(),
        args.seed,
        Workload::CANONICAL_SEED,
        Workload::HELD_OUT_SEED,
        win.from.as_secs_f64(),
        win.to.as_secs_f64(),
        s.reps,
        s.reps.saturating_sub(1),
        s.traced_reps
    );
    let per_window: Vec<String> = s.wall_per_vsec.iter().map(|v| format!("{v:.4}")).collect();
    println!("wall_per_vsec by window: {}", per_window.join(" "));
    println!(
        "digest {} {} seed={} {:016x}",
        wl.name(),
        size.name(),
        args.seed,
        s.at_to.digest()
    );

    let mut json = Vec::new();
    if !args.trace {
        for m in end_to_end(&win, &s, &gate) {
            println!(
                "metric {:<14} {:>16.6} {:<5} {}",
                m.name, m.value, m.unit, m.note
            );
            // failed_frac is carried by the `attempted`/`failed` fields.
            if m.name != "failed_frac" {
                json.push(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_value(m.value),
                    m.unit
                ));
            }
        }
    } else {
        let vals = per_layer(wl, &win, &s, &tr);
        for &(layer, name, unit) in LAYERS {
            let v = vals.get(name).copied().unwrap_or(0.0);
            println!("layer {layer:<20} {name:<28} {v:>18.4} {unit}");
            json.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_value(v)
            ));
        }
        if let Some(path) = &args.trace_out {
            let head = format!(
                "\"workload\":\"{}\",\"size\":\"{}\",\"seed\":{}",
                wl.name(),
                size.name(),
                args.seed
            );
            match tr.write(path, &head) {
                Ok(()) => println!("spans: {} written to {path}", tr.spans.len()),
                Err(e) => gate.check("write the span file", Err(e.to_string())),
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        json.join(",")
    );
    exit(if gate.failed == 0 { 0 } else { 1 });
}
