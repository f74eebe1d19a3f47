//! Micro-benchmarks for the hot substrate paths: these are the inner
//! loops of every experiment, so their cost bounds the scale the
//! simulation worlds can reach.
//!
//! Uses a small self-contained timing harness (`harness = false`) so the
//! workspace builds with no external dev-dependencies. Each benchmark is
//! auto-calibrated to a ~200 ms measurement window and reports ns/iter
//! over the best of three rounds. Run with
//! `cargo bench --bench substrates [filter]`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bittorrent::bencode::Value;
use bittorrent::choker::{Choker, ChokerConfig, PeerSnapshot};
use bittorrent::metainfo::Metainfo;
use bittorrent::picker::{PickContext, PiecePicker, RarestFirst};
use bittorrent::sha1::Sha1;
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskSpec, TorrentSpec};
use p2p_simulation::rates::{max_min_rates, FlowDemand};
use sim_tcp::reasm::Reassembly;
use sim_tcp::seq::SeqNum;
use simnet::event::EventQueue;
use simnet::link::{Link, LinkConfig};
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};

/// Runs `f` long enough for a stable estimate and reports the best
/// per-iteration time of three measurement rounds.
fn bench<R>(filter: Option<&str>, name: &str, mut f: impl FnMut() -> R) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    // Calibrate: find an iteration count filling ~200 ms.
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let el = t0.elapsed();
        if el >= Duration::from_millis(50) || iters >= 1 << 30 {
            let per = el.as_nanos().max(1) / iters as u128;
            iters = ((200_000_000 / per).max(1)) as u64;
            break;
        }
        iters *= 4;
    }
    let mut best = u128::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() / iters as u128);
    }
    let human = if best >= 1_000_000 {
        format!("{:.3} ms", best as f64 / 1e6)
    } else if best >= 1_000 {
        format!("{:.3} µs", best as f64 / 1e3)
    } else {
        format!("{best} ns")
    };
    println!("{name:<44} {human:>12}/iter   ({iters} iters)");
}

fn bench_bencode(filter: Option<&str>) {
    let meta = Metainfo::synthetic("bench.iso", "tr", 256 * 1024, 688 * 1024 * 1024, 1);
    let bytes = meta.to_bytes();
    bench(filter, "bencode/encode_torrent", || meta.to_bytes());
    bench(filter, "bencode/decode_torrent", || {
        Value::decode(&bytes).unwrap()
    });
}

fn bench_sha1(filter: Option<&str>) {
    let data = vec![0xA5u8; 256 * 1024];
    bench(filter, "sha1/piece_256k", || Sha1::digest(&data));
}

fn bench_event_queue(filter: Option<&str>) {
    bench(filter, "event_queue/schedule_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule_at(SimTime::from_micros((i * 7919) % 10_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum += e;
        }
        sum
    });
    // The flow-world shape at scale: a deep queue (tens of thousands of
    // pending ticks/dials spread over minutes of virtual time), popped in
    // order with each pop rescheduling a tick a few hundred ms ahead.
    bench(filter, "event_queue/deep_churn_64k", || {
        let mut q = EventQueue::new();
        let mut t: u64 = 0x9E3779B97F4A7C15;
        for i in 0..65_536u64 {
            t = t
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.schedule_at(SimTime::from_micros(t % 120_000_000), i);
        }
        let mut sum = 0u64;
        for _ in 0..65_536u64 {
            let (at, e) = q.pop().expect("queue pre-filled");
            sum = sum.wrapping_add(e);
            q.schedule_at(at + SimDuration::from_millis(200), e);
        }
        while let Some((_, e)) = q.pop() {
            sum = sum.wrapping_add(e);
        }
        sum
    });
}

fn bench_reassembly(filter: Option<&str>) {
    let mut rng = SimRng::new(3);
    let mut order: Vec<u32> = (0..1000).collect();
    rng.shuffle(&mut order);
    bench(filter, "tcp_reassembly/1k_segments_shuffled", || {
        let mut r = Reassembly::new(SeqNum(0));
        for &i in &order {
            r.on_data(SeqNum(i * 1460), 1460);
        }
        r.delivered_total()
    });
}

fn bench_picker(filter: Option<&str>) {
    // The Fedora-image scale the paper uses: 2752 pieces.
    let avail: Vec<u32> = (0..2752).map(|i| (i % 37) + 1).collect();
    let candidates: Vec<u32> = (0..2752).collect();
    let ctx = PickContext {
        availability: &avail,
        downloaded_fraction: 0.5,
        stable_for: SimDuration::from_secs(60),
    };
    let mut rng = SimRng::new(1);
    let mut p = RarestFirst;
    bench(filter, "picker/rarest_first_2752_pieces", || {
        p.pick(&candidates, &ctx, &mut rng)
    });
}

fn bench_choker(filter: Option<&str>) {
    let peers: Vec<PeerSnapshot> = (0..50)
        .map(|k| PeerSnapshot {
            key: k,
            interested: k % 3 != 0,
            credit: (k * 977 % 101) as f64,
        })
        .collect();
    let mut ch = Choker::new(ChokerConfig::default());
    let mut rng = SimRng::new(2);
    let mut t = SimTime::ZERO;
    bench(filter, "choker/rechoke_50_peers", || {
        t += SimDuration::from_secs(10);
        ch.rechoke(t, &peers, &mut rng)
    });
}

fn bench_rates(filter: Option<&str>) {
    // A swarm-scale allocation: 500 flows over 200 nodes' resources.
    let flows: Vec<FlowDemand> = (0..500)
        .map(|i| FlowDemand::new((i * 13) % 400, (i * 29 + 1) % 400))
        .collect();
    let caps: Vec<f64> = (0..400)
        .map(|i| 50_000.0 + (i % 7) as f64 * 30_000.0)
        .collect();
    bench(filter, "rates/max_min_500_flows", || {
        max_min_rates(&flows, &caps)
    });

    // Worst case for the freeze loop: every flow shares one resource, so
    // the allocation has a single round freezing all flows at once, but
    // each flow also owns a private second resource — the pre-overhaul
    // solver rescanned all N flows per round.
    let n = 2000usize;
    let shared = 0usize;
    let worst_flows: Vec<FlowDemand> = (0..n).map(|i| FlowDemand::new(shared, i + 1)).collect();
    let mut worst_caps = vec![1e9; n + 1];
    worst_caps[shared] = 1_000_000.0;
    bench(filter, "rates/max_min_2000_flows_one_bottleneck", || {
        max_min_rates(&worst_flows, &worst_caps)
    });
}

fn bench_link(filter: Option<&str>) {
    let mut rng = SimRng::new(4);
    bench(filter, "link/send_1k_packets", || {
        let mut link = Link::new(LinkConfig {
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_millis(10),
            queue_packets: 64,
            ber: 1e-6,
        });
        let mut t = SimTime::ZERO;
        let mut delivered = 0u32;
        for _ in 0..1000 {
            if link.send(t, 1500, &mut rng).delivered_at().is_some() {
                delivered += 1;
            }
            t += SimDuration::from_micros(1200);
        }
        delivered
    });
}

/// Builds a small saturated swarm: every leecher has demand against the
/// one seed, so flow rates are contended on every tick.
fn saturated_swarm(meta: &Metainfo) -> (FlowWorld, usize) {
    let torrent = TorrentSpec::from_metainfo(meta, 64 * 1024);
    let mut w = FlowWorld::new(FlowConfig::default(), 1);
    let sn = w.add_node(Access::campus());
    w.add_task(TaskSpec::default_client(sn, torrent, true));
    let mut last = 0;
    for _ in 0..9 {
        let n = w.add_node(Access::residential());
        last = w.add_task(TaskSpec::default_client(n, torrent, false));
    }
    w.start();
    (w, last)
}

fn bench_flow_world(filter: Option<&str>) {
    let meta = Metainfo::synthetic("bench.bin", "tr", 256 * 1024, 16 * 1024 * 1024, 1);
    bench(filter, "flow_world/10_peer_swarm_60s", || {
        let (mut w, last) = saturated_swarm(&meta);
        w.run_until(SimTime::from_secs(60), |_| {});
        w.downloaded_bytes(last)
    });

    // End-to-end tick cost: advance a warmed-up saturated swarm by one
    // simulated second (4 ticks at the 250 ms cadence) per iteration.
    // Pins the Layer-2 win: clean ticks must skip the max-min solve.
    let big = Metainfo::synthetic("bench.bin", "tr", 256 * 1024, 2 * 1024 * 1024 * 1024, 1);
    let (mut w, _) = saturated_swarm(&big);
    w.run_until(SimTime::from_secs(30), |_| {});
    let mut deadline = SimTime::from_secs(30);
    bench(filter, "flow_world/tick_1s_saturated", || {
        deadline += SimDuration::from_secs(1);
        w.run_until(deadline, |_| {});
        w.rate_solves()
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Cargo passes --bench (and sometimes harness flags); the first
    // non-flag argument is a substring filter on benchmark names.
    let filter = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .map(|s| s.as_str());
    println!("substrate benchmarks (best of 3 rounds):");
    bench_bencode(filter);
    bench_sha1(filter);
    bench_event_queue(filter);
    bench_reassembly(filter);
    bench_picker(filter);
    bench_choker(filter);
    bench_rates(filter);
    bench_link(filter);
    bench_flow_world(filter);
}
