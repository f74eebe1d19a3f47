//! The three workloads: how each world is generated, built and started
//! through the simulator's public API, which simulated window is
//! measured, and which statistics are read back from public accessors.

use bittorrent::client::ClientConfig;
use bittorrent::metainfo::Metainfo;
use bittorrent::progress::TorrentProgress;
use p2p_simulation::experiments::common::synthetic_torrent;
use p2p_simulation::experiments::scale::swarm_mix;
use p2p_simulation::experiments::service::{
    generate_workload, ServiceParams, ServiceWorkload, CLASSES, CLASS_UP,
};
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskSpec, TorrentSpec};
use p2p_simulation::packet::{PacketConfig, PacketWorld};
use simnet::mobility::MobilityProcess;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::{Direction, WirelessConfig};
use wp2p::am::AmConfig;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One 2048-peer torrent: every connection busy.
    Swarm,
    /// The service tier's multi-swarm mix: mostly idle connections.
    Service,
    /// BitTorrent over per-segment TCP on shared WLAN channels.
    Packet,
}

/// Full size is the measured workload; tiny is the smoke-test and
/// every-run gate size (same code paths, well under a second).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Swarm, Workload::Service, Workload::Packet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Swarm => "swarm-2048",
            Workload::Service => "service-mix",
            Workload::Packet => "packet-wlan",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed whose simulated statistics are stored in `expected.txt`.
    pub const CANONICAL_SEED: u64 = 1;
    /// A seed never used while writing the benchmark, for checking later
    /// claims on inputs they were not tuned on.
    pub const HELD_OUT_SEED: u64 = 7919;
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn parse(s: &str) -> Option<Size> {
        [Size::Full, Size::Tiny].into_iter().find(|z| z.name() == s)
    }
}

/// The simulated interval a run measures, and how it is cut into steps.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// End of the untimed warm-up; the snapshot is taken here.
    pub from: SimTime,
    /// End of the measured window.
    pub to: SimTime,
    /// Packet world: the fixed simulated slice timed as one step. The
    /// flow world's step is its own 250 ms tick.
    pub slice: SimDuration,
    /// Step samples a run must collect before it may stop, so the tail
    /// percentile always has at least ten samples beyond it.
    pub min_steps: usize,
    /// Timed (untraced, restored) windows a run must make before it may stop.
    pub min_reps: usize,
}

/// `(at, shard, down)` tracker-shard toggles the workload applies.
pub type Toggle = (SimTime, usize, bool);

/// Everything a world is built from, generated from `(size, seed)`.
pub enum Recipe {
    Swarm {
        torrent: TorrentSpec,
        peers: usize,
    },
    Service {
        params: Box<ServiceParams>,
        plan: Box<ServiceWorkload>,
    },
    Packet {
        meta: Box<Metainfo>,
        nodes: usize,
    },
}

/// A built world.
pub enum World {
    Flow(Box<FlowWorld>),
    Packet(Box<PacketWorld>),
}

const SWARM_FILE: u64 = 8 * 1024 * 1024;
const SWARM_PIECE: u32 = 256 * 1024;
const PACKET_FILE: u64 = 64 * 1024 * 1024;
const PACKET_PIECE: u32 = 256 * 1024;
const PACKET_BLOCK: u32 = 16 * 1024;
/// Upload cap of every packet-world client, bytes/second.
const PACKET_UPLOAD: f64 = 1_000_000.0;
/// Downlink of every service-tier leech, as in the service experiment.
const SERVICE_LEECH_DOWN: f64 = 4_000_000.0 / 8.0;

fn secs(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

fn service_params(size: Size) -> ServiceParams {
    match size {
        Size::Full => ServiceParams::quick(),
        // The service experiment's own tiny test tier.
        Size::Tiny => ServiceParams::quick()
            .swarms(8)
            .tracker_shards(2)
            .total_peers(96)
            .min_swarm(4)
            .file_size(256 * 1024)
            .probe_file_size(1024 * 1024)
            .probe_leeches_per_class(4)
            .flash_crowds(2)
            .flash_size(4)
            .flash_mean_gap(SimDuration::from_secs(10))
            .outage_at(SimDuration::from_secs(60))
            .outage_len(SimDuration::from_secs(20))
            .day_length(SimDuration::from_secs(120))
            .horizon(SimDuration::from_secs(240)),
    }
}

impl Workload {
    pub fn window(self, size: Size) -> Window {
        let tiny = size == Size::Tiny;
        let (from, to, slice) = match (self, tiny) {
            (Workload::Swarm, false) => (20.0, 30.0, 0.0),
            (Workload::Swarm, true) => (10.0, 15.0, 0.0),
            // Straddles the shard outage (quick: down at 120 s; tiny: 60 s).
            (Workload::Service, false) => (110.0, 130.0, 0.0),
            (Workload::Service, true) => (55.0, 65.0, 0.0),
            (Workload::Packet, false) => (4.0, 14.0, 0.05),
            (Workload::Packet, true) => (2.0, 3.0, 0.05),
        };
        let (min_steps, min_reps) = if tiny { (20, 2) } else { (200, 5) };
        Window {
            from: secs(from),
            to: secs(to),
            slice: SimDuration::from_secs_f64(slice),
            min_steps,
            min_reps,
        }
    }

    /// Tracker-shard toggles (service-mix only), in time order.
    pub fn toggles(self, size: Size) -> Vec<Toggle> {
        if self != Workload::Service {
            return Vec::new();
        }
        let p = service_params(size);
        let down = SimTime::ZERO + p.outage_at;
        vec![
            (down, p.outage_shard, true),
            (down + p.outage_len, p.outage_shard, false),
        ]
    }

    /// Block size of the workload's torrents (`synthetic_torrent` uses
    /// 64 KiB blocks).
    pub fn block_size(self) -> u32 {
        match self {
            Workload::Packet => PACKET_BLOCK,
            _ => 64 * 1024,
        }
    }

    /// Workload generation: pure in `(size, seed)`.
    pub fn generate(self, size: Size, seed: u64) -> Recipe {
        match self {
            Workload::Swarm => Recipe::Swarm {
                torrent: synthetic_torrent("swarm.bin", SWARM_PIECE, SWARM_FILE, seed),
                peers: if size == Size::Tiny { 64 } else { 2048 },
            },
            Workload::Service => {
                let params = service_params(size);
                let plan = generate_workload(&params, seed);
                Recipe::Service {
                    params: Box::new(params),
                    plan: Box::new(plan),
                }
            }
            Workload::Packet => Recipe::Packet {
                meta: Box::new(Metainfo::synthetic(
                    "wlan.bin",
                    "sim-tracker",
                    PACKET_PIECE,
                    PACKET_FILE,
                    seed,
                )),
                nodes: if size == Size::Tiny { 6 } else { 32 },
            },
        }
    }
}

impl Recipe {
    /// World construction through the builder calls, before `start`.
    pub fn build(&self, seed: u64) -> World {
        match self {
            Recipe::Swarm { torrent, peers } => {
                World::Flow(Box::new(build_swarm(*torrent, *peers, seed)))
            }
            Recipe::Service { params, plan } => {
                World::Flow(Box::new(build_service(params, plan, seed)))
            }
            Recipe::Packet { meta, nodes } => {
                World::Packet(Box::new(build_packet(meta, *nodes, seed)))
            }
        }
    }
}

/// The largest default `scale_sweep` cell: 1/16 seeds, a quarter of the
/// leeches mobile on wireless with jittered hand-offs, stall watchdog on.
fn build_swarm(torrent: TorrentSpec, peers: usize, seed: u64) -> FlowWorld {
    let (seeds, mobile, fixed) = swarm_mix(peers, 0.25);
    let mut w = FlowWorld::new(
        FlowConfig {
            stall_timeout: Some(SimDuration::from_secs(15)),
            ..FlowConfig::default()
        },
        seed,
    );
    for _ in 0..seeds {
        let n = w.add_node(Access::campus());
        w.add_task(TaskSpec::default_client(n, torrent, true));
    }
    let leeches = mobile + fixed;
    for i in 0..leeches {
        let n = if i < mobile {
            let n = w.add_node(Access::Wireless {
                capacity: 100_000.0,
            });
            w.set_mobility(
                n,
                MobilityProcess::with_jitter(
                    SimDuration::from_secs(45),
                    SimDuration::from_secs(5),
                    0.1,
                ),
            );
            n
        } else {
            w.add_node(Access::residential())
        };
        let mut spec = TaskSpec::default_client(n, torrent, false);
        spec.start_fraction = Some(0.5 * (i + 1) as f64 / (leeches + 1) as f64);
        w.add_task(spec);
    }
    w
}

/// The service experiment's world, built call for call from its plan.
fn build_service(params: &ServiceParams, plan: &ServiceWorkload, seed: u64) -> FlowWorld {
    let mut w = FlowWorld::new(
        FlowConfig {
            tracker_shards: params.tracker_shards,
            track_peer_bytes: true,
            ..FlowConfig::default()
        },
        seed,
    );
    let mut rng = SimRng::new(seed).fork(0x5e71_0003);
    let super_nodes: Vec<usize> = (0..plan.super_seeds)
        .map(|_| {
            let n = w.add_node(Access::campus());
            w.set_node_upload_cap(n, Some(params.super_seed_cap));
            n
        })
        .collect();
    let shared_nodes: Vec<usize> = (0..plan.shared_nodes)
        .map(|_| {
            w.add_node(Access::Wired {
                up: 2.0 * CLASS_UP[0],
                down: SERVICE_LEECH_DOWN,
            })
        })
        .collect();
    for swarm in &plan.swarms {
        let seed_node = match swarm.super_seed {
            Some(i) => super_nodes[i % super_nodes.len().max(1)],
            None => w.add_node(Access::campus()),
        };
        w.add_task(TaskSpec::default_client(seed_node, swarm.torrent, true));
        for l in &swarm.leeches {
            let node = match l.shared_node {
                Some(i) => shared_nodes[i % shared_nodes.len().max(1)],
                None => {
                    let up = CLASS_UP[l.class as usize % CLASSES];
                    w.add_node(if l.mobile.is_some() {
                        Access::Wireless {
                            capacity: up + 2_000_000.0 / 8.0,
                        }
                    } else {
                        Access::Wired {
                            up,
                            down: SERVICE_LEECH_DOWN,
                        }
                    })
                }
            };
            if let Some((period, outage)) = l.mobile {
                w.set_mobility(node, MobilityProcess::with_jitter(period, outage, 0.2));
            }
            let mut spec = TaskSpec::default_client(node, swarm.torrent, false);
            if l.head_start > 0.0 {
                spec.start_fraction = Some(l.head_start);
            }
            spec.start_at = l.start_at;
            w.add_task(spec);
        }
    }
    for &n in &shared_nodes {
        w.set_node_upload_cap(n, Some(2.0 * CLASS_UP[0] * rng.jitter(1.0, 0.1)));
    }
    w
}

/// One wired seed plus leeches: half the nodes on 802.11g channels at
/// BER 1e-5, with the AM filter on every other wireless node. Each leech
/// starts with a different third of the pieces, so every peer uploads
/// while it downloads: the bidirectional TCP the AM filter targets.
fn build_packet(meta: &Metainfo, nodes: usize, seed: u64) -> PacketWorld {
    let mut w = PacketWorld::new(PacketConfig::default(), seed);
    let ih = meta.info.info_hash();
    let (piece, length) = (meta.info.piece_length, meta.info.length);
    for i in 0..nodes {
        let wireless = i % 2 == 1;
        let n = w.add_node(wireless.then(|| WirelessConfig {
            ber: 1e-5,
            ..WirelessConfig::wlan_80211g()
        }));
        if wireless && i % 4 == 1 {
            w.set_am(n, AmConfig::default());
        }
        let progress = if i == 0 {
            TorrentProgress::complete(piece, length)
        } else {
            let mut p = TorrentProgress::with_block_size(piece, length, PACKET_BLOCK);
            for k in (0..p.num_pieces()).filter(|k| (*k as usize + i).is_multiple_of(3)) {
                p.mark_piece_complete(k);
            }
            p
        };
        let config = ClientConfig {
            upload_limit: Some(PACKET_UPLOAD),
            ..ClientConfig::default()
        };
        w.add_client_with_progress(n, config, ih, progress);
    }
    w
}

impl World {
    pub fn start(&mut self) {
        match self {
            World::Flow(w) => w.start(),
            World::Packet(w) => w.start_clients(),
        }
    }

    pub fn save(&self) -> Vec<u8> {
        match self {
            World::Flow(w) => w.save(),
            World::Packet(w) => w.save(),
        }
    }

    pub fn restore(&mut self, blob: &[u8]) {
        match self {
            World::Flow(w) => w.restore(blob),
            World::Packet(w) => w.restore(blob),
        }
    }

    /// End-of-run correctness condition beyond the statistics.
    pub fn feasible(&self) -> Result<(), String> {
        match self {
            World::Flow(w) => w.rates_feasible(),
            World::Packet(_) => Ok(()),
        }
    }

    /// O(1) counters read at every span boundary of a traced run.
    pub fn cheap(&self) -> Cheap {
        match self {
            World::Flow(w) => flow_cheap(w),
            World::Packet(w) => packet_cheap(w),
        }
    }

    /// Every simulated statistic of the world, cumulative since t = 0,
    /// in a fixed order. This list is the correctness digest.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::default();
        let (events, q) = match self {
            World::Flow(w) => (w.events_processed(), w.queue_stats()),
            World::Packet(w) => (w.events_processed(), w.queue_stats()),
        };
        s.push("event.events", events);
        s.push("event.scheduled", q.scheduled);
        s.push("event.cancelled", q.cancelled);
        s.push("event.cancel_noops", q.cancel_noops);
        s.push("event.max_live", q.max_live as u64);
        s.push("event.live", q.live as u64);
        let mut clients = Vec::new();
        let mut completed = 0u64;
        match self {
            World::Flow(w) => {
                let r = w.solver_stats();
                s.push("flow.stall_aborts", w.stall_aborts());
                s.push("rates.solves", w.rate_solves());
                s.push("rates.skips", w.rate_skips());
                s.push("rates.full_solves", r.full_solves);
                s.push("rates.incremental_solves", r.incremental_solves);
                s.push("rates.class_solves", r.class_solves);
                s.push("rates.resources_touched", r.resources_touched);
                s.push("rates.flows_touched", r.flows_touched);
                s.push("tracker.announces", announces(w));
                s.push(
                    "tracker.sheds",
                    (0..w.tracker_shard_count())
                        .map(|k| w.tracker_shard_sheds(k))
                        .sum(),
                );
                for t in 0..w.task_count() {
                    clients.extend(w.client(t).map(|c| c.stats()));
                    completed += u64::from(w.completed_at(t).is_some());
                }
            }
            World::Packet(w) => {
                let mut tcp = [0u64; 5];
                let mut am = [0u64; 3];
                for c in 0..w.conn_count() {
                    for side in [true, false] {
                        if let Some(e) = w.endpoint(c, side) {
                            let t = e.stats();
                            for (acc, v) in tcp.iter_mut().zip([
                                t.data_segments_sent,
                                t.retransmissions,
                                t.pure_acks_sent,
                                t.dupacks_sent,
                                t.bytes_acked,
                            ]) {
                                *acc += v;
                            }
                        }
                        if let Some(a) = w.am_stats(c, side) {
                            for (acc, v) in
                                am.iter_mut()
                                    .zip([a.decoupled, a.dupacks_dropped, a.dupacks_seen])
                            {
                                *acc += v;
                            }
                        }
                    }
                }
                let mut wl = [0u64; 4];
                for n in 0..w.node_count() {
                    for dir in [Direction::Up, Direction::Down] {
                        let d = w.channel_stats(n, dir);
                        for (acc, v) in wl.iter_mut().zip([
                            d.accepted,
                            d.delivered,
                            d.dropped_buffer,
                            d.dropped_error,
                        ]) {
                            *acc += v;
                        }
                    }
                    if let Some(c) = w.client(n) {
                        clients.push(c.stats());
                        completed += u64::from(c.is_seed());
                    }
                }
                for (name, v) in [
                    "tcp.data_segments",
                    "tcp.retransmissions",
                    "tcp.pure_acks",
                    "tcp.dupacks",
                    "tcp.bytes_acked",
                ]
                .into_iter()
                .zip(tcp)
                {
                    s.push(name, v);
                }
                for (name, v) in [
                    "wireless.frames_accepted",
                    "wireless.frames_delivered",
                    "wireless.dropped_buffer",
                    "wireless.dropped_error",
                ]
                .into_iter()
                .zip(wl)
                {
                    s.push(name, v);
                }
                for (name, v) in ["am.decoupled", "am.dupacks_dropped", "am.dupacks_seen"]
                    .into_iter()
                    .zip(am)
                {
                    s.push(name, v);
                }
            }
        }
        let sum =
            |f: fn(&bittorrent::client::ClientStats) -> u64| clients.iter().map(f).sum::<u64>();
        s.push("client.downloaded_bytes", sum(|c| c.downloaded_payload));
        s.push("client.uploaded_bytes", sum(|c| c.uploaded_payload));
        s.push("client.connections_opened", sum(|c| c.connections_opened));
        s.push("client.dial_failures", sum(|c| c.dial_failures));
        s.push("client.duplicate_blocks", sum(|c| c.duplicate_blocks));
        s.push("client.snubs", sum(|c| c.snubs));
        s.push("client.keepalive_closes", sum(|c| c.keepalive_closes));
        s.push("client.pex_sent", sum(|c| c.pex_sent));
        s.push("client.pex_received", sum(|c| c.pex_received));
        s.push("client.breaker_trips", sum(|c| c.breaker_trips));
        s.push("client.completed", completed);
        s
    }
}

pub fn flow_cheap(w: &FlowWorld) -> Cheap {
    let q = w.queue_stats();
    [
        w.events_processed(),
        q.scheduled,
        q.cancelled,
        w.rate_solves(),
        w.solver_stats().resources_touched,
    ]
}

pub fn packet_cheap(w: &PacketWorld) -> Cheap {
    let q = w.queue_stats();
    [w.events_processed(), q.scheduled, q.cancelled, 0, 0]
}

/// Announces served by all tracker shards.
pub fn announces(w: &FlowWorld) -> u64 {
    (0..w.tracker_shard_count())
        .map(|k| w.tracker_shard_announces(k))
        .sum()
}

pub fn shard_down(w: &FlowWorld) -> bool {
    (0..w.tracker_shard_count()).any(|k| w.tracker_shard_is_down(k))
}

/// Live connections summed over tasks.
pub fn conns_live(w: &FlowWorld) -> u64 {
    (0..w.task_count())
        .map(|t| w.connection_count(t) as u64)
        .sum()
}

/// Names of the [`World::cheap`] counters.
pub const CHEAP: [&str; 5] = [
    "event.events",
    "event.scheduled",
    "event.cancelled",
    "rates.solves",
    "rates.resources_touched",
];
pub type Cheap = [u64; 5];

/// Named simulated statistics in a fixed order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats(pub Vec<(&'static str, u64)>);

impl Stats {
    fn push(&mut self, name: &'static str, v: u64) {
        self.0.push((name, v));
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// FNV-1a over the rendered list: one line that two runs must share.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (n, v) in &self.0 {
            for b in format!("{n}={v};").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}
