//! End-to-end tests of the flow-level world: whole swarms downloading,
//! mobility, identity retention, and determinism.

use bittorrent::client::ClientConfig;
use bittorrent::metainfo::Metainfo;
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskSpec, TorrentSpec};
use simnet::mobility::MobilityProcess;
use simnet::time::{SimDuration, SimTime};
use wp2p::config::WP2pConfig;

const PIECE: u32 = 64 * 1024;
const MB: u64 = 1024 * 1024;

fn torrent(len: u64) -> TorrentSpec {
    let meta = Metainfo::synthetic("test.bin", "tracker", PIECE, len, 7);
    TorrentSpec::from_metainfo(&meta, PIECE)
}

/// 1 seed + 2 wired leeches; everyone finishes.
#[test]
fn small_swarm_completes() {
    let mut w = FlowWorld::new(FlowConfig::default(), 1);
    let spec = torrent(2 * MB);
    let seed_node = w.add_node(Access::campus());
    let l1 = w.add_node(Access::residential());
    let l2 = w.add_node(Access::residential());
    let _seed = w.add_task(TaskSpec::default_client(seed_node, spec, true));
    let t1 = w.add_task(TaskSpec::default_client(l1, spec, false));
    let t2 = w.add_task(TaskSpec::default_client(l2, spec, false));
    w.start();
    w.run_until(SimTime::from_secs(300), |_| {});
    assert_eq!(
        w.progress_fraction(t1),
        1.0,
        "leech 1 incomplete: {} bytes",
        w.downloaded_bytes(t1)
    );
    assert_eq!(w.progress_fraction(t2), 1.0);
    assert!(w.completed_at(t1).is_some());
    // Both leeches actually pulled the whole file.
    assert_eq!(w.downloaded_bytes(t1), 2 * MB);
}

/// Download time is bounded by the access bottleneck, not much worse.
#[test]
fn download_time_tracks_bottleneck() {
    let mut w = FlowWorld::new(FlowConfig::default(), 2);
    let spec = torrent(4 * MB);
    let seed_node = w.add_node(Access::campus());
    let leech = w.add_node(Access::Wired {
        up: 50_000.0,
        down: 100_000.0,
    });
    let _seed = w.add_task(TaskSpec::default_client(seed_node, spec, true));
    let t = w.add_task(TaskSpec::default_client(leech, spec, false));
    w.start();
    w.run_until(SimTime::from_secs(300), |_| {});
    let done = w.completed_at(t).expect("finished");
    // Ideal: 4 MB / 100 kB/s ≈ 42 s. Allow protocol overheads.
    let secs = done.as_secs_f64();
    assert!(secs > 40.0, "faster than the line rate? {secs}");
    assert!(secs < 120.0, "way slower than the line rate: {secs}");
}

/// Wireless self-contention: a leech that also uploads heavily on a shared
/// channel downloads slower than one that does not upload.
#[test]
fn wireless_upload_contention_slows_downloads() {
    let run = |allow_upload: bool| -> f64 {
        let mut w = FlowWorld::new(FlowConfig::default(), 3);
        let spec = torrent(2 * MB);
        let seed_node = w.add_node(Access::campus());
        // A competing leech that will request data from our client.
        let other = w.add_node(Access::residential());
        let wireless = w.add_node(Access::Wireless {
            capacity: 150_000.0,
        });
        let _seed = w.add_task(TaskSpec::default_client(seed_node, spec, true));
        let _competitor = w.add_task(TaskSpec::default_client(other, spec, false));
        let t = w.add_task(TaskSpec {
            node: wireless,
            torrent: spec,
            start_complete: false,
            start_fraction: None,
            start_at: SimTime::ZERO,
            make_config: Box::new(move || ClientConfig {
                allow_upload,
                ..ClientConfig::default()
            }),
            wp2p: WP2pConfig::default_client(),
        });
        w.start();
        w.run_until(SimTime::from_secs(120), |_| {});
        w.delivered_down_bytes(t) as f64
    };
    let with_upload = run(true);
    let without_upload = run(false);
    assert!(
        without_upload >= with_upload,
        "uploading on a shared channel should not help raw download: \
         with={with_upload} without={without_upload}"
    );
}

/// Mobility with a default client loses progress pace; the client still
/// eventually reconnects via the tracker.
#[test]
fn mobility_disrupts_but_recovers() {
    let mut cfg = FlowConfig::default();
    cfg.tracker.announce_interval = SimDuration::from_mins(5);
    let mut w = FlowWorld::new(cfg, 4);
    // Large enough that the run cannot finish before the hand-offs bite.
    let spec = torrent(64 * MB);
    let seed_node = w.add_node(Access::campus());
    let mobile = w.add_node(Access::Wireless {
        capacity: 200_000.0,
    });
    let _seed = w.add_task(TaskSpec::default_client(seed_node, spec, true));
    let t = w.add_task(TaskSpec::default_client(mobile, spec, false));
    w.set_mobility(
        mobile,
        MobilityProcess::periodic(SimDuration::from_secs(60), SimDuration::from_secs(3)),
    );
    w.start();
    w.run_until(SimTime::from_secs(420), |_| {});
    let bytes = w.downloaded_bytes(t);
    assert!(bytes > 0, "mobile client never downloaded anything");
    // It must have survived several hand-offs and kept downloading in the
    // later part of the run.
    let series = w.download_series(t);
    let early = series.value_at(SimTime::from_secs(120)).unwrap_or(0.0);
    let late = series.last_value().unwrap_or(0.0);
    assert!(
        late > early,
        "no progress after the first hand-offs: early={early} late={late}"
    );
    // Debug builds check every incremental solve bit-for-bit against a
    // full solve; the hand-offs must drive solves through that check.
    assert!(w.solver_stats().incremental_solves > 0);
}

/// Identity retention keeps tit-for-tat credit across hand-offs: the
/// retaining client downloads at least as much as the default one under
/// identical mobility.
#[test]
fn identity_retention_helps_under_mobility() {
    let run = |retention: bool| -> u64 {
        let mut cfg = FlowConfig::default();
        cfg.tracker.announce_interval = SimDuration::from_mins(5);
        let mut w = FlowWorld::new(cfg, 5);
        let spec = torrent(16 * MB);
        // A contended swarm: one seed with limited upload, several leeches
        // competing for its slots.
        let seed_node = w.add_node(Access::Wired {
            up: 200_000.0,
            down: 200_000.0,
        });
        let _seed = w.add_task(TaskSpec::default_client(seed_node, spec, true));
        for _ in 0..4 {
            let n = w.add_node(Access::residential());
            w.add_task(TaskSpec::default_client(n, spec, false));
        }
        let mobile = w.add_node(Access::Wireless {
            capacity: 250_000.0,
        });
        let t = w.add_task(TaskSpec {
            node: mobile,
            torrent: spec,
            start_complete: false,
            start_fraction: None,
            start_at: SimTime::ZERO,
            make_config: Box::new(ClientConfig::default),
            wp2p: if retention {
                WP2pConfig::identity_only()
            } else {
                WP2pConfig::default_client()
            },
        });
        w.set_mobility(
            mobile,
            MobilityProcess::periodic(SimDuration::from_secs(60), SimDuration::from_secs(2)),
        );
        w.start();
        w.run_until(SimTime::from_secs(600), |_| {});
        w.downloaded_bytes(t)
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with as f64 >= 0.9 * without as f64,
        "retention should not hurt: with={with} without={without}"
    );
}

/// Tracing records the load-bearing events of a mobile run.
#[test]
fn trace_captures_mobility_and_connections() {
    use metrics::trace::TraceKind;
    let mut w = FlowWorld::new(FlowConfig::default(), 8);
    let spec = torrent(4 * MB);
    let s = w.add_node(Access::campus());
    let m = w.add_node(Access::Wireless {
        capacity: 200_000.0,
    });
    w.add_task(TaskSpec::default_client(s, spec, true));
    w.add_task(TaskSpec::default_client(m, spec, false));
    w.set_mobility(
        m,
        MobilityProcess::periodic(SimDuration::from_secs(30), SimDuration::from_secs(2)),
    );
    w.enable_trace();
    w.start();
    w.run_until(SimTime::from_secs(100), |_| {});
    let trace = w.trace();
    assert!(
        trace.of_kind(TraceKind::Mobility).count() >= 4,
        "hand-offs traced"
    );
    assert!(
        trace.of_kind(TraceKind::Connection).count() >= 2,
        "dials traced"
    );
    assert!(
        trace.of_kind(TraceKind::Tracker).count() >= 2,
        "announces traced"
    );
    // Render sanity.
    assert!(trace.render().contains("hand-off"));
}

/// Regression: client connection keys restart at 1 after re-initiation;
/// removing a *stale* connection (e.g. the ghost a returning peer-id
/// replaces) must never unindex the new connection that reuses the same
/// `(task, key)` tuple. Before the fix, the retained-identity client
/// silently black-holed after its first hand-off (downloading ~4× less
/// than the default); with it, the single-seed scenario recovers fully.
#[test]
fn reinitiated_client_keys_do_not_alias_stale_connections() {
    let run = |retention: bool| -> u64 {
        let mut cfg = FlowConfig::default();
        cfg.tracker.announce_interval = SimDuration::from_secs(300);
        let mut w = FlowWorld::new(cfg, 7);
        let spec = torrent(64 * MB);
        let sn = w.add_node(Access::Wired {
            up: 200_000.0,
            down: 500_000.0,
        });
        w.add_task(TaskSpec::default_client(sn, spec, true));
        let m = w.add_node(Access::Wireless {
            capacity: 250_000.0,
        });
        let t = w.add_task(TaskSpec {
            node: m,
            torrent: spec,
            start_complete: false,
            start_fraction: None,
            start_at: SimTime::ZERO,
            make_config: Box::new(ClientConfig::default),
            wp2p: if retention {
                WP2pConfig::identity_only()
            } else {
                WP2pConfig::default_client()
            },
        });
        w.set_mobility(
            m,
            MobilityProcess::periodic(SimDuration::from_secs(60), SimDuration::from_secs(5)),
        );
        w.start();
        w.run_until(SimTime::from_secs(300), |_| {});
        w.downloaded_bytes(t)
    };
    let default = run(false);
    let retained = run(true);
    // With a single seed there is no slot competition: the two arms must
    // come out equal. A large gap would mean one arm's connections are
    // being black-holed again.
    let ratio = retained as f64 / default.max(1) as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "arms should be equal in a single-seed world: default={default} retained={retained}"
    );
    assert!(default > 10 * MB, "both arms should make real progress");
}

/// The same seed yields identical results; different seeds differ.
#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| -> (u64, u64) {
        let mut w = FlowWorld::new(FlowConfig::default(), seed);
        let spec = torrent(MB);
        let s = w.add_node(Access::campus());
        let l = w.add_node(Access::residential());
        let _ = w.add_task(TaskSpec::default_client(s, spec, true));
        let t = w.add_task(TaskSpec::default_client(l, spec, false));
        w.start();
        w.run_until(SimTime::from_secs(60), |_| {});
        (
            w.downloaded_bytes(t),
            w.completed_at(t).map_or(0, |t| t.as_micros()),
        )
    };
    assert_eq!(run(11), run(11));
}

/// stop_task removes the peer from the swarm; a late joiner starved of
/// seeds cannot finish.
#[test]
fn stopping_the_only_seed_stalls_leeches() {
    let mut w = FlowWorld::new(FlowConfig::default(), 6);
    let spec = torrent(20 * MB);
    let seed_node = w.add_node(Access::campus());
    let l1 = w.add_node(Access::residential());
    let seed = w.add_task(TaskSpec::default_client(seed_node, spec, true));
    let t = w.add_task(TaskSpec::default_client(l1, spec, false));
    w.start();
    // Let the download get going (announce latency + the first 10 s
    // rechoke cycle pass first), then remove the seed.
    w.run_until(SimTime::from_secs(25), |_| {});
    w.stop_task(seed, true);
    w.run_until(SimTime::from_secs(180), |_| {});
    assert!(
        w.progress_fraction(t) < 1.0,
        "cannot finish without the seed"
    );
    assert!(w.downloaded_bytes(t) > 0, "got something before removal");
}

/// Experiment drivers are deterministic end to end: the same driver call
/// yields bit-identical series.
#[test]
fn experiment_drivers_are_deterministic() {
    use metrics::handle::MetricsHandle;
    use p2p_simulation::experiments::fig3::{run_fig3c_arm_with, Fig3cArm, Fig3cParams};
    let params = Fig3cParams {
        duration: SimDuration::from_secs(120),
        file_size: 8 * 1024 * 1024,
        ..Fig3cParams::quick()
    };
    let arm = Fig3cArm {
        mobility: true,
        uploading: true,
    };
    let a = run_fig3c_arm_with(&params, arm, &MetricsHandle::disabled(), 99);
    let b = run_fig3c_arm_with(&params, arm, &MetricsHandle::disabled(), 99);
    assert_eq!(a.final_bytes, b.final_bytes);
    assert_eq!(a.series.points(), b.series.points());
}
