//! Smoke test of the benchmark binary at the tiny size:
//!
//!     cargo test --release --manifest-path perfbench/Cargo.toml
//!
//! A debug build of the binary refuses to run, so under plain
//! `cargo test` only that refusal is checked.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_wp2p-perfbench");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("WP2P_SCHEDULER")
        .env_remove("WP2P_RATE_SOLVER")
        .output()
        .expect("benchmark binary runs")
}

#[cfg(debug_assertions)]
#[test]
fn debug_build_is_refused() {
    let out = run(&["--workload", "swarm-2048", "--size", "tiny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}

#[cfg(not(debug_assertions))]
mod release {
    use super::*;

    const WORKLOADS: [&str; 3] = ["swarm-2048", "service-mix", "packet-wlan"];
    const END_TO_END: [(&str, &str); 7] = [
        ("setup_s", "s"),
        ("wall_per_vsec", "s/s"),
        ("step_p50_ms", "ms"),
        ("step_tail_ms", "ms"),
        ("snapshot_s", "s"),
        ("peak_rss_mb", "MB"),
        ("failed_frac", "ratio"),
    ];

    fn tiny(workload: &str, trace: &str, extra: &[&str]) -> (Output, String) {
        let mut args = vec![
            "--workload",
            workload,
            "--size",
            "tiny",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
        ];
        args.extend_from_slice(extra);
        let out = run(&args);
        let text = String::from_utf8(out.stdout.clone()).expect("utf-8 output");
        (out, text)
    }

    fn last_line(text: &str) -> &str {
        text.lines().last().expect("some output")
    }

    fn digest(text: &str) -> String {
        text.lines()
            .find(|l| l.starts_with("digest "))
            .expect("a digest line")
            .to_string()
    }

    #[test]
    fn every_metric_is_printed_with_its_unit_and_digests_repeat() {
        for wl in WORKLOADS {
            let (out, first) = tiny(wl, "0", &[]);
            assert!(out.status.success(), "{wl} failed:\n{first}");
            for (name, unit) in END_TO_END {
                let line = first
                    .lines()
                    .find(|l| l.split_whitespace().nth(1) == Some(name))
                    .unwrap_or_else(|| panic!("{wl}: no {name} line"));
                let f: Vec<&str> = line.split_whitespace().collect();
                assert!(f[2].parse::<f64>().is_ok(), "{wl}: {line}");
                assert_eq!(f[3], unit, "{wl}: {line}");
                if name != "failed_frac" {
                    let key = format!("\"{name}\":{{\"value\":");
                    assert!(
                        last_line(&first).contains(&key),
                        "{wl}: {name} missing from JSON"
                    );
                    assert!(last_line(&first).contains(&format!("\"unit\":\"{unit}\"")));
                }
            }
            assert!(
                last_line(&first).starts_with("{\"correct\":true,"),
                "{wl}: {first}"
            );
            let (_, second) = tiny(wl, "0", &[]);
            assert_eq!(
                digest(&first),
                digest(&second),
                "{wl}: simulated statistics differ"
            );
        }
    }

    #[test]
    fn traced_run_prints_every_layer_metric() {
        for wl in WORKLOADS {
            let (out, text) = tiny(wl, "1", &[]);
            assert!(out.status.success(), "{wl} failed:\n{text}");
            let layers: Vec<&str> = text.lines().filter(|l| l.starts_with("layer ")).collect();
            assert!(layers.len() > 50, "{wl}: only {} layer lines", layers.len());
            for l in &layers {
                let f: Vec<&str> = l.split_whitespace().collect();
                assert_eq!(f.len(), 5, "{wl}: {l}");
                assert!(f[3].parse::<f64>().is_ok(), "{wl}: {l}");
            }
            assert!(text.contains("trace.overhead_wall_per_vsec"));
            assert!(
                last_line(&text).starts_with("{\"correct\":true,"),
                "{wl}: {text}"
            );
        }
    }

    #[test]
    fn a_wrong_expected_digest_fails_the_run() {
        let stored = include_str!("../expected.txt");
        let mut bumped = false;
        let wrong: String = stored
            .lines()
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                if !bumped && f.len() == 5 && f[0] == "swarm-2048" && f[1] == "tiny" {
                    bumped = true;
                    let v: u64 = f[4].parse().expect("numeric value");
                    format!("{} {} {} {} {}\n", f[0], f[1], f[2], f[3], v + 1)
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(bumped, "expected.txt holds swarm-2048 tiny statistics");
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-expected.txt");
        std::fs::write(&path, wrong).expect("write the altered expectations");
        let (out, text) = tiny(
            "swarm-2048",
            "0",
            &["--expected", path.to_str().expect("utf-8 path")],
        );
        assert!(
            !out.status.success(),
            "a wrong digest must fail the run:\n{text}"
        );
        assert!(text.contains("FAILED tiny canonical world matches expected.txt"));
        assert!(last_line(&text).starts_with("{\"correct\":false,"));
        let frac: f64 = text
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some("failed_frac"))
            .and_then(|l| l.split_whitespace().nth(2)?.parse().ok())
            .expect("a failed_frac line");
        assert!(frac > 0.0);
    }
}
