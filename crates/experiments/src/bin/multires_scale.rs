//! The multi-resource scaling experiment: the scaled ISP economy with
//! CPU, bandwidth, and storage demanded together (default n = 512),
//! enforced lane-conjunctively by [`agreements_sched::MultiAdmission`] — a demand is
//! admitted only when every resource's LP admits it, and each rejection
//! names its binding resource.
//!
//! Drives the heterogeneous-class day of
//! [`MultiScaleConfig::isp_multi`] (class `p % 3` dominant in lane
//! `p % 3`, bandwidth pooled at 60% of CPU) through
//! [`agreements_experiments::multires::run_multi_day`]: pools refresh
//! hourly, each hour is a DRF fairness epoch (dominant shares, envy
//! pairs, justified complaints — exported as `fairness.*` telemetry
//! counters), and check mode audits every epoch report with the
//! [`fairness`](agreements_experiments::fairness) checker plus pool
//! conservation and re-run determinism.
//!
//! Flags:
//!
//! - `--n N` — principal count (default 512)
//! - `--requests R` — demand events for the day (default 40·n)
//! - `--check` — reduced-volume invariant mode for CI: asserts lane
//!   conservation, the per-epoch fairness audit, rejection attribution,
//!   and bit-identical re-run checksums; exits nonzero on violation.
//! - `--telemetry-out PATH` — write the run's telemetry snapshot as JSON.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p agreements-experiments --bin multires_scale -- --n 512
//! ```

use agreements_experiments::multires::{build_admission, run_multi_day};
use agreements_telemetry::{Telemetry, DEFAULT_EVENT_CAPACITY};
use agreements_trace::{MultiScaleConfig, RESOURCE_NAMES};

const SEED: u64 = 20_000;

fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} requires an integer argument");
            std::process::exit(2);
        })
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_out = agreements_experiments::take_telemetry_out(&mut args);
    let check = args.iter().any(|a| a == "--check");
    let n = flag_value(&args, "--n").unwrap_or(512);
    let requests = flag_value(&args, "--requests").unwrap_or(40 * n);

    let cfg = MultiScaleConfig::isp_multi(n, requests, SEED);
    eprintln!(
        "multires_scale: n={n}, {} groups of {}, {requests} demands, \
         lanes {:?} scaled {:?}, seed {SEED}",
        cfg.base.num_groups(),
        cfg.base.group_size,
        RESOURCE_NAMES,
        cfg.capacity_scale
    );
    let workload = cfg.generate();

    let (telemetry, recorder) = Telemetry::recorder(DEFAULT_EVENT_CAPACITY);
    let mut adm = build_admission(&cfg);
    adm.set_telemetry(telemetry.clone());

    let result = run_multi_day(&adm, &workload, &telemetry, check);
    println!("# hour  demands  admitted  admit_rate  granted_units  envy_pairs  complaints");
    for (h, e) in result.hours.iter().zip(&result.epochs) {
        let rate = if h.demands == 0 { 1.0 } else { h.admitted as f64 / h.demands as f64 };
        println!(
            "{:>6} {:>8} {:>9} {:>11.3} {:>14.1} {:>11} {:>11}",
            h.hour,
            h.demands,
            h.admitted,
            rate,
            h.granted_units,
            e.envy_pairs,
            e.justified_complaints
        );
    }
    eprintln!(
        "day total: {} admitted, {} denied, {:.1} units granted, \
         draws checksum {:#018x}, fairness checksum {:#018x}",
        result.admitted,
        result.denied,
        result.granted_units,
        result.draws_checksum,
        result.fairness_checksum
    );
    for (name, count) in RESOURCE_NAMES.iter().zip(&result.denied_by_lane) {
        eprintln!("  binding resource {name}: {count} denial(s)");
    }
    let snapshot = recorder.snapshot();
    for c in &snapshot.counters {
        eprintln!("  {} = {}", c.name, c.value);
    }
    if let Some(path) = &telemetry_out {
        agreements_experiments::write_snapshot(path, &snapshot);
    }

    if check {
        assert_eq!(
            result.denied_by_lane.iter().sum::<usize>(),
            result.denied,
            "every denial must be attributed to a binding resource"
        );
        // Determinism: an identical second run must reproduce both
        // fingerprints exactly.
        let again = run_multi_day(&adm, &workload, &Telemetry::default(), false);
        assert_eq!(
            result.draws_checksum, again.draws_checksum,
            "re-run diverged: multi-lane draws are not deterministic"
        );
        assert_eq!(
            result.fairness_checksum, again.fairness_checksum,
            "re-run diverged: fairness series is not deterministic"
        );
        eprintln!(
            "check: re-run bit-identical (draws {:#018x}, fairness {:#018x})",
            result.draws_checksum, result.fairness_checksum
        );
    }
}
