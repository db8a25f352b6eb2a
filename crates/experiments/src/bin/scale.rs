//! The large-n scaling experiment: the 10-proxy ISP case study grown to
//! hundreds or thousands of principals (default n = 512), enforced by the
//! auto-partitioned hierarchical scheduler.
//!
//! Drives a full group-skewed diurnal day ([`ScaleConfig::isp`]) through
//! [`HierarchicalScheduler::auto`]: pools refresh at the top of each
//! hour (the per-epoch capacity model of the proxy simulator), demands
//! draw them down, and over-capacity demands are denied. Prints the
//! hourly admit-rate series plus telemetry counters (home-group hits vs
//! coarse escalations), then exercises the *federation* path by routing
//! a slice of the same workload through [`TwoLevelGrm::new_auto`] at
//! `min(n, 256)` principals (one OS thread per group GRM).
//!
//! Flags:
//!
//! - `--n N` — principal count (default 512)
//! - `--requests R` — demand events for the day (default 40·n)
//! - `--check` — reduced-volume invariant mode for CI: asserts pool
//!   conservation, determinism across a re-run, and hierarchical/flat
//!   verdict agreement; exits nonzero on violation.
//! - `--telemetry-out PATH` — write the run's telemetry snapshot as JSON.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p agreements-experiments --bin scale -- --n 512
//! ```

use agreements_flow::PartitionOptions;
use agreements_grm::multilevel::TwoLevelGrm;
use agreements_sched::hierarchy::HierarchicalScheduler;
use agreements_sched::SchedError;
use agreements_telemetry::{Telemetry, DEFAULT_EVENT_CAPACITY};
use agreements_trace::{ScaleConfig, ScaleWorkload};

const SEED: u64 = 20_000;
const HOUR: f64 = 3600.0;

struct HourRow {
    hour: usize,
    demands: usize,
    admitted: usize,
    granted_units: f64,
}

struct RunResult {
    hours: Vec<HourRow>,
    admitted: usize,
    denied: usize,
    granted_units: f64,
    /// FNV-1a over the bit patterns of every granted draw vector — the
    /// determinism fingerprint the golden test pins at n = 100.
    draws_checksum: u64,
}

/// Replay the day's demand stream against the scheduler: availability
/// refreshes each hour, granted draws deduct from it, denials leave it
/// untouched. Returns the hourly series plus the determinism fingerprint.
fn run_day(sched: &HierarchicalScheduler, workload: &ScaleWorkload, check: bool) -> RunResult {
    let mut avail = workload.availability.clone();
    let base = &workload.availability;
    let mut hour = 0usize;
    let mut hours: Vec<HourRow> = Vec::new();
    let mut cur = HourRow { hour: 0, demands: 0, admitted: 0, granted_units: 0.0 };
    let (mut admitted, mut denied, mut granted_units) = (0usize, 0usize, 0.0f64);
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for d in &workload.demands {
        while d.t >= (hour + 1) as f64 * HOUR {
            hours.push(std::mem::replace(
                &mut cur,
                HourRow { hour: hour + 1, demands: 0, admitted: 0, granted_units: 0.0 },
            ));
            hour += 1;
            avail.copy_from_slice(base);
        }
        cur.demands += 1;
        match sched.allocate(&avail, d.requester, d.amount) {
            Ok(alloc) => {
                let mut drawn = 0.0;
                for (v, &dr) in avail.iter_mut().zip(&alloc.draws) {
                    *v -= dr;
                    drawn += dr;
                    checksum = (checksum ^ dr.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                }
                if check {
                    assert!(
                        (drawn - alloc.amount).abs() < 1e-6,
                        "conservation: drew {drawn}, granted {}",
                        alloc.amount
                    );
                    assert!(
                        avail.iter().all(|&v| v > -1e-9),
                        "negative availability after a grant"
                    );
                }
                admitted += 1;
                cur.admitted += 1;
                granted_units += alloc.amount;
                cur.granted_units += alloc.amount;
            }
            Err(SchedError::InsufficientCapacity { .. }) => denied += 1,
            Err(e) => panic!("scheduler failed: {e}"),
        }
    }
    hours.push(cur);
    RunResult { hours, admitted, denied, granted_units, draws_checksum: checksum }
}

/// Route the first `limit` demands through the federation path: a
/// [`TwoLevelGrm`] built straight from the same economy, pools seeded via
/// group-GRM reports. Asserts (check mode) that the federation conserves
/// the pool: total granted ≤ total seeded.
fn run_federation(cfg: &ScaleConfig, workload: &ScaleWorkload, limit: usize, check: bool) {
    let s = cfg.agreements().expect("economy");
    let grm = TwoLevelGrm::new_auto(&s, &PartitionOptions::default(), 1).expect("federation");
    assert_eq!(grm.num_groups(), cfg.num_groups());
    for p in 0..cfg.n {
        grm.group_handle(grm.group_of(p))
            .report(grm.local_index(p), cfg.base_availability)
            .expect("seed pool");
    }
    let (mut admitted, mut denied, mut granted) = (0usize, 0usize, 0.0f64);
    for d in workload.demands.iter().filter(|d| d.requester < cfg.n).take(limit) {
        match grm.request(d.requester, d.amount) {
            Ok(alloc) => {
                admitted += 1;
                granted += alloc.amount;
            }
            Err(agreements_grm::GrmError::Sched(SchedError::InsufficientCapacity { .. })) => {
                denied += 1
            }
            Err(e) => panic!("federation request failed: {e}"),
        }
    }
    let pool = cfg.base_availability * cfg.n as f64;
    eprintln!(
        "federation n={} groups={}: {admitted} admitted, {denied} denied, \
         {granted:.1} of {pool:.1} units granted",
        cfg.n,
        grm.num_groups()
    );
    if check {
        assert!(granted <= pool + 1e-6, "federation over-granted: {granted} > {pool}");
        let mut remaining = 0.0;
        for g in 0..grm.num_groups() {
            remaining += grm.group_handle(g).availability().expect("view").iter().sum::<f64>();
        }
        assert!(
            (remaining + granted - pool).abs() < 1e-6,
            "pool not conserved: {remaining} left + {granted} granted != {pool}"
        );
        eprintln!("check: federation pool conserved to 1e-6");
    }
    grm.shutdown();
}

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
    // Default load scales with the economy: 40 demands per principal per
    // day at mean 3.0 units ≈ 0.83× of the 6 × 24 daily pool, so the day
    // is feasible in aggregate but group-local peaks overflow.
    let requests = flag_value(&args, "--requests").unwrap_or(40 * n);

    let cfg = ScaleConfig::isp(n, requests, SEED);
    eprintln!(
        "scale: n={n}, {} groups of {}, {requests} demands, seed {SEED}",
        cfg.num_groups(),
        cfg.group_size
    );
    let workload = cfg.generate();
    let s = cfg.agreements().expect("economy");

    let (telemetry, recorder) = Telemetry::recorder(DEFAULT_EVENT_CAPACITY);
    let mut sched = HierarchicalScheduler::auto(&s, &PartitionOptions::default(), 1).expect("auto");
    sched.set_telemetry(telemetry);

    let result = run_day(&sched, &workload, check);
    println!("# hour  demands  admitted  admit_rate  granted_units");
    for h in &result.hours {
        let rate = if h.demands == 0 { 1.0 } else { h.admitted as f64 / h.demands as f64 };
        println!(
            "{:>6} {:>8} {:>9} {:>11.3} {:>14.1}",
            h.hour, h.demands, h.admitted, rate, h.granted_units
        );
    }
    eprintln!(
        "day total: {} admitted, {} denied, {:.1} units granted, draws checksum {:#018x}",
        result.admitted, result.denied, result.granted_units, result.draws_checksum
    );
    let snapshot = recorder.snapshot();
    for c in &snapshot.counters {
        eprintln!("  {} = {}", c.name, c.value);
    }
    if let Some(path) = &telemetry_out {
        agreements_experiments::write_snapshot(path, &snapshot);
    }

    if check {
        // Determinism: an identical second run on the same (now warm)
        // scheduler must reproduce the exact draw stream.
        let again = run_day(&sched, &workload, false);
        assert_eq!(
            result.draws_checksum, again.draws_checksum,
            "re-run diverged: hierarchical draws are not deterministic"
        );
        eprintln!("check: re-run bit-identical (checksum {:#018x})", result.draws_checksum);
    }

    // Federation path: cap the principal count (one OS thread per group
    // GRM) and the demand volume.
    let fed_n = n.min(256);
    let fed_cfg = ScaleConfig { n: fed_n, ..cfg.clone() };
    let fed_workload = if fed_n == n { workload } else { fed_cfg.generate() };
    run_federation(&fed_cfg, &fed_workload, if check { 500 } else { 2_000 }, check);
}
