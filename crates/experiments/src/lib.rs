//! Shared harness for regenerating the paper's figures.
//!
//! Every binary in `src/bin/figNN.rs` builds on these helpers: a common
//! workload (10 ISP-level proxies, paper-shaped diurnal day, seeded), the
//! standard simulator configuration calibrated so the *unshared* peak
//! slot-average wait lands in the paper's ≈ 250 s regime, and plain-text
//! series/summary printers whose rows can be diffed against
//! `EXPERIMENTS.md`.

#![deny(unsafe_code)]

pub mod checker;
pub mod fairness;
pub mod multires;

use agreements_flow::{AgreementMatrix, Structure};
use agreements_proxysim::{PolicyKind, SharingConfig, SimConfig, SimResult, Simulator};
use agreements_telemetry::{Snapshot, Telemetry};
use agreements_trace::{ProxyTrace, TraceConfig, SLOTS_PER_DAY};
use std::path::PathBuf;

/// Number of cooperating ISPs in every experiment (paper: 10).
pub const N_PROXIES: usize = 10;

/// Requests per proxy per day. Wait-time *shapes* are volume-invariant at
/// fixed peak utilization (fluid scaling), so this is chosen for runtime,
/// not fidelity.
pub const REQUESTS_PER_DAY: usize = 100_000;

/// *Effective* per-request demand used by the capacity calibration,
/// measured against the vendored `rand` stream.
///
/// [`SimConfig::calibrated`] estimates the peak offered load analytically
/// from the hourly diurnal profile, but the actual trace stream is
/// burstier at 10-minute-slot granularity, so the analytic estimate
/// undershoots the true peak. The plain measured mean demand is
/// 0.1182 work-s/request; this constant is tuned slightly above it so
/// that the *measured* unshared midnight peak lands in the paper's
/// ≈ 250 s regime (248 s; the measured peak-slot utilization works out
/// to ρ ≈ 1.20). Re-derive it with
/// `cargo run --release -p agreements-experiments --bin calibrate`
/// after any change to the trace generator or RNG stream.
pub const MEAN_DEMAND: f64 = 0.1220;

/// Peak offered-load over capacity ratio fed to the *analytic*
/// calibration formula. The slot-level burstiness correction on top of
/// it lives in [`MEAN_DEMAND`]; together they put the measured unshared
/// peak at ≈ 250 s (validated by `fig05` and the `calibrate` binary).
pub const PEAK_RHO: f64 = 1.05;

/// Workload seed for every figure (determinism across binaries).
pub const SEED: u64 = 20000;

/// The standard one-hour inter-proxy skew (ISPs one time zone apart).
pub const HOUR: f64 = 3600.0;

/// Generate the standard traces with the given inter-proxy gap (seconds).
pub fn traces(gap: f64) -> Vec<ProxyTrace> {
    TraceConfig::paper(REQUESTS_PER_DAY, SEED).generate(N_PROXIES, gap)
}

/// The calibrated base configuration (no sharing).
pub fn base_config() -> SimConfig {
    SimConfig::calibrated(N_PROXIES, REQUESTS_PER_DAY, MEAN_DEMAND, PEAK_RHO)
}

/// Run without sharing at a capacity factor (Figures 5 and 7).
pub fn run_no_sharing(gap: f64, capacity_factor: f64) -> SimResult {
    let cfg = base_config().with_capacity_factor(capacity_factor);
    Simulator::new(cfg).expect("valid config").run(&traces(gap)).expect("run")
}

/// Run with sharing.
pub fn run_sharing(
    agreements: AgreementMatrix,
    level: usize,
    policy: PolicyKind,
    gap: f64,
    redirect_cost: f64,
    capacity_factor: f64,
) -> SimResult {
    run_sharing_with_telemetry(
        agreements,
        level,
        policy,
        gap,
        redirect_cost,
        capacity_factor,
        Telemetry::default(),
    )
}

/// [`run_sharing`] with a telemetry plane attached to the simulator (and
/// through it the allocation policy). Passing `Telemetry::default()` is
/// exactly [`run_sharing`].
#[allow(clippy::too_many_arguments)]
pub fn run_sharing_with_telemetry(
    agreements: AgreementMatrix,
    level: usize,
    policy: PolicyKind,
    gap: f64,
    redirect_cost: f64,
    capacity_factor: f64,
    telemetry: Telemetry,
) -> SimResult {
    let sharing = SharingConfig { agreements, level, policy, redirect_cost, schedule: Vec::new() };
    let cfg = base_config().with_capacity_factor(capacity_factor).with_sharing(sharing);
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.set_telemetry(telemetry);
    sim.run(&traces(gap)).expect("run")
}

/// Run with sharing whose agreements fluctuate mid-day: the schedule's
/// edits are applied at epoch boundaries and the flow table is repaired
/// incrementally (Figure 12's renegotiation variant). The repairs land in
/// the telemetry plane's `flow_dirty_rows` histogram alongside the
/// policy's solve records.
#[allow(clippy::too_many_arguments)]
pub fn run_sharing_scheduled_with_telemetry(
    agreements: AgreementMatrix,
    level: usize,
    policy: PolicyKind,
    gap: f64,
    redirect_cost: f64,
    schedule: Vec<agreements_proxysim::AgreementEvent>,
    telemetry: Telemetry,
) -> SimResult {
    let sharing = SharingConfig { agreements, level, policy, redirect_cost, schedule };
    let cfg = base_config().with_sharing(sharing);
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.set_telemetry(telemetry);
    sim.run(&traces(gap)).expect("run")
}

/// Pull `--telemetry-out PATH` out of an argument vector, removing both
/// tokens so positional parsing downstream never sees them. Returns the
/// path when the flag was present.
///
/// Exits with an error message (status 2) when the flag is given
/// without a value — silently treating the next figure argument as a
/// path would be worse.
pub fn take_telemetry_out(args: &mut Vec<String>) -> Option<PathBuf> {
    let pos = args.iter().position(|a| a == "--telemetry-out")?;
    if pos + 1 >= args.len() {
        eprintln!("--telemetry-out requires a path argument");
        std::process::exit(2);
    }
    let path = args.remove(pos + 1);
    args.remove(pos);
    Some(PathBuf::from(path))
}

/// Serialize a merged telemetry snapshot to `path` as pretty JSON.
pub fn write_snapshot(path: &std::path::Path, snapshot: &Snapshot) {
    std::fs::write(path, snapshot.to_json()).unwrap_or_else(|e| {
        eprintln!("failed to write telemetry snapshot {}: {e}", path.display());
        std::process::exit(1);
    });
    eprintln!("telemetry snapshot written to {}", path.display());
}

/// The complete-graph structure used by Figures 6–8 and 12: every ISP
/// shares 10% with every other.
pub fn complete_10pct() -> AgreementMatrix {
    Structure::Complete { n: N_PROXIES, share: 0.10 }.build().expect("valid structure")
}

/// The loop structure of Figures 9–11: 80% with the next ISP, `skip`
/// positions ahead.
pub fn loop_80pct(skip: usize) -> AgreementMatrix {
    Structure::Loop { n: N_PROXIES, share: 0.80, skip }.build().expect("valid structure")
}

/// The ISP whose series the figures plot. The paper shows "a particular
/// ISP"; we pick proxy 9 because its donor chain under the loop
/// structures (proxies 8, 7, 6, …) never wraps the ring, making it the
/// *typical* ISP — proxy 0's donor would be proxy 9, fifteen local hours
/// away, an artifact of 10 proxies spanning only 10 of 24 time zones.
/// Reported times are in this proxy's local slots (series are shifted
/// back by its skew before printing).
pub const PLOTTED_PROXY: usize = 9;

/// [`PLOTTED_PROXY`]'s per-slot average-wait series rotated into its
/// *local* time (slot 0 = its local midnight) given the run's skew gap.
pub fn local_series(r: &SimResult, gap: f64) -> Vec<f64> {
    let wall = r.proxy_avg_wait_series(PLOTTED_PROXY);
    let shift_slots = ((PLOTTED_PROXY as f64 * gap / 600.0) as usize) % SLOTS_PER_DAY;
    (0..SLOTS_PER_DAY).map(|s| wall[(s + shift_slots) % SLOTS_PER_DAY]).collect()
}

/// Print a CSV header plus one row per 10-minute local slot with the
/// given labelled series (see [`local_series`]).
pub fn print_series(columns: &[(&str, Vec<f64>)]) {
    print!("slot,hour");
    for (label, _) in columns {
        print!(",{label}");
    }
    println!();
    for s in 0..SLOTS_PER_DAY {
        print!("{s},{:.3}", s as f64 / 6.0);
        for (_, col) in columns {
            print!(",{:.4}", col[s]);
        }
        println!();
    }
}

/// Print a one-line summary per result: the plotted proxy's statistics
/// plus system-wide redirection numbers.
pub fn print_summary(rows: &[(&str, &SimResult)]) {
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "config", "avg_wait_s", "peak_slot_s", "worst_s", "redir_%", "peak_rd_%", "stable"
    );
    for (label, r) in rows {
        println!(
            "{:<28} {:>12.4} {:>12.2} {:>12.2} {:>10.3} {:>10.3} {:>8}",
            label,
            r.proxy_avg_wait(PLOTTED_PROXY),
            r.proxy_peak_slot_avg_wait(PLOTTED_PROXY),
            r.proxy_worst_wait(PLOTTED_PROXY),
            100.0 * r.redirect_fraction(),
            100.0 * r.peak_redirect_fraction(),
            r.is_stable()
        );
    }
}

/// The order-preserving scoped-thread fan-out behind every figure
/// sweep, re-exported from `agreements-util` (one definition serves the
/// GRM tests and the sweeps here). Each job builds its own `Simulator`
/// (hence its own allocation solver), which makes the parallel output
/// byte-identical to running the jobs back to back.
pub use agreements_util::par_map;

/// Shared driver for Figures 9, 10, and 11 (loop structures at different
/// skips): sweeps transitivity levels and prints series + summary.
pub fn run_loop_figure(skip: usize, figure: &str) {
    let levels = [1usize, 2, 3, 5, 9];
    let results: Vec<_> = par_map(levels.to_vec(), |level| {
        let r = run_sharing(loop_80pct(skip), level, PolicyKind::Lp, HOUR, 0.0, 1.0);
        (format!("level={level}"), r)
    });

    println!("# {figure}: loop structure, 80% share, skip={skip}");
    let series: Vec<(&str, Vec<f64>)> =
        results.iter().map(|(l, r)| (l.as_str(), local_series(r, HOUR))).collect();
    print_series(&series);
    println!();
    let cols: Vec<(&str, &SimResult)> = results.iter().map(|(l, r)| (l.as_str(), r)).collect();
    print_summary(&cols);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structures_have_expected_shape() {
        let c = complete_10pct();
        assert_eq!(c.n(), N_PROXIES);
        assert_eq!(c.num_edges(), N_PROXIES * (N_PROXIES - 1));
        assert_eq!(c.get(0, 5), 0.10);
        let l = loop_80pct(3);
        assert_eq!(l.num_edges(), N_PROXIES);
        assert_eq!(l.get(0, 3), 0.80);
    }

    #[test]
    fn base_config_is_calibrated() {
        let cfg = base_config();
        assert_eq!(cfg.n, N_PROXIES);
        assert!(cfg.capacity > 0.0);
        assert!(cfg.sharing.is_none());
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..32).collect();
        let out = par_map(items.clone(), |i| {
            // Uneven work so completion order differs from input order.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * i
        });
        let expected: Vec<usize> = items.iter().map(|&i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn traces_are_deterministic_and_sized() {
        let a = traces(HOUR);
        let b = traces(HOUR);
        assert_eq!(a.len(), N_PROXIES);
        assert_eq!(a[3].requests.len(), b[3].requests.len());
        assert_eq!(a[0].requests[0], b[0].requests[0]);
    }
}
