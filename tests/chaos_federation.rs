//! Chaos harness for the GRM/LRM federation: seeded fault schedules
//! (drop, duplication, delay/reorder, server crash) against the retrying
//! idempotent clients and degraded-mode LRMs, with invariants checked
//! after the network heals.
//!
//! Post-heal invariants, per scenario:
//!
//! 1. **Pool conservation** — units credited to the federation equal the
//!    units still pooled plus the units actually taken by fulfilments.
//! 2. **At-most-once settlement (no double grant)** — every intent the
//!    clients observed as granted (remotely or in degraded mode) settles
//!    in the GRM's books exactly once; the books may exceed that only by
//!    "lost" intents (retries exhausted with no observable outcome),
//!    never by duplicated settlement of an observed one.
//! 3. **Availability convergence** — after reconciliation the GRM's
//!    availability view equals the LRMs' authoritative pools.
//! 4. **Lease hygiene** — silent LRMs are zeroed once their lease
//!    lapses, and a re-report resurrects them (exercised in the crash
//!    and lease scenarios).
//!
//! Every schedule is a pure function of (seed, fault mix, link name,
//! message index): a failure here is reproducible from the seed printed
//! in the assertion message.

use agreements_faults::{ChaosClock, FaultMix, FaultPlane};
use agreements_flow::{AgreementMatrix, PartitionOptions};
use agreements_grm::multilevel::TwoLevelGrm;
use agreements_grm::resilient::{ResilientGrmClient, RetryPolicy};
use agreements_grm::server::GrmServer;
use agreements_grm::{GrmError, Lrm};
use agreements_sched::SchedError;
use rand::prelude::*;

const SEEDS: [u64; 8] = [2, 3, 5, 8, 13, 21, 34, 55];
const N: usize = 3;
const POOL: f64 = 20.0;
const STEPS: usize = 30;
const EPS: f64 = 1e-6;

fn complete(n: usize, share: f64) -> AgreementMatrix {
    let mut s = AgreementMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s.set(i, j, share).unwrap();
            }
        }
    }
    s
}

/// Client-side ledger of what each intent was observed to do.
#[derive(Default)]
struct Ledger {
    /// Units of grants the GRM confirmed to the client.
    remote_units: f64,
    /// Units granted locally while degraded (journalled for replay).
    degraded_units: f64,
    /// Units of intents with no observable outcome (possible zombie
    /// grants server-side): slack for the settlement upper bound.
    lost_units: f64,
    /// Units actually deducted from pools by fulfilments.
    taken_units: f64,
    rejected: usize,
}

/// Drive a seeded workload through `lrms`/`clients`, recording outcomes.
fn drive(
    lrms: &[Lrm],
    clients: &[ResilientGrmClient],
    rng: &mut StdRng,
    steps: usize,
    ledger: &mut Ledger,
) {
    for _ in 0..steps {
        let i = (rng.gen::<u64>() % lrms.len() as u64) as usize;
        let amount = 0.5 + rng.gen::<f64>() * 1.5;
        match lrms[i].submit_or_degrade(&clients[i], amount) {
            Ok((alloc, degraded)) => {
                if degraded {
                    ledger.degraded_units += alloc.amount;
                } else {
                    ledger.remote_units += alloc.amount;
                }
                for lrm in lrms {
                    ledger.taken_units += lrm.fulfil_local(&alloc);
                    // Best-effort view refresh; drops just leave it stale.
                    let _ = lrm.report();
                }
            }
            Err(GrmError::Sched(SchedError::InsufficientCapacity { .. })) => {
                // Either a genuine rejection (settles as 0 units) or a
                // degrade-refusal whose id might still have landed
                // server-side: count as settlement slack either way.
                ledger.lost_units += amount;
                ledger.rejected += 1;
            }
            Err(e) => panic!("unexpected workload error: {e}"),
        }
    }
}

fn check_conservation(lrms: &[Lrm], ledger: &Ledger, ctx: &str) {
    let pooled: f64 = lrms.iter().map(Lrm::available).sum();
    let credited = POOL * N as f64;
    assert!(
        (pooled + ledger.taken_units - credited).abs() < EPS,
        "{ctx}: pool conservation broken: pooled {pooled} + taken {} != credited {credited}",
        ledger.taken_units,
    );
}

/// One full lossy-network scenario: chaos workload → heal → reconcile →
/// invariants. The server survives throughout; only the client link is
/// faulty.
fn run_lossy_scenario(seed: u64, mix: FaultMix, label: &str) -> agreements_grm::GrmStats {
    let plane = FaultPlane::new(seed, mix);
    let grm = GrmServer::spawn_chaotic(complete(N, 0.6), 2, &plane, "grm");
    let lrms: Vec<Lrm> = (0..N).map(|i| Lrm::new(i, POOL, grm.handle()).unwrap()).collect();
    let clients: Vec<ResilientGrmClient> = (0..N)
        .map(|i| ResilientGrmClient::new(grm.handle(), i as u64, RetryPolicy::aggressive()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
    let mut ledger = Ledger::default();
    drive(&lrms, &clients, &mut rng, STEPS, &mut ledger);

    // The network recovers; every LRM reconciles its degraded backlog.
    plane.heal();
    for (lrm, client) in lrms.iter().zip(&clients) {
        lrm.reconcile(client).unwrap_or_else(|e| panic!("{label} seed {seed}: reconcile: {e}"));
        assert_eq!(lrm.degraded_backlog(), 0, "{label} seed {seed}: backlog must settle");
    }

    let ctx = format!("{label} seed {seed}");
    check_conservation(&lrms, &ledger, &ctx);

    let stats = grm.handle().stats().unwrap();
    // At-most-once settlement: observed grants settle exactly once; only
    // lost intents may inflate the books beyond that.
    let settled = stats.granted_units + stats.journaled_units;
    let observed = ledger.remote_units + ledger.degraded_units;
    assert!(
        settled >= observed - EPS,
        "{ctx}: books lost an observed grant: settled {settled} < observed {observed}"
    );
    assert!(
        settled <= observed + ledger.lost_units + EPS,
        "{ctx}: double settlement: settled {settled} > observed {observed} + lost {}",
        ledger.lost_units,
    );

    // Availability convergence: the healed link is FIFO and reconcile
    // re-reported every pool, so the GRM's view matches pool truth.
    let avail = grm.handle().availability().unwrap();
    for (i, lrm) in lrms.iter().enumerate() {
        assert!(
            (avail[i] - lrm.available()).abs() < EPS,
            "{ctx}: availability[{i}] = {} diverged from pool {}",
            avail[i],
            lrm.available(),
        );
    }
    grm.shutdown();
    stats
}

#[test]
fn chaos_drop_heavy_matrix() {
    for seed in SEEDS {
        run_lossy_scenario(seed, FaultMix::drop_heavy(), "drop_heavy");
    }
}

#[test]
fn chaos_dup_heavy_matrix() {
    let mut dedup_hits = 0u64;
    for seed in SEEDS {
        dedup_hits +=
            run_lossy_scenario(seed, FaultMix::dup_heavy(), "dup_heavy").duplicate_requests;
    }
    // An at-least-once transport must actually exercise the dedup window
    // somewhere in the matrix; otherwise the scenario is vacuous.
    assert!(dedup_hits > 0, "dup-heavy matrix never hit the dedup window");
}

#[test]
fn chaos_delay_heavy_matrix() {
    for seed in SEEDS {
        run_lossy_scenario(seed, FaultMix::delay_heavy(), "delay_heavy");
    }
}

#[test]
fn chaos_mixed_matrix() {
    for seed in SEEDS {
        run_lossy_scenario(seed, FaultMix::mixed(), "mixed");
    }
}

#[test]
fn chaos_severe_loss_forces_degraded_grants() {
    // Loss heavy enough that some intents exhaust their retry budget:
    // degraded mode and journal replay must carry the federation.
    let severe = FaultMix { drop: 0.65, ..FaultMix::none() };
    let mut journaled = 0u64;
    for seed in SEEDS {
        journaled += run_lossy_scenario(seed, severe, "severe_loss").journaled_grants;
    }
    assert!(journaled > 0, "severe-loss matrix never degraded: chaos too gentle");
}

/// GRM crash mid-workload: clients keep degrading against the dead
/// server, then a cold standby is spawned over the same agreements and
/// rebuilt from the LRMs' re-reports + replayed grants.
#[test]
fn chaos_crash_failover_matrix() {
    for seed in SEEDS {
        let plane = FaultPlane::new(seed, FaultMix::mixed());
        let matrix = complete(N, 0.6);
        let grm = GrmServer::spawn_chaotic(matrix.clone(), 2, &plane, "grm");
        let lrms: Vec<Lrm> = (0..N).map(|i| Lrm::new(i, POOL, grm.handle()).unwrap()).collect();
        let clients: Vec<ResilientGrmClient> = (0..N)
            .map(|i| ResilientGrmClient::new(grm.handle(), i as u64, RetryPolicy::aggressive()))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(17));
        let mut ledger = Ledger::default();

        // Phase 1: lossy network, live server.
        drive(&lrms, &clients, &mut rng, STEPS / 2, &mut ledger);

        // The GRM dies; its in-memory books die with it.
        grm.crash();
        let pre_crash = ledger.degraded_units;

        // Phase 2: every intent must degrade (or refuse on a dry pool).
        drive(&lrms, &clients, &mut rng, STEPS / 3, &mut ledger);
        assert!(
            ledger.degraded_units > pre_crash,
            "crash seed {seed}: no degraded grants while the GRM was down"
        );

        // Failover: heal the network, spawn a cold standby over the same
        // agreements (none changed during the run), rebind every client,
        // reconcile every LRM.
        plane.heal();
        let standby = GrmServer::spawn(matrix, 2);
        for client in &clients {
            client.rebind(standby.handle());
        }
        for (lrm, client) in lrms.iter().zip(&clients) {
            // The LRMs only know the standby through the rebound clients;
            // their own handles still point at the dead server, so
            // reconcile carries both the re-report and the replay.
            lrm.reconcile(client).unwrap_or_else(|e| panic!("crash seed {seed}: reconcile: {e}"));
            assert_eq!(lrm.degraded_backlog(), 0, "crash seed {seed}");
        }

        let ctx = format!("crash seed {seed}");
        check_conservation(&lrms, &ledger, &ctx);

        // The standby was born empty: its books hold exactly the replayed
        // degraded grants (phase-1 remote grants died with the old GRM).
        let stats = standby.handle().stats().unwrap();
        assert!(
            (stats.journaled_units - ledger.degraded_units).abs() < EPS,
            "{ctx}: standby books {} != degraded grants {}",
            stats.journaled_units,
            ledger.degraded_units,
        );

        // Convergence: the standby's availability equals pool truth.
        let avail = standby.handle().availability().unwrap();
        for (i, lrm) in lrms.iter().enumerate() {
            assert!(
                (avail[i] - lrm.available()).abs() < EPS,
                "{ctx}: standby availability[{i}] diverged"
            );
        }

        // The standby serves fresh decisions over the recovered state.
        let post = clients[0].request(0, 1.0);
        assert!(post.is_ok(), "{ctx}: standby refused a routine request: {post:?}");
        standby.shutdown();
    }
}

/// A *partitioned* federation under chaos: [`TwoLevelGrm`] built by the
/// structure-aware auto-partitioner over a block economy, every group
/// GRM's link faulty (drop/dup/delay mix). LRMs hold the authoritative
/// per-principal pools and resilient idempotent clients carry the
/// traffic, both bound to their group GRM through the partition maps.
/// Post-heal, per group: pool conservation, at-most-once settlement,
/// availability convergence — and the healed federation must still route
/// an overflow request across groups via the coarse LP.
#[test]
fn chaos_partitioned_federation_matrix() {
    const GROUPS: usize = 4;
    const SIZE: usize = 3;
    let n = GROUPS * SIZE;
    let mut s = AgreementMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s.set(i, j, if i / SIZE == j / SIZE { 1.0 } else { 0.2 }).unwrap();
            }
        }
    }

    for seed in SEEDS {
        let plane = FaultPlane::new(seed, FaultMix::mixed());
        let fed = TwoLevelGrm::new_auto_chaotic(&s, &PartitionOptions::default(), 1, &plane)
            .unwrap_or_else(|e| panic!("partitioned seed {seed}: build: {e}"));
        assert_eq!(fed.num_groups(), GROUPS, "auto partition must recover the blocks");
        for (g, members) in fed.groups().iter().enumerate() {
            for &m in members {
                assert_eq!(m / SIZE, g, "principal {m} landed in group {g}");
            }
        }

        // Per-group authoritative pools and clients, wired through the
        // auto-derived partition maps.
        let lrms: Vec<Vec<Lrm>> = (0..GROUPS)
            .map(|g| (0..SIZE).map(|li| Lrm::new(li, POOL, fed.group_handle(g)).unwrap()).collect())
            .collect();
        let clients: Vec<Vec<ResilientGrmClient>> = fed
            .groups()
            .iter()
            .enumerate()
            .map(|(g, members)| {
                members
                    .iter()
                    .map(|&p| {
                        ResilientGrmClient::new(
                            fed.group_handle(g),
                            p as u64,
                            RetryPolicy::aggressive(),
                        )
                    })
                    .collect()
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(271).wrapping_add(9));
        let mut ledgers: Vec<Ledger> = (0..GROUPS).map(|_| Ledger::default()).collect();
        for _ in 0..STEPS {
            let p = (rng.gen::<u64>() % n as u64) as usize;
            let (g, li) = (fed.group_of(p), fed.local_index(p));
            let amount = 0.5 + rng.gen::<f64>() * 1.5;
            match lrms[g][li].submit_or_degrade(&clients[g][li], amount) {
                Ok((alloc, degraded)) => {
                    if degraded {
                        ledgers[g].degraded_units += alloc.amount;
                    } else {
                        ledgers[g].remote_units += alloc.amount;
                    }
                    for lrm in &lrms[g] {
                        ledgers[g].taken_units += lrm.fulfil_local(&alloc);
                        let _ = lrm.report();
                    }
                }
                Err(GrmError::Sched(SchedError::InsufficientCapacity { .. })) => {
                    ledgers[g].lost_units += amount;
                    ledgers[g].rejected += 1;
                }
                Err(e) => panic!("partitioned seed {seed}: workload: {e}"),
            }
        }

        plane.heal();
        for (g, group) in lrms.iter().enumerate() {
            for (lrm, client) in group.iter().zip(&clients[g]) {
                lrm.reconcile(client)
                    .unwrap_or_else(|e| panic!("partitioned seed {seed}: reconcile: {e}"));
                assert_eq!(lrm.degraded_backlog(), 0, "partitioned seed {seed}: backlog");
            }
        }

        for (g, group) in lrms.iter().enumerate() {
            let ctx = format!("partitioned seed {seed} group {g}");
            // Pool conservation, on the authoritative LRM side.
            let pooled: f64 = group.iter().map(Lrm::available).sum();
            let credited = POOL * SIZE as f64;
            assert!(
                (pooled + ledgers[g].taken_units - credited).abs() < EPS,
                "{ctx}: pooled {pooled} + taken {} != credited {credited}",
                ledgers[g].taken_units,
            );
            // At-most-once settlement in the group GRM's books.
            let stats = fed.group_handle(g).stats().unwrap();
            let settled = stats.granted_units + stats.journaled_units;
            let observed = ledgers[g].remote_units + ledgers[g].degraded_units;
            assert!(
                settled >= observed - EPS,
                "{ctx}: books lost a grant: settled {settled} < observed {observed}"
            );
            assert!(
                settled <= observed + ledgers[g].lost_units + EPS,
                "{ctx}: double settlement: settled {settled} > observed {observed} + lost {}",
                ledgers[g].lost_units,
            );
            // Availability convergence per group GRM.
            let avail = fed.group_handle(g).availability().unwrap();
            for (li, lrm) in group.iter().enumerate() {
                assert!(
                    (avail[li] - lrm.available()).abs() < EPS,
                    "{ctx}: availability[{li}] = {} diverged from pool {}",
                    avail[li],
                    lrm.available(),
                );
            }
        }

        // The healed federation still shares across groups: an overflow
        // request from principal 0 must draw on neighbour groups through
        // the coarse inter-group LP over the auto-derived aggregates.
        let home: f64 = fed.group_handle(0).availability().unwrap().iter().sum();
        let others: f64 = (1..GROUPS)
            .map(|g| fed.group_handle(g).availability().unwrap().iter().sum::<f64>())
            .sum();
        if others > 1.0 {
            let amount = home + 0.2 * others * 0.75;
            let alloc = fed
                .request(0, amount)
                .unwrap_or_else(|e| panic!("partitioned seed {seed}: overflow request: {e}"));
            let drawn: f64 = alloc.draws.iter().sum();
            assert!(
                (drawn - amount).abs() < EPS,
                "partitioned seed {seed}: overflow drew {drawn}, granted {amount}"
            );
            let cross: f64 = alloc.draws[SIZE..].iter().sum();
            assert!(cross > EPS, "partitioned seed {seed}: overflow never left the home group");
        }
        fed.shutdown();
    }
}

/// Lease-driven failover: an LRM that goes silent is zeroed out of the
/// availability view once its lease lapses, and resurrected by its next
/// report — under a logical chaos clock, so expiry is schedule-exact.
#[test]
fn chaos_lease_expiry_zeroes_silent_lrms() {
    for seed in SEEDS {
        let grm = GrmServer::spawn(complete(N, 0.6), 2);
        let lrms: Vec<Lrm> = (0..N).map(|i| Lrm::new(i, POOL, grm.handle()).unwrap()).collect();
        let mut clock = ChaosClock::with_jitter(0, seed, 3);
        let lease = 10;

        // Everybody reports at t0; ticks stay inside the lease.
        grm.handle().tick(clock.advance(lease / 2), lease).unwrap();
        let avail = grm.handle().availability().unwrap();
        assert!(avail.iter().all(|&v| (v - POOL).abs() < EPS), "seed {seed}: premature expiry");

        // LRM 2 goes silent; the others keep reporting as time passes.
        for _ in 0..4 {
            let now = clock.advance(lease / 2 + 1);
            lrms[0].report().unwrap();
            lrms[1].report().unwrap();
            grm.handle().tick(now, lease).unwrap();
        }
        let avail = grm.handle().availability().unwrap();
        assert!((avail[0] - POOL).abs() < EPS, "seed {seed}: live LRM 0 expired");
        assert!((avail[1] - POOL).abs() < EPS, "seed {seed}: live LRM 1 expired");
        assert_eq!(avail[2], 0.0, "seed {seed}: silent LRM 2 must be zeroed");

        // The silent LRM comes back: one report resurrects it.
        lrms[2].report().unwrap();
        let avail = grm.handle().availability().unwrap();
        assert!((avail[2] - POOL).abs() < EPS, "seed {seed}: re-report must resurrect");
        grm.shutdown();
    }
}
