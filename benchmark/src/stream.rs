//! The daemon workloads' inputs: the economies and the op stream, both a
//! pure function of `(workload, seed)`. The daemon receives only what is
//! generated here.

use agreements_flow::{AgreementMatrix, Structure};
use agreements_net::FsyncPolicy;
use agreements_trace::ScaleConfig;

/// Epochs generated up front, at least; the stream cycles through them.
const MIN_EPOCHS: usize = 64;

/// Demands generated up front, at least. A small economy gets more
/// epochs than `MIN_EPOCHS`, so that the mix of cheap and costly
/// decisions — and with it every metric — is the same from seed to seed.
const MIN_DEMANDS: usize = 16_384;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Economy {
    /// The paper's case study: complete graph, every ISP shares 10%.
    Complete10,
    /// The grown case study, `ScaleConfig::isp`.
    Isp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `GrmServer::spawn`, what `agreements serve` runs.
    Flat,
    /// `HierarchicalScheduler::auto` + `set_parallel_auto`.
    Hierarchical,
}

/// One daemon workload: economy, engine, durability and load shape.
#[derive(Debug, Clone, Copy)]
pub struct DaemonSpec {
    pub name: &'static str,
    pub n: usize,
    pub economy: Economy,
    pub level: usize,
    pub engine: Engine,
    pub fsync: FsyncPolicy,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// Ops driven before the measured window: a fixed count, enough to
    /// finish the engine's lazy set-up (flow table, LP skeletons, executor
    /// break-even) and take a third of a second or less, because how long
    /// an op takes varies more than anything else set-up does.
    pub warmup_ops: u64,
}

const BATCHED: FsyncPolicy = FsyncPolicy::Batched { max_pending: 32 };

pub const WIRE10: DaemonSpec = DaemonSpec {
    name: "wire10",
    n: 10,
    economy: Economy::Complete10,
    level: 9,
    engine: Engine::Flat,
    fsync: BATCHED,
    window: 64,
    warmup_ops: 4_000,
};

pub const FLAT128: DaemonSpec = DaemonSpec {
    name: "flat128",
    n: 128,
    economy: Economy::Isp,
    level: 1,
    engine: Engine::Flat,
    fsync: BATCHED,
    window: 64,
    warmup_ops: 2_000,
};

pub const ISP1000: DaemonSpec = DaemonSpec {
    name: "isp1000",
    n: 1000,
    economy: Economy::Isp,
    level: 1,
    engine: Engine::Hierarchical,
    fsync: BATCHED,
    window: 64,
    warmup_ops: 3_000,
};

pub const SERIAL10: DaemonSpec = DaemonSpec {
    name: "serial10",
    n: 10,
    economy: Economy::Complete10,
    level: 9,
    engine: Engine::Flat,
    fsync: FsyncPolicy::EveryOp,
    window: 1,
    warmup_ops: 1_000,
};

impl DaemonSpec {
    pub fn matrix(&self) -> AgreementMatrix {
        match self.economy {
            Economy::Complete10 => {
                Structure::Complete { n: self.n, share: 0.10 }.build().expect("valid structure")
            }
            Economy::Isp => ScaleConfig::isp(self.n, 0, 0).agreements().expect("valid economy"),
        }
    }

    pub fn fsync_label(&self) -> String {
        match self.fsync {
            FsyncPolicy::EveryOp => "everyop".into(),
            FsyncPolicy::Batched { max_pending } => format!("batched:{max_pending}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Report { lrm: usize, available: f64 },
    Demand { lrm: usize, amount: f64 },
}

/// Epochs of *(every principal reports its pool; then k = ⌈5n/3⌉
/// demands)*, indexed by a global op number and cycled.
///
/// The generator's day is diurnal, so consecutive demands share an hour
/// and a mix of requesters. Epoch `e` takes every `epochs`-th demand
/// starting at the `e`-th: each epoch then spans the whole day, epochs
/// are alike, and a run measures the same mix however far into the
/// cycle it gets.
pub struct Stream {
    n: usize,
    pool: Vec<f64>,
    /// `epochs × k` demands in the generator's time order.
    demands: Vec<(usize, f64)>,
    per_epoch: usize,
    epochs: usize,
}

impl Stream {
    pub fn generate(n: usize, seed: u64) -> Stream {
        let per_epoch = (5 * n).div_ceil(3);
        let epochs = MIN_DEMANDS.div_ceil(per_epoch).max(MIN_EPOCHS);
        let workload = ScaleConfig::isp(n, epochs * per_epoch, seed).generate();
        Stream {
            n,
            pool: workload.availability,
            demands: workload.demands.iter().map(|d| (d.requester, d.amount)).collect(),
            per_epoch,
            epochs,
        }
    }

    pub fn pool(&self) -> &[f64] {
        &self.pool
    }

    pub fn epoch_len(&self) -> u64 {
        (self.n + self.per_epoch) as u64
    }

    /// The `g`-th op of the cycled stream.
    pub fn op(&self, g: u64) -> Op {
        let len = self.epoch_len();
        let epoch = ((g / len) % self.epochs as u64) as usize;
        let pos = (g % len) as usize;
        if pos < self.n {
            Op::Report { lrm: pos, available: self.pool[pos] }
        } else {
            let (lrm, amount) = self.demands[(pos - self.n) * self.epochs + epoch];
            Op::Demand { lrm, amount }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        let a = Stream::generate(10, 7);
        let b = Stream::generate(10, 7);
        let c = Stream::generate(10, 8);
        let ops = |s: &Stream| (0..200).map(|g| s.op(g)).collect::<Vec<_>>();
        assert_eq!(ops(&a), ops(&b));
        assert_ne!(ops(&a), ops(&c));
    }

    #[test]
    fn epochs_open_with_every_report_and_cycle() {
        let s = Stream::generate(10, 1);
        assert_eq!(s.epoch_len(), 27);
        for g in 0..10 {
            assert!(matches!(s.op(g), Op::Report { lrm, .. } if lrm == g as usize));
        }
        assert!(matches!(s.op(10), Op::Demand { .. }));
        assert_eq!(s.op(12), s.op(12 + 27 * s.epochs as u64));
        assert_ne!(s.op(12), s.op(12 + 27));
    }
}
