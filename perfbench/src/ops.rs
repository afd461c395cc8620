//! Workload definitions and the seeded op streams built on
//! `bespokv_workloads::ycsb::Workload`.
//!
//! The seed arrives as an argument and goes into `WorkloadConfig::seed`;
//! the store only ever sees the operations generated from it.

use bespokv_proto::client::Op;
use bespokv_types::{Key, Value};
use bespokv_workloads::ycsb::{make_key, make_value, Distribution, Mix, Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys loaded before any workload runs.
pub const KEYS: u64 = 100_000;
/// Key size in bytes (the paper's 16 B).
pub const KEY_LEN: usize = 16;
/// Value size in bytes (the paper's 32 B).
pub const VALUE_LEN: usize = 32;

/// One named traffic mix with its fixed open-loop rate.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// GET/PUT shares.
    pub mix: Mix,
    /// Key popularity.
    pub distribution: Distribution,
    /// Offered rate of the `open` phase, in ops/s.
    pub rate: f64,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "read_mostly_uniform",
        mix: Mix::READ_MOSTLY,
        distribution: Distribution::Uniform,
        rate: 20_000.0,
    },
    WorkloadSpec {
        name: "update_heavy_zipf",
        mix: Mix::UPDATE_INTENSIVE,
        distribution: Distribution::Zipfian,
        rate: 10_000.0,
    },
    WorkloadSpec {
        name: "write_only_uniform",
        mix: Mix {
            get: 0.0,
            put: 1.0,
            scan: 0.0,
        },
        distribution: Distribution::Uniform,
        rate: 5_000.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The two operation kinds the mixes issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Point read, sent to the tail.
    Get,
    /// Point write, sent to the head.
    Put,
}

impl Kind {
    /// 0 for GET, 1 for PUT: the index of per-kind arrays.
    pub fn idx(self) -> usize {
        match self {
            Kind::Get => 0,
            Kind::Put => 1,
        }
    }
}

/// One generated operation plus what the checks need to know about it.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchOp {
    /// GET or PUT.
    pub kind: Kind,
    /// Rank of the key in `0..KEYS`.
    pub rank: u32,
    /// The operation as sent.
    pub op: Op,
}

/// Seeded op stream of one phase of one workload.
pub struct OpStream {
    w: Workload,
}

impl OpStream {
    /// The stream for `phase` of `spec` under `seed`: same arguments, same
    /// ops; another seed or phase, another stream.
    pub fn new(spec: &WorkloadSpec, seed: u64, phase: u64) -> OpStream {
        let cfg = WorkloadConfig {
            num_keys: KEYS,
            key_len: KEY_LEN,
            value_len: VALUE_LEN,
            mix: spec.mix,
            distribution: spec.distribution,
            scan_len: 0,
            seed,
        };
        OpStream {
            w: Workload::new(cfg).fork(phase),
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> BenchOp {
        let op = self.w.next_op();
        let (kind, key) = match &op {
            Op::Get { key } => (Kind::Get, key),
            Op::Put { key, .. } => (Kind::Put, key),
            other => panic!("mix produced an unsupported op {other:?}"),
        };
        BenchOp {
            kind,
            rank: rank_of(key),
            op,
        }
    }
}

/// The key of a rank.
pub fn key(rank: u32) -> Key {
    make_key(rank as u64, KEY_LEN)
}

/// Recovers the rank from a `user000000001234` key.
pub fn rank_of(key: &Key) -> u32 {
    let digits = &key.as_bytes()[4..];
    digits
        .iter()
        .fold(0u32, |acc, d| acc * 10 + u32::from(d - b'0'))
}

/// The value the load phase writes for a rank (distinct per rank, and
/// distinct from every value a workload stream writes).
pub fn load_value(rank: u32) -> Value {
    make_value((1 << 63) | (u64::from(rank) << 1), VALUE_LEN)
}

/// The load phase: one PUT of [`load_value`] per key, in rank order.
pub fn load_op(rank: u32) -> BenchOp {
    BenchOp {
        kind: Kind::Put,
        rank,
        op: Op::Put {
            key: key(rank),
            value: load_value(rank),
        },
    }
}

/// 64-bit FNV-1a of a value: how records and checks compare values
/// without keeping their bytes.
pub fn value_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Poisson arrival offsets (ns from phase start) at `rate` ops/s over
/// `secs` seconds, drawn from `seed`.
pub fn poisson_offsets(rate: f64, secs: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9015_5011);
    let end = secs * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<BenchOp> {
        let mut s = OpStream::new(&WORKLOADS[1], seed, 1);
        (0..2000).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn phases_get_distinct_streams() {
        let mut a = OpStream::new(&WORKLOADS[0], 3, 1);
        let mut b = OpStream::new(&WORKLOADS[0], 3, 2);
        let a: Vec<_> = (0..50).map(|_| a.next_op()).collect();
        let b: Vec<_> = (0..50).map(|_| b.next_op()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn keys_and_values_have_paper_sizes_and_ranks_roundtrip() {
        for rank in [0, 1, 99_999] {
            assert_eq!(key(rank).len(), KEY_LEN);
            assert_eq!(rank_of(&key(rank)), rank);
            assert_eq!(load_value(rank).len(), VALUE_LEN);
        }
        assert_ne!(load_value(1), load_value(2));
    }

    #[test]
    fn write_only_mix_issues_only_puts() {
        let mut s = OpStream::new(&WORKLOADS[2], 1, 1);
        assert!((0..1000).all(|_| s.next_op().kind == Kind::Put));
    }

    #[test]
    fn poisson_offsets_meet_mean_rate() {
        let offs = poisson_offsets(10_000.0, 2.0, 42);
        // 20k expected arrivals; sd ~141, so 2% is more than 2.8 sd.
        let n = offs.len() as f64;
        assert!((n - 20_000.0).abs() < 400.0, "{n} arrivals");
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(offs, poisson_offsets(10_000.0, 2.0, 42));
        assert_ne!(offs, poisson_offsets(10_000.0, 2.0, 43));
    }
}
