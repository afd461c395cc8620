//! Correctness checks over the recorded ops.
//!
//! * Every GET of a loaded key returns a 32 B value that some write to
//!   that key had already sent (the load's or a workload PUT's) and that
//!   no PUT acked before an earlier phase ended had replaced — never
//!   NotFound, an error, or another key's value.
//! * After the drain, each written key reads back from the tail as a
//!   value its final PUTs could have left: one that was acknowledged no
//!   earlier than the last PUT to that key was sent. With one PUT in
//!   flight per key at a time, that is exactly the last acked PUT.
//! * All replicas hold the same value and version for every key.

use crate::loadgen::{OpRecord, Outcome};
use crate::ops::{Kind, VALUE_LEN};
use std::collections::HashMap;

/// Write history of a run, built from every phase's records.
#[derive(Default)]
pub struct History {
    /// (rank, value hash) -> earliest send time of a PUT writing it.
    written: HashMap<(u32, u64), u64>,
    /// rank -> (latest PUT send time, acked PUTs as (ack time, value
    /// hash)).
    finals: HashMap<u32, (u64, Vec<(u64, u64)>)>,
}

impl History {
    /// Adds the PUTs of one phase. Phases run one after another, so
    /// every later PUT is sent after these.
    pub fn absorb(&mut self, ops: &[OpRecord]) {
        for r in ops.iter().filter(|r| r.kind == Kind::Put) {
            let e = self.written.entry((r.rank, r.put_value)).or_insert(r.sent);
            *e = (*e).min(r.sent);
            let (last_sent, acked) = self.finals.entry(r.rank).or_default();
            *last_sent = (*last_sent).max(r.sent);
            if r.ok() {
                acked.push((r.recv, r.put_value));
            }
            // A PUT acked before a later one was sent can no longer be
            // the final value.
            let last = *last_sent;
            acked.retain(|(ack, _)| *ack >= last);
        }
    }

    /// Adds one phase's PUTs, then checks its GETs; returns the failures.
    /// Once the phase is over, only each key's final candidates stay
    /// readable: every later GET is sent after these PUTs were acked.
    pub fn check_phase(&mut self, ops: &[OpRecord]) -> Vec<String> {
        self.absorb(ops);
        let errors = ops
            .iter()
            .filter(|r| r.kind == Kind::Get)
            .filter_map(|r| self.check_get(r).err())
            .collect();
        self.forget_superseded();
        errors
    }

    /// Drops every written value that is no longer a final candidate, so
    /// the history holds about one entry per key however many PUTs ran.
    pub fn forget_superseded(&mut self) {
        let finals = &self.finals;
        self.written.retain(|(rank, hash), _| {
            finals
                .get(rank)
                .is_some_and(|(_, acked)| acked.iter().any(|(_, v)| v == hash))
        });
    }

    /// Ranks written at least once, sorted.
    pub fn written_ranks(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.finals.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Checks one GET from a measured phase.
    pub fn check_get(&self, r: &OpRecord) -> Result<(), String> {
        match &r.outcome {
            Outcome::Value { len, hash, .. } if *len as usize == VALUE_LEN => {
                match self.written.get(&(r.rank, *hash)) {
                    Some(&sent) if sent <= r.recv => Ok(()),
                    Some(_) => Err(format!("GET key {} returned a value written later", r.rank)),
                    None => Err(format!(
                        "GET key {} returned a value never written to it",
                        r.rank
                    )),
                }
            }
            Outcome::Value { len, .. } => Err(format!(
                "GET key {} returned {len} B, expected {VALUE_LEN} B",
                r.rank
            )),
            other => Err(format!("GET key {} answered {other:?}", r.rank)),
        }
    }

    /// Checks a read-back after the drain against the final PUTs.
    pub fn check_final(&self, r: &OpRecord) -> Result<(), String> {
        let Outcome::Value { len, hash, .. } = &r.outcome else {
            return Err(format!(
                "read-back of key {} answered {:?}",
                r.rank, r.outcome
            ));
        };
        let Some((last_sent, acked)) = self.finals.get(&r.rank) else {
            return Err(format!(
                "read-back of key {} that was never written",
                r.rank
            ));
        };
        let ok = *len as usize == VALUE_LEN
            && acked.iter().any(|(ack, v)| ack >= last_sent && v == hash);
        if ok {
            Ok(())
        } else {
            Err(format!(
                "read-back of key {} is not its last acked PUT",
                r.rank
            ))
        }
    }

    #[cfg(test)]
    /// Test hook: alters the value recorded for the latest acked PUT of
    /// `rank`, as if the benchmark expected a wrong value.
    pub fn corrupt_expected(&mut self, rank: u32) {
        if let Some((_, acked)) = self.finals.get_mut(&rank) {
            if let Some((_, v)) = acked.iter_mut().max_by_key(|(ack, _)| *ack) {
                let old = *v;
                *v ^= 0xFF;
                if let Some(sent) = self.written.remove(&(rank, old)) {
                    self.written.insert((rank, *v), sent);
                }
            }
        }
    }
}

/// Compares one key across replicas: every replica must return the same
/// value and version.
pub fn replicas_agree(rank: u32, reads: &[Option<(Vec<u8>, u64)>]) -> Result<(), String> {
    match reads.split_first() {
        Some((first, rest)) if first.is_some() && rest.iter().all(|r| r == first) => Ok(()),
        _ => Err(format!("replicas disagree on key {rank}: {reads:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::value_hash;
    use bespokv_types::{ClientId, RequestId};

    fn rec(kind: Kind, rank: u32, v: u8, sent: u64, recv: u64, outcome: Outcome) -> OpRecord {
        OpRecord {
            kind,
            rank,
            put_value: value_hash(&[v; VALUE_LEN]),
            rid: RequestId::compose(ClientId(1), 0),
            due: sent,
            sent,
            recv,
            enc_ns: 0,
            dec_ns: 0,
            outcome,
        }
    }

    fn value(v: u8) -> Outcome {
        Outcome::Value {
            len: VALUE_LEN as u32,
            hash: value_hash(&[v; VALUE_LEN]),
        }
    }

    fn history() -> History {
        let mut h = History::default();
        h.absorb(&[
            rec(Kind::Put, 7, 1, 10, 20, Outcome::Done),
            rec(Kind::Put, 7, 2, 30, 40, Outcome::Done),
            rec(Kind::Put, 8, 3, 30, 40, Outcome::Done),
        ]);
        h
    }

    #[test]
    fn gets_must_return_a_value_written_before_the_reply() {
        let h = history();
        assert!(h.check_get(&rec(Kind::Get, 7, 0, 21, 25, value(1))).is_ok());
        assert!(h
            .check_get(&rec(Kind::Get, 7, 0, 21, 25, value(2)))
            .is_err());
        assert!(h
            .check_get(&rec(Kind::Get, 7, 0, 21, 25, value(3)))
            .is_err());
        let nf = Outcome::Error(Box::new(bespokv_types::KvError::NotFound));
        assert!(h.check_get(&rec(Kind::Get, 7, 0, 21, 25, nf)).is_err());
    }

    #[test]
    fn read_back_must_be_the_last_acked_put() {
        let h = history();
        assert!(h
            .check_final(&rec(Kind::Get, 7, 0, 50, 60, value(2)))
            .is_ok());
        assert!(h
            .check_final(&rec(Kind::Get, 7, 0, 50, 60, value(1)))
            .is_err());
    }

    #[test]
    fn overlapping_final_puts_accept_either_value() {
        let mut h = History::default();
        h.absorb(&[
            rec(Kind::Put, 9, 1, 10, 40, Outcome::Done),
            rec(Kind::Put, 9, 2, 20, 30, Outcome::Done),
        ]);
        for v in [1, 2] {
            assert!(h
                .check_final(&rec(Kind::Get, 9, 0, 50, 60, value(v)))
                .is_ok());
        }
    }

    #[test]
    fn values_replaced_in_an_earlier_phase_are_stale() {
        let mut h = History::default();
        assert!(h
            .check_phase(&[rec(Kind::Put, 7, 1, 10, 20, Outcome::Done)])
            .is_empty());
        assert!(h
            .check_phase(&[rec(Kind::Put, 7, 2, 30, 40, Outcome::Done)])
            .is_empty());
        let stale = h.check_phase(&[rec(Kind::Get, 7, 0, 50, 60, value(1))]);
        assert_eq!(stale.len(), 1);
        assert!(h
            .check_phase(&[rec(Kind::Get, 7, 0, 50, 60, value(2))])
            .is_empty());
    }

    #[test]
    fn corrupting_one_expected_value_fires_the_check() {
        let mut h = history();
        let read = rec(Kind::Get, 7, 0, 50, 60, value(2));
        assert!(h.check_final(&read).is_ok());
        h.corrupt_expected(7);
        assert!(h.check_final(&read).is_err());
        assert!(h.check_get(&read).is_err());
        // Other keys are untouched.
        assert!(h
            .check_final(&rec(Kind::Get, 8, 0, 50, 60, value(3)))
            .is_ok());
    }

    #[test]
    fn replica_agreement() {
        let a = Some((vec![1u8], 3));
        assert!(replicas_agree(0, &[a.clone(), a.clone(), a.clone()]).is_ok());
        assert!(replicas_agree(0, &[a.clone(), Some((vec![1u8], 4)), a.clone()]).is_err());
        assert!(replicas_agree(0, &[None, None, None]).is_err());
    }
}
