//! Correctness oracle behind `failed`: every get is checked against the
//! pre-loaded key set and the exact bytes that were written, and the
//! store is audited after the run.

use clof_kvstore::LockChoice;

use crate::workload::{key_bytes, Db, Engine, StoreHandle, Workload};

/// The value `MiniDbHandle::fill_seq` writes, used for every pre-load.
pub const FILL: [u8; 16] = [0xAB; 16];

const WRITTEN_LEN: usize = 24;

/// Ops attempted and ops that gave a wrong answer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn check_word(idx: u64, tag: u64) -> u64 {
    // splitmix64 finaliser over both fields.
    let mut z = idx ^ tag.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value worker `writer` stores on its `seq`-th write (from 1) to
/// key `idx`: index, writer and sequence, and a check word over them.
pub fn encode(idx: usize, writer: u32, seq: u64) -> Vec<u8> {
    let tag = (u64::from(writer) << 48) | seq;
    let mut v = Vec::with_capacity(WRITTEN_LEN);
    v.extend_from_slice(&(idx as u64).to_le_bytes());
    v.extend_from_slice(&tag.to_le_bytes());
    v.extend_from_slice(&check_word(idx as u64, tag).to_le_bytes());
    v
}

/// `(idx, writer, seq)` of a value [`encode`] made, or `None` for any
/// other bytes.
fn decode(v: &[u8]) -> Option<(u64, usize, u64)> {
    if v.len() != WRITTEN_LEN {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(v[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let (idx, tag) = (word(0), word(1));
    let seq = tag & ((1 << 48) - 1);
    (seq != 0 && word(2) == check_word(idx, tag)).then_some((idx, (tag >> 48) as usize, seq))
}

/// One worker's view: what it wrote, and its tally.
pub struct WorkerOracle {
    me: usize,
    /// Sequence of this worker's latest write per key; 0 = never wrote.
    last: Vec<u64>,
    seq: u64,
    pub tally: Tally,
}

impl WorkerOracle {
    pub fn new(me: usize, keys: usize) -> Self {
        assert!(me < 1 << 16, "writer id must fit the value's tag");
        WorkerOracle {
            me,
            last: vec![0; keys],
            seq: 0,
            tally: Tally::default(),
        }
    }

    /// The value for this worker's next write to `idx`; counts the write.
    pub fn next_write(&mut self, idx: usize) -> Vec<u8> {
        self.seq += 1;
        self.last[idx] = self.seq;
        self.tally.note(true);
        encode(idx, self.me as u32, self.seq)
    }

    /// Checks what a get for pre-loaded key `idx` returned.
    pub fn check_get(&mut self, idx: usize, got: Option<&[u8]>) {
        let ok = self.get_ok(idx, got);
        self.tally.note(ok);
    }

    fn get_ok(&self, idx: usize, got: Option<&[u8]>) -> bool {
        // Every key was pre-loaded and none is ever deleted.
        let Some(v) = got else { return false };
        if v == FILL {
            // Writes never revert to the pre-load.
            return self.last[idx] == 0;
        }
        match decode(v) {
            // A value of ours must be our latest: our writes to a key are
            // ordered, and a newer one by anyone else carries their id.
            Some((k, w, s)) => k == idx as u64 && (w != self.me || s == self.last[idx]),
            None => false,
        }
    }

    /// Latest write sequence per key, for the audit; leaves the oracle
    /// without a write history.
    pub fn take_last(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.last)
    }
}

/// Post-run audit through a fresh handle, after every worker stopped:
/// the record count is exact where the engine keeps one, and each key
/// reads back either its pre-load (nobody wrote it) or some worker's
/// latest write to it. `lasts[w]` is worker `w`'s [`WorkerOracle::take_last`].
pub fn audit(h: &mut StoreHandle, keys: usize, lasts: &[Vec<u64>]) -> Tally {
    let mut t = Tally::default();
    if let Some(len) = h.exact_len() {
        t.note(len == keys);
    }
    for idx in 0..keys {
        let got = h.get(&key_bytes(idx));
        let ok = match got.as_deref() {
            None => false,
            Some(v) if v == FILL => lasts.iter().all(|l| l[idx] == 0),
            Some(v) => match decode(v) {
                Some((k, w, s)) => k == idx as u64 && lasts.get(w).is_some_and(|l| l[idx] == s),
                None => false,
            },
        };
        t.note(ok);
    }
    t
}

/// Feeds the oracle three wrong answers from a real store and one right
/// one, and refuses the run unless exactly the three are counted: a
/// benchmark whose oracle passes everything must not report.
pub fn self_check() -> Result<(), String> {
    let w = Workload {
        name: "oracle-self-check",
        engine: Engine::MiniDb,
        keys: 4,
        workers: 1,
        write_pct: 0,
        warmup_ms: 0,
    };
    let db = Db::open_filled(&w, &LockChoice::Std)?;
    let mut h = db.handle(0);
    let mut o = WorkerOracle::new(0, w.keys);
    // A get for a key that was never loaded, reported as key 0's answer.
    o.check_get(0, h.get(&key_bytes(w.keys)).as_deref());
    // Key 2's value returned for key 1.
    h.put(key_bytes(2).to_vec(), o.next_write(2));
    o.check_get(1, h.get(&key_bytes(2)).as_deref());
    // A stale pre-load after this worker overwrote key 3.
    let _ = o.next_write(3);
    o.check_get(3, Some(&FILL));
    // The right answer for key 2.
    o.check_get(2, h.get(&key_bytes(2)).as_deref());
    let want = Tally {
        attempted: 6,
        failed: 3,
    };
    if o.tally != want {
        return Err(format!(
            "oracle self-check counted {:?}, want {want:?}",
            o.tally
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    fn small(engine: Engine) -> Workload {
        Workload {
            name: "t",
            engine,
            keys: 64,
            workers: 1,
            write_pct: 0,
            warmup_ms: 0,
        }
    }

    #[test]
    fn self_check_passes() {
        self_check().unwrap();
    }

    #[test]
    fn get_of_a_never_loaded_key_is_a_failure() {
        let w = small(Engine::MiniDb);
        let db = Db::open_filled(&w, &crate::workload::clof_choice()).unwrap();
        let mut h = db.handle(0);
        let mut o = WorkerOracle::new(0, w.keys);
        o.check_get(7, h.get(&key_bytes(7)).as_deref());
        assert_eq!(
            o.tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        o.check_get(7, h.get(&key_bytes(w.keys + 7)).as_deref());
        assert_eq!(
            o.tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn corrupted_and_foreign_values_fail() {
        let mut o = WorkerOracle::new(1, 8);
        let mut v = encode(5, 0, 9);
        o.check_get(5, Some(&v));
        assert_eq!(
            o.tally.failed, 0,
            "another worker's write is a valid answer"
        );
        v[3] ^= 1;
        o.check_get(5, Some(&v));
        o.check_get(4, Some(&encode(5, 0, 9)));
        o.check_get(5, Some(&[0xAB; 15]));
        assert_eq!(
            o.tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
    }

    #[test]
    fn own_stale_write_fails() {
        let mut o = WorkerOracle::new(0, 8);
        let first = o.next_write(2);
        let _second = o.next_write(2);
        o.check_get(2, Some(&first));
        assert_eq!(o.tally.failed, 1);
    }

    #[test]
    fn audit_counts_a_missing_key_and_a_lost_write() {
        let w = small(Engine::Cabinet);
        let db = Db::open_filled(&w, &LockChoice::Std).unwrap();
        let mut h = db.handle(0);
        let mut o = WorkerOracle::new(0, w.keys);
        h.put(key_bytes(3).to_vec(), o.next_write(3));
        let mut last = o.take_last();
        let clean = audit(&mut h, w.keys, &[last.clone()]);
        assert_eq!(
            clean,
            Tally {
                attempted: 65,
                failed: 0
            }
        );

        last[9] = 7; // a write the store never received
        let Db::Cabinet(cab) = &db else {
            unreachable!()
        };
        assert!(cab.handle(0).remove(&key_bytes(10)));
        let t = audit(&mut h, w.keys, &[last]);
        // Length, key 9 (still the pre-load) and key 10 (gone).
        assert_eq!(
            t,
            Tally {
                attempted: 65,
                failed: 3
            }
        );
    }

    #[test]
    fn workloads_are_well_formed() {
        for w in &crate::workload::WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(w.write_pct <= 100 && w.keys > 0 && w.workers > 0);
        }
    }
}
