//! The three workloads and the store handles they drive.

use clof::LockKind;
use clof_kvstore::cabinet::CabinetHandle;
use clof_kvstore::{CabinetDb, LockChoice, MiniDb, MiniDbHandle, MiniDbOptions};
use clof_topology::{platforms, Hierarchy};

use crate::oracle::FILL;

/// Which storage engine a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `MiniDb` (LevelDB stand-in): memtable, sorted runs, compaction.
    MiniDb,
    /// `CabinetDb` (Kyoto Cabinet stand-in): one bucket per key.
    Cabinet,
}

/// One set of inputs the benchmark runs.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
    /// Pre-loaded keys `0..keys`; every op targets one of them.
    pub keys: usize,
    /// Closed-loop workers; worker `i` is pinned to the `i`-th allowed
    /// host CPU and takes its handle with `CpuId` `i`.
    pub workers: usize,
    /// Percentage of ops that write (the rest are point gets).
    pub write_pct: u64,
    /// Warm-up before the timed window: enough for the larger store to
    /// go through a few flushes and a compaction first.
    pub warmup_ms: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    // Whole store in the memtable and in L2; the lock pair is 20-30% of a get.
    Workload {
        name: "hot-read-1t",
        engine: Engine::MiniDb,
        keys: 1000,
        workers: 1,
        write_pct: 0,
        warmup_ms: 500,
    },
    // Every op contends: hand-off, cohort pass and release order set the numbers.
    Workload {
        name: "hot-mixed-2t",
        engine: Engine::Cabinet,
        keys: 1000,
        workers: 2,
        write_pct: 20,
        warmup_ms: 500,
    },
    // ~13 MB store, flushes and compactions under the lock; the lock is <1% of an op.
    Workload {
        name: "large-readwrite-2t",
        engine: Engine::MiniDb,
        keys: 131_072,
        workers: 2,
        write_pct: 10,
        warmup_ms: 1000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fixed hierarchy: cache pairs, NUMA quads, system (8 CPUs).
pub fn hierarchy() -> Hierarchy {
    platforms::tiny()
}

/// The composition under test, innermost level first.
pub const CLOF_KINDS: [LockKind; 3] = [LockKind::Mcs, LockKind::Clh, LockKind::Ticket];

/// The store lock every workload is measured with.
pub fn clof_choice() -> LockChoice {
    LockChoice::Clof(CLOF_KINDS.to_vec())
}

/// Store key for index `idx`: the 8-byte big-endian layout `fill_seq` uses.
pub fn key_bytes(idx: usize) -> [u8; 8] {
    (idx as u64).to_be_bytes()
}

/// An open store; kept alive for as long as its handles run.
pub enum Db {
    Mini(MiniDb),
    Cabinet(CabinetDb),
}

/// One worker's handle on a [`Db`].
pub enum StoreHandle {
    Mini(MiniDbHandle),
    Cabinet(CabinetHandle),
}

impl Db {
    /// Opens the workload's store under `choice` and loads every key
    /// with [`FILL`].
    pub fn open_filled(w: &Workload, choice: &LockChoice) -> Result<Db, String> {
        let h = hierarchy();
        let db = match w.engine {
            Engine::MiniDb => Db::Mini(
                MiniDb::open(&h, choice, MiniDbOptions::default()).map_err(|e| e.to_string())?,
            ),
            Engine::Cabinet => {
                Db::Cabinet(CabinetDb::open(&h, choice, w.keys).map_err(|e| e.to_string())?)
            }
        };
        match db.handle(0) {
            StoreHandle::Mini(mut s) => s.fill_seq(w.keys),
            StoreHandle::Cabinet(mut s) => {
                for i in 0..w.keys {
                    s.set(key_bytes(i).to_vec(), FILL.to_vec());
                }
            }
        }
        Ok(db)
    }

    pub fn handle(&self, cpu: usize) -> StoreHandle {
        match self {
            Db::Mini(db) => StoreHandle::Mini(db.handle(cpu)),
            Db::Cabinet(db) => StoreHandle::Cabinet(db.handle(cpu)),
        }
    }
}

impl StoreHandle {
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        match self {
            StoreHandle::Mini(s) => s.get(key),
            StoreHandle::Cabinet(s) => s.get(key),
        }
    }

    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        match self {
            StoreHandle::Mini(s) => s.put(key, value),
            StoreHandle::Cabinet(s) => s.set(key, value),
        }
    }

    /// `(flushes, compactions)` so far; `(0, 0)` for engines without
    /// background maintenance.
    pub fn maintenance_counters(&mut self) -> (u64, u64) {
        match self {
            StoreHandle::Mini(s) => s.maintenance_counters(),
            StoreHandle::Cabinet(_) => (0, 0),
        }
    }

    /// Record count, where the engine keeps an exact one.
    pub fn exact_len(&mut self) -> Option<usize> {
        match self {
            StoreHandle::Mini(_) => None,
            StoreHandle::Cabinet(s) => Some(s.len()),
        }
    }
}
