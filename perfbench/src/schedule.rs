//! Seeded operation schedules and the payloads that verify them.
//!
//! The runtime receives only what these functions generate.  Mixes that set
//! an end-to-end figure are stratified rather than drawn independently, so
//! two seeds differ in order and in small sizes but not in their share of
//! bulk bytes: exactly one op in every [`BULK_EVERY`] is bulk, and the bulk
//! sizes cycle through shuffled copies of [`BULK_SIZES`].

use std::sync::{Mutex, OnceLock};

use crate::rng::Rng;

/// Largest message that counts as small (its latency is sampled).
pub const SMALL_MAX: usize = 4096;

/// One op in this many is a bulk p2p message.
pub const BULK_EVERY: usize = 16;

/// Bulk p2p sizes: 128 KiB and 256 KiB fit in one streamed rendezvous chunk
/// (256 KiB by default), the larger ones span several.
pub const BULK_SIZES: [usize; 5] = [128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20];

/// Largest p2p message.
pub const P2P_MAX: usize = 2 << 20;

/// Length of the p2p schedule; the benchmark cycles through it.
pub const P2P_LEN: usize = 4096;

/// Length of the collective schedule; the benchmark cycles through it.
pub const COLLECTIVE_LEN: usize = 4096;

/// One collective op in this many carries [`COLLECTIVE_BIG`] bytes.
pub const BIG_EVERY: usize = 8;

/// The large collective payload (above the ring allreduce threshold).
pub const COLLECTIVE_BIG: usize = 64 << 10;

/// Nonblocking ops per block of [`BULK_EVERY`].  On GPU slots the blocking
/// and nonblocking forms run different protocols whose small-message
/// latencies differ about twofold, and the nonblocking one is itself
/// bimodal; an even split would put the pooled p50 in the gap between the
/// protocols, and a quarter would put the p90 between the modes of the
/// slower one.  With one in eight, both percentiles fall inside a mode.
pub const NONBLOCKING_PER_BLOCK: usize = 2;

/// One point-to-point round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P2pOp {
    /// Bytes in each direction.
    pub size: usize,
    /// `irecv` + `isend` + `wait` instead of blocking `send`/`recv`.
    pub nonblocking: bool,
}

/// The p2p ping-pong schedule for `seed`.
///
/// Every block of [`BULK_EVERY`] ops holds, in seeded order, one bulk op
/// (cycling through shuffled [`BULK_SIZES`]) and one small op from each of
/// `BULK_EVERY - 1` equal strata of a log-uniform size over `0..=4096`
/// (log of `size + 1`, so 0 B occurs).  [`NONBLOCKING_PER_BLOCK`] ops of
/// each block use the nonblocking form and the rest the blocking one.
pub fn p2p_schedule(seed: u64) -> Vec<P2pOp> {
    let mut rng = Rng::new(seed);
    let mut bulk = Vec::new();
    let mut ops = Vec::with_capacity(P2P_LEN);
    let strata = (BULK_EVERY - 1) as f64;
    for _ in 0..P2P_LEN / BULK_EVERY {
        if bulk.is_empty() {
            bulk = BULK_SIZES.to_vec();
            rng.shuffle(&mut bulk);
        }
        let mut sizes: Vec<usize> = (0..BULK_EVERY - 1)
            .map(|k| {
                let u = (k as f64 + rng.unit()) / strata;
                let x = ((SMALL_MAX + 1) as f64).powf(u) as usize;
                x.saturating_sub(1).min(SMALL_MAX)
            })
            .collect();
        sizes.push(bulk.pop().expect("refilled above"));
        rng.shuffle(&mut sizes);
        let mut modes: Vec<bool> = (0..BULK_EVERY).map(|k| k < NONBLOCKING_PER_BLOCK).collect();
        rng.shuffle(&mut modes);
        ops.extend(
            sizes
                .into_iter()
                .zip(modes)
                .map(|(size, nonblocking)| P2pOp { size, nonblocking }),
        );
    }
    ops
}

/// Collective kinds in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// `barrier_in`.
    Barrier,
    /// `broadcast_in`.
    Broadcast,
    /// `allreduce_in` (sum of `f64`s).
    Allreduce,
    /// `allgather_in`.
    Allgather,
}

impl CollectiveKind {
    /// The `cpu.*` span name of this kind.
    pub fn span(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "cpu.barrier",
            CollectiveKind::Broadcast => "cpu.broadcast",
            CollectiveKind::Allreduce => "cpu.allreduce",
            CollectiveKind::Allgather => "cpu.allgather",
        }
    }
}

/// One collective op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveOp {
    /// What to run.
    pub kind: CollectiveKind,
    /// Over the world (`true`) or the rank's own parity subgroup.
    pub world: bool,
    /// Payload bytes per rank (a multiple of 8; unused by barriers).
    pub size: usize,
    /// Broadcast root, taken modulo the communicator size.
    pub root: usize,
}

/// The collective schedule for `seed`.
///
/// Every block of [`BIG_EVERY`] ops holds, in seeded order, each kind
/// twice, four world and four subgroup ops, one [`COLLECTIVE_BIG`] payload
/// and one payload from each of `BIG_EVERY - 1` equal strata of a
/// log-uniform multiple of 8 over 8 B–4 KiB.
pub fn collective_schedule(seed: u64) -> Vec<CollectiveOp> {
    const KINDS: [CollectiveKind; 4] = [
        CollectiveKind::Barrier,
        CollectiveKind::Broadcast,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
    ];
    let mut rng = Rng::new(seed ^ 0xC011_EC71_4E5E_ED00);
    let mut ops = Vec::with_capacity(COLLECTIVE_LEN);
    let strata = (BIG_EVERY - 1) as f64;
    for _ in 0..COLLECTIVE_LEN / BIG_EVERY {
        let mut kinds: Vec<CollectiveKind> = (0..BIG_EVERY).map(|k| KINDS[k % 4]).collect();
        let mut scopes: Vec<bool> = (0..BIG_EVERY).map(|k| k % 2 == 0).collect();
        let mut sizes: Vec<usize> = (0..BIG_EVERY - 1)
            .map(|k| {
                let u = (k as f64 + rng.unit()) / strata;
                8 * (((SMALL_MAX / 8) as f64).powf(u) as usize).clamp(1, SMALL_MAX / 8)
            })
            .collect();
        sizes.push(COLLECTIVE_BIG);
        rng.shuffle(&mut kinds);
        rng.shuffle(&mut scopes);
        rng.shuffle(&mut sizes);
        for k in 0..BIG_EVERY {
            ops.push(CollectiveOp {
                kind: kinds[k],
                world: scopes[k],
                size: sizes[k],
                root: rng.below(6) as usize,
            });
        }
    }
    ops
}

/// Direction of a p2p message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Rank 0 → rank 1.
    Ping,
    /// Rank 1 → rank 0.
    Pong,
}

/// The bytes of p2p message `op` in direction `dir`: an 8-byte sequence
/// stamp (truncated for shorter messages) followed by a fixed template, so
/// a lost, duplicated or reordered message fails the byte-for-byte check.
#[derive(Debug, Clone, Copy)]
pub struct Stamped {
    template: &'static [u8],
    dir: Dir,
}

impl Stamped {
    /// Messages of up to [`P2P_MAX`] bytes in direction `dir`.  The
    /// templates are built once per process.
    pub fn new(dir: Dir) -> Self {
        static PING: OnceLock<Vec<u8>> = OnceLock::new();
        static PONG: OnceLock<Vec<u8>> = OnceLock::new();
        let (cell, salt) = match dir {
            Dir::Ping => (&PING, 0x5A),
            Dir::Pong => (&PONG, 0xA5),
        };
        let template = cell.get_or_init(|| {
            (0..P2P_MAX)
                .map(|k| (k.wrapping_mul(131) >> 3) as u8 ^ salt)
                .collect()
        });
        Stamped { template, dir }
    }

    /// The stamp of op `seq` in this direction.
    pub fn stamp(&self, seq: u64) -> [u8; 8] {
        (2 * seq + (self.dir == Dir::Pong) as u64).to_le_bytes()
    }

    /// The full template (stamp bytes not yet patched in).
    pub fn template(&self) -> &'static [u8] {
        self.template
    }

    /// Patch op `seq`'s stamp into `buf` (at least `size` bytes long, a
    /// copy of the template) and return the message.
    pub fn fill<'a>(&self, buf: &'a mut [u8], seq: u64, size: usize) -> &'a [u8] {
        let n = size.min(8);
        buf[..n].copy_from_slice(&self.stamp(seq)[..n]);
        &buf[..size]
    }

    /// True when `data` is exactly op `seq`'s message of `size` bytes.
    pub fn check(&self, data: &[u8], seq: u64, size: usize) -> bool {
        let n = size.min(8);
        data.len() == size
            && data[..n] == self.stamp(seq)[..n]
            && data[n..] == self.template[n..size]
    }
}

/// A [`P2P_MAX`]-byte scratch buffer from a process-wide pool, so that
/// repeated launches do not allocate harness memory again (which would move
/// `peak_rss_MiB` from run to run).  Returned to the pool on drop.
#[derive(Debug)]
pub struct Scratch(Vec<u8>);

static SCRATCH: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

impl Scratch {
    /// A buffer of [`P2P_MAX`] bytes (contents unspecified).
    pub fn take() -> Self {
        let pooled = SCRATCH.lock().expect("scratch pool poisoned").pop();
        Scratch(pooled.unwrap_or_else(|| vec![0; P2P_MAX]))
    }
}

impl std::ops::Deref for Scratch {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Ok(mut pool) = SCRATCH.lock() {
            pool.push(std::mem::take(&mut self.0));
        }
    }
}

/// Rank `rank`'s allreduce contribution for op `seq`: element `k` is
/// `(rank + 1)(k + 1) + seq mod 5`, integers small enough to sum exactly.
pub fn allreduce_input(rank: usize, seq: u64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|k| ((rank + 1) * (k + 1)) as f64 + (seq % 5) as f64)
        .collect()
}

/// The closed-form sum of [`allreduce_input`] over ranks `0..m`.
pub fn allreduce_expected(m: usize, seq: u64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|k| ((k + 1) * m * (m + 1) / 2) as f64 + (m as u64 * (seq % 5)) as f64)
        .collect()
}

/// The block rank `rank` contributes to (or roots in) collective `seq`.
pub fn block_bytes(rank: usize, seq: u64, size: usize) -> Vec<u8> {
    let base = (seq as usize).wrapping_mul(31).wrapping_add(rank * 7);
    (0..size).map(|k| base.wrapping_add(k) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_different_seeds_differ() {
        assert_eq!(p2p_schedule(7), p2p_schedule(7));
        assert_ne!(p2p_schedule(7), p2p_schedule(8));
        assert_eq!(collective_schedule(7), collective_schedule(7));
        assert_ne!(collective_schedule(7), collective_schedule(8));
    }

    #[test]
    fn p2p_mix_is_stratified() {
        for seed in [1, 2, 3] {
            let ops = p2p_schedule(seed);
            let bulk: Vec<usize> = ops
                .iter()
                .filter(|o| o.size > SMALL_MAX)
                .map(|o| o.size)
                .collect();
            assert_eq!(bulk.len(), P2P_LEN / BULK_EVERY);
            for size in BULK_SIZES {
                let n = bulk.iter().filter(|&&s| s == size).count();
                assert!(n.abs_diff(bulk.len() / BULK_SIZES.len()) <= 1);
            }
            assert!(ops.iter().any(|o| o.size == 0));
            assert!(ops.iter().all(|o| o.size <= P2P_MAX));
            assert_eq!(
                ops.iter().filter(|o| o.nonblocking).count(),
                P2P_LEN / BULK_EVERY * NONBLOCKING_PER_BLOCK
            );
        }
    }

    #[test]
    fn collective_mix_covers_every_kind_and_scope() {
        let ops = collective_schedule(5);
        let big = ops.iter().filter(|o| o.size == COLLECTIVE_BIG).count();
        assert_eq!(big, COLLECTIVE_LEN / BIG_EVERY);
        assert!(ops.iter().all(|o| o.size.is_multiple_of(8) && o.size >= 8));
        for kind in [
            CollectiveKind::Barrier,
            CollectiveKind::Broadcast,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            for world in [false, true] {
                assert!(ops.iter().any(|o| o.kind == kind && o.world == world));
            }
        }
        assert!(ops
            .iter()
            .any(|o| o.kind == CollectiveKind::Allreduce && o.world && o.size == COLLECTIVE_BIG));
    }

    #[test]
    fn stamped_messages_check_byte_for_byte() {
        let ping = Stamped::new(Dir::Ping);
        let pong = Stamped::new(Dir::Pong);
        let mut buf = ping.template()[..100].to_vec();
        assert_eq!(Scratch::take().len(), P2P_MAX);
        let msg = ping.fill(&mut buf, 9, 100).to_vec();
        assert!(ping.check(&msg, 9, 100));
        assert!(!ping.check(&msg, 10, 100));
        assert!(!pong.check(&msg, 9, 100));
        assert!(!ping.check(&msg[..99], 9, 100));
        let mut flipped = msg.clone();
        flipped[57] ^= 1;
        assert!(!ping.check(&flipped, 9, 100));
        assert!(ping.check(&[], 3, 0));
    }

    #[test]
    fn allreduce_closed_form_matches_a_direct_sum() {
        for m in [3, 6] {
            let direct: Vec<f64> = (0..4)
                .map(|k| (0..m).map(|r| allreduce_input(r, 11, 4)[k]).sum())
                .collect();
            assert_eq!(direct, allreduce_expected(m, 11, 4));
        }
    }
}
