//! Internal request/reply plumbing between kernel threads and the
//! communication thread, and the wire format of DCGN point-to-point messages
//! exchanged between nodes.
//!
//! All variable-size bodies travel as pooled [`Payload`]s: layer hops move a
//! reference instead of memcpy'ing a fresh `Vec`, and the point-to-point
//! framing ([`frame_p2p`]/[`decode_p2p`]) reuses the payload's reserved
//! headroom so the body bytes are written once and never copied again on
//! their way to the wire.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::Sender;
use dcgn_rmpi::{ReduceDtype, ReduceOp};

use crate::buffer::{Payload, PAYLOAD_HEADROOM};
use crate::error::DcgnError;
use crate::group::CommId;

/// Completion information returned by DCGN receives (the analogue of the
/// paper's `dcgn::CommStatus`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommStatus {
    /// DCGN rank the message came from.
    pub source: usize,
    /// Tag the message was sent with (0 for the untagged API).
    pub tag: u32,
    /// Payload size in bytes.
    pub len: usize,
}

/// Per-rank outcome of a collective operation, produced by the comm thread's
/// generic collective engine and scattered back to every joined rank.
/// Payload-carrying results are cheap to clone (shared buffers), so
/// scattering one result to N local ranks no longer copies it N times.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CollectiveResult {
    /// No payload for this rank (barrier; non-root ranks of rooted
    /// collectives).
    Unit,
    /// A flat payload: the root's bytes (broadcast), this rank's chunk
    /// (scatter) or the reduced vector (reduce at root / allreduce).
    Bytes(Payload),
    /// Per-rank chunks indexed by global rank (gather at root, allgather).
    Chunks(Vec<Payload>),
}

/// Reply sent back to the requesting kernel thread when its communication
/// request completes.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A send has been accepted / delivered.
    SendDone,
    /// A receive completed with the given payload.
    RecvDone {
        /// Payload bytes.
        data: Payload,
        /// Completion metadata.
        status: CommStatus,
    },
    /// A collective completed; the payload is this rank's share of the
    /// result.
    CollectiveDone(CollectiveResult),
    /// The request failed.
    Error(DcgnError),
}

/// The kinds of communication request a kernel (CPU or GPU slot) can issue.
///
/// Every collective carries the [`CommId`] of the communicator it runs over;
/// `root` arguments and the indexing of chunked results are expressed in
/// that communicator's sub-rank space (which coincides with global DCGN
/// ranks for [`CommId::WORLD`]).
#[derive(Debug)]
pub(crate) enum RequestKind {
    /// Point-to-point send.
    Send { dst: usize, tag: u32, data: Payload },
    /// Point-to-point receive.  `None` filters are wildcards: any source
    /// and/or any tag (the GPU mailbox's `ANY_TAG` decodes to `tag: None`).
    Recv {
        src: Option<usize>,
        tag: Option<u32>,
    },
    /// Barrier across the communicator's ranks.
    Barrier { comm: CommId },
    /// Broadcast from sub-rank `root`; `data` is `Some` only at the root.
    Broadcast {
        comm: CommId,
        root: usize,
        data: Option<Payload>,
    },
    /// Gather to sub-rank `root`; every rank contributes `data`.
    Gather {
        comm: CommId,
        root: usize,
        data: Payload,
    },
    /// Scatter from sub-rank `root`; `chunks` is `Some` (one chunk per
    /// member, in sub-rank order) only at the root.  Every rank receives its
    /// own chunk.
    Scatter {
        comm: CommId,
        root: usize,
        chunks: Option<Vec<Payload>>,
    },
    /// Allgather: every rank contributes `data` and receives every member's
    /// contribution indexed by sub-rank.
    Allgather { comm: CommId, data: Payload },
    /// Element-wise reduction of typed vectors (little-endian `dtype`
    /// elements) to sub-rank `root`.
    Reduce {
        comm: CommId,
        root: usize,
        data: Payload,
        op: ReduceOp,
        dtype: ReduceDtype,
    },
    /// Element-wise reduction delivered to every rank.
    Allreduce {
        comm: CommId,
        data: Payload,
        op: ReduceOp,
        dtype: ReduceDtype,
    },
    /// Collectively split the communicator into color classes ordered by
    /// `(key, parent sub-rank)` — the `MPI_Comm_split` analogue.  The reply
    /// carries the joining rank's encoded [`crate::group::Comm`].
    Split { comm: CommId, color: u32, key: u32 },
    /// Release this rank's handle on a communicator.  Once every local
    /// member has freed it, the comm thread evicts the group from its
    /// registry, so split-heavy programs stop growing the table.
    CommFree { comm: CommId },
}

impl RequestKind {
    /// Short name used in collective-mismatch diagnostics.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            RequestKind::Send { .. } => "send",
            RequestKind::Recv { .. } => "recv",
            RequestKind::Barrier { .. } => "barrier",
            RequestKind::Broadcast { .. } => "broadcast",
            RequestKind::Gather { .. } => "gather",
            RequestKind::Scatter { .. } => "scatter",
            RequestKind::Allgather { .. } => "allgather",
            RequestKind::Reduce { .. } => "reduce",
            RequestKind::Allreduce { .. } => "allreduce",
            RequestKind::Split { .. } => "comm_split",
            RequestKind::CommFree { .. } => "comm_free",
        }
    }

    /// True for collective requests (which must be joined by every rank on
    /// the node before the node-level operation runs).  `comm_free` releases
    /// a handle without a node-level exchange, so it is not one.
    pub(crate) fn is_collective(&self) -> bool {
        !matches!(
            self,
            RequestKind::Send { .. } | RequestKind::Recv { .. } | RequestKind::CommFree { .. }
        )
    }
}

/// A communication request relayed to the node's communication thread.
#[derive(Debug)]
pub(crate) struct Request {
    /// DCGN rank issuing the request.
    pub src_rank: usize,
    /// What is being requested.
    pub kind: RequestKind,
    /// Where to deliver the completion.
    pub reply_tx: Sender<Reply>,
}

/// Commands accepted by the communication thread's work queue.
#[derive(Debug)]
pub(crate) enum CommCommand {
    /// A communication request from a local kernel.
    Request(Request),
    /// Every request a GPU-kernel thread harvested in one polling sweep,
    /// relayed together so the whole sweep pays a single queue hop.
    Batch(Vec<Request>),
    /// Wake the comm thread's idle wait (sent by the fabric's delivery
    /// notifier when an inter-node message lands); carries no work itself.
    Wake,
    /// All kernel threads of this process have finished; drain and shut down.
    LocalKernelsDone,
}

/// A monotone completion counter kernel threads can sleep on.
///
/// The comm thread bumps the counter after every loop iteration that did
/// work (every iteration that can have sent a reply).  A kernel thread
/// waiting for *any* of several requests reads the counter, tests its
/// handles, and — finding none complete — waits until the counter moves
/// past the value it read.  Because every reply strictly precedes the bump
/// that advertises it, a completion that races the test is caught either by
/// the test itself or by the immediately-satisfied wait: no lost wakeups,
/// and no fixed polling interval on the wait path.
///
/// The wait hands off like the work and reply channels do (see the
/// vendored `crossbeam` channel): it yields and re-reads the counter a few
/// times before parking, and a bump notifies only when a waiter is parked.
pub(crate) struct CompletionEvent {
    tick: AtomicU64,
    /// Waiters parked on `cond`.
    parked: std::sync::Mutex<usize>,
    cond: std::sync::Condvar,
}

/// Yields before a [`CompletionEvent`] waiter parks; the same count the
/// vendored channel uses (crossbeam-utils' `Backoff` yield steps).
const YIELDS_BEFORE_PARK: u32 = 4;

impl CompletionEvent {
    pub(crate) fn new() -> Self {
        CompletionEvent {
            tick: AtomicU64::new(0),
            parked: std::sync::Mutex::new(0),
            cond: std::sync::Condvar::new(),
        }
    }

    /// Current counter value; pass it to [`CompletionEvent::wait_past`].
    pub(crate) fn tick(&self) -> u64 {
        self.tick.load(Ordering::SeqCst)
    }

    /// Advance the counter and wake every parked waiter.
    pub(crate) fn bump(&self) {
        self.tick.fetch_add(1, Ordering::SeqCst);
        // A waiter counts itself under this lock and re-reads the tick
        // before parking, so it either sees this bump or is counted here.
        if *self.parked.lock().expect("completion event poisoned") > 0 {
            self.cond.notify_all();
        }
    }

    /// Wait until the counter moves past `seen` or `timeout` elapses.
    pub(crate) fn wait_past(&self, seen: u64, timeout: std::time::Duration) {
        for _ in 0..YIELDS_BEFORE_PARK {
            if self.tick() > seen {
                return;
            }
            std::thread::yield_now();
        }
        let mut parked = self.parked.lock().expect("completion event poisoned");
        *parked += 1;
        if self.tick() <= seen {
            // One timed park: any return (bump, timeout or spurious) sends
            // the caller back to re-test its handles.
            parked = self
                .cond
                .wait_timeout(parked, timeout)
                .expect("completion event poisoned")
                .0;
        }
        *parked -= 1;
    }
}

// ---------------------------------------------------------------------------
// Wire format of inter-node DCGN point-to-point messages.
// ---------------------------------------------------------------------------

/// Header prepended to every inter-node point-to-point payload:
/// `[src u32][dst u32][tag u32][reserved u32]`.
pub(crate) const P2P_HEADER_BYTES: usize = 16;

// The pooled-buffer headroom is sized for exactly this header, so framing a
// send writes the header in place instead of copying the body.
const _: () = assert!(P2P_HEADER_BYTES == PAYLOAD_HEADROOM);

/// Frame a DCGN point-to-point payload for transport through the node-level
/// MPI substrate.  Consumes the payload; when it was staged with headroom
/// (the normal case for inter-node sends) the body is not copied, and the
/// returned frame shares the same pooled allocation.
pub(crate) fn frame_p2p(src: usize, dst: usize, tag: u32, payload: Payload) -> Payload {
    let mut header = [0u8; P2P_HEADER_BYTES];
    header[0..4].copy_from_slice(&(src as u32).to_le_bytes());
    header[4..8].copy_from_slice(&(dst as u32).to_le_bytes());
    header[8..12].copy_from_slice(&tag.to_le_bytes());
    payload.into_framed(&header)
}

/// Decode an inter-node DCGN point-to-point frame.  The returned body is a
/// zero-copy view into the wire buffer, which itself arrived as a pooled
/// payload from the substrate — the receive path never clones the bytes.
pub(crate) fn decode_p2p(wire: Payload) -> Result<(usize, usize, u32, Payload), DcgnError> {
    if wire.len() < P2P_HEADER_BYTES {
        return Err(DcgnError::Internal(format!(
            "short point-to-point frame: {} bytes",
            wire.len()
        )));
    }
    let bytes = wire.as_slice();
    let src = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let dst = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let tag = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = wire.slice(P2P_HEADER_BYTES..wire.len());
    Ok((src, dst, tag, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_roundtrip() {
        let payload: Vec<u8> = (0..100u8).collect();
        let wire = frame_p2p(3, 11, 42, Payload::copy_with_headroom(&payload));
        assert_eq!(wire.len(), P2P_HEADER_BYTES + 100);
        let (src, dst, tag, data) = decode_p2p(wire).unwrap();
        assert_eq!((src, dst, tag), (3, 11, 42));
        assert_eq!(data, payload);
    }

    #[test]
    fn framing_with_headroom_does_not_move_the_body() {
        let payload = Payload::copy_with_headroom(&[0xCD; 64]);
        let body_addr = payload.as_slice().as_ptr() as usize;
        let wire = frame_p2p(1, 2, 3, payload);
        assert_eq!(
            wire.as_slice()[P2P_HEADER_BYTES..].as_ptr() as usize,
            body_addr
        );
        // Decoding hands back a view of the same allocation — the body
        // bytes never move on the receive side either.
        let (_, _, _, body) = decode_p2p(wire).unwrap();
        assert_eq!(body.as_slice().as_ptr() as usize, body_addr);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let wire = frame_p2p(0, 1, 0, Payload::empty());
        let (src, dst, tag, data) = decode_p2p(wire).unwrap();
        assert_eq!((src, dst, tag), (0, 1, 0));
        assert!(data.is_empty());
    }

    #[test]
    fn short_frame_is_rejected() {
        assert!(decode_p2p(Payload::copy_from_slice(&[0u8; 8])).is_err());
    }

    #[test]
    fn request_kind_names_and_collective_flag() {
        assert_eq!(
            RequestKind::Send {
                dst: 0,
                tag: 0,
                data: Payload::empty(),
            }
            .name(),
            "send"
        );
        assert!(!RequestKind::Recv {
            src: None,
            tag: None
        }
        .is_collective());
        let world = CommId::WORLD;
        assert!(!RequestKind::CommFree { comm: world }.is_collective());
        assert_eq!(RequestKind::CommFree { comm: world }.name(), "comm_free");
        let collectives = [
            (RequestKind::Barrier { comm: world }, "barrier"),
            (
                RequestKind::Broadcast {
                    comm: world,
                    root: 0,
                    data: None,
                },
                "broadcast",
            ),
            (
                RequestKind::Gather {
                    comm: world,
                    root: 0,
                    data: Payload::empty(),
                },
                "gather",
            ),
            (
                RequestKind::Scatter {
                    comm: world,
                    root: 0,
                    chunks: None,
                },
                "scatter",
            ),
            (
                RequestKind::Allgather {
                    comm: world,
                    data: Payload::empty(),
                },
                "allgather",
            ),
            (
                RequestKind::Reduce {
                    comm: world,
                    root: 0,
                    data: Payload::empty(),
                    op: ReduceOp::Sum,
                    dtype: ReduceDtype::F64,
                },
                "reduce",
            ),
            (
                RequestKind::Allreduce {
                    comm: world,
                    data: Payload::empty(),
                    op: ReduceOp::Max,
                    dtype: ReduceDtype::U32,
                },
                "allreduce",
            ),
            (
                RequestKind::Split {
                    comm: world,
                    color: 0,
                    key: 0,
                },
                "comm_split",
            ),
        ];
        for (kind, name) in collectives {
            assert!(kind.is_collective(), "{name} must be a collective");
            assert_eq!(kind.name(), name);
        }
    }
}
