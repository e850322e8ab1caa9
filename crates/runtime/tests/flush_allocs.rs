//! `UdpTransport::flush` in steady state allocates nothing: the batch's
//! builders, destination list and send list, and the vectored send's
//! kernel structures are all reused. Counted with a global allocator
//! that tallies the allocations of the calling thread only.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use tw_proto::{ClockSyncMsg, HwTime, Incarnation, Msg, Ordinal, ProcessId, Proposal};
use tw_proto::{Semantics, SyncTime};
use tw_runtime::transport::{OutBatch, Transport, UdpTransport};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn proposal(seq: u64) -> Msg {
    Msg::Proposal(Proposal {
        sender: ProcessId(0),
        incarnation: Incarnation(1),
        seq,
        send_ts: SyncTime(seq as i64),
        hdo: Ordinal::ZERO,
        semantics: Semantics::UNORDERED_WEAK,
        payload: Bytes::from(vec![seq as u8; 64]),
    })
}

#[test]
fn steady_state_flush_allocates_nothing() {
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let socks: Vec<UdpSocket> = (0..2).map(|_| UdpSocket::bind(any).unwrap()).collect();
    let mut peers: HashMap<ProcessId, SocketAddr> = socks
        .iter()
        .enumerate()
        .map(|(i, s)| (ProcessId(i as u16 + 1), s.local_addr().unwrap()))
        .collect();
    peers.insert(ProcessId(0), any);
    let t = UdpTransport::bind(ProcessId(0), any, peers).unwrap();
    let clock = Msg::ClockSync(ClockSyncMsg::Request {
        sender: ProcessId(0),
        rid: 1,
        hw_send: HwTime(0),
    });
    let mut batch = OutBatch::new();
    // Every destination's datagram alike (a proposal batch), then one
    // with a point-to-point send inside the run.
    let fill = |batch: &mut OutBatch, msgs: Vec<Msg>, send_at: Option<usize>| {
        for (i, m) in msgs.into_iter().enumerate() {
            if Some(i) == send_at {
                batch.push_send(ProcessId(2), clock.clone());
            }
            batch.push_broadcast(m);
        }
    };
    for round in 0..3u64 {
        for send_at in [None, Some(32)] {
            let msgs: Vec<Msg> = (1..=64).map(|k| proposal(round * 64 + k)).collect();
            fill(&mut batch, msgs, send_at);
            let before = allocs();
            t.flush(ProcessId(0), &mut batch);
            let spent = allocs() - before;
            if round == 0 && send_at.is_none() {
                assert!(spent > 0, "the first flush sizes the batch's buffers");
            } else if round > 0 {
                assert_eq!(spent, 0, "round {round}, send at {send_at:?}");
            }
        }
    }
    assert_eq!(t.wire_stats().send_errors, 0);
}
