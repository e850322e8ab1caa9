//! Vectored datagram I/O behind one [`BatchSocket`] trait.
//!
//! The hot path sends one coalesced datagram per destination per
//! dispatch; without vectoring that is still n−1 `sendto` syscalls per
//! broadcast. On Linux/glibc this module submits the whole fan-out as a
//! single `sendmmsg(2)` call and drains the receive queue with
//! `recvmmsg(2)`, so the syscall count per dispatch is O(1) instead of
//! O(n). Everywhere else (and for non-IPv4 peers) a portable sequential
//! fallback issues the classic one-syscall-per-datagram loop with the
//! same observable behavior.
//!
//! The FFI is hand-declared (this workspace takes no new dependencies):
//! `repr(C)` layouts match glibc on `x86_64`/`aarch64` — note glibc's
//! `msghdr` uses `size_t` for `msg_iovlen`, unlike the raw kernel ABI —
//! and the whole unsafe surface is confined to this module behind the
//! safe [`BatchSocket`] methods. Gated on `target_env = "gnu"` so musl
//! or other libcs get the portable fallback instead of a layout gamble.

use std::net::UdpSocket;

/// Most datagrams one batched syscall will submit or drain. Well under
/// `UIO_MAXIOV`; batches larger than this loop, one syscall per chunk.
pub const MAX_BATCH: usize = 64;

/// One outbound datagram: payload and destination.
pub type OutDatagram<'a> = (&'a [u8], std::net::SocketAddr);

/// A receive buffer slot: `len` bytes of `buf` are valid after a
/// successful [`BatchSocket::recv_batch`].
#[derive(Debug)]
pub struct RecvSlot {
    /// Backing storage for one datagram.
    pub buf: Vec<u8>,
    /// Length of the datagram last received into this slot.
    pub len: usize,
}

impl RecvSlot {
    /// A slot able to hold one max-size UDP datagram.
    pub fn new(capacity: usize) -> Self {
        RecvSlot {
            buf: vec![0u8; capacity],
            len: 0,
        }
    }

    /// The valid bytes of the last received datagram.
    pub fn datagram(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Batched send/receive over one datagram socket.
///
/// Both methods are best-effort, like UDP itself: to the protocol a
/// refused datagram is indistinguishable from network loss. To the
/// operator it is not, so no refusal goes unreported.
pub trait BatchSocket {
    /// Submit every (payload, destination) datagram. A datagram the
    /// kernel refuses is reported through `on_error` (its index in
    /// `items` and the error) and skipped; every other datagram of the
    /// batch is still submitted. Returns the number of syscalls issued
    /// (the quantity the hot-path optimization minimizes; exposed so
    /// benchmarks and tests can assert on it).
    fn send_batch(
        &self,
        items: &[OutDatagram<'_>],
        on_error: &mut dyn FnMut(usize, &std::io::Error),
    ) -> usize;

    /// Receive up to `slots.len()` datagrams in one pass, blocking (per
    /// the socket's read timeout) only for the first. Returns how many
    /// slots were filled, or the socket error (timeouts included, so the
    /// caller's poll loop sees them exactly as with `recv_from`).
    fn recv_batch(&self, slots: &mut [RecvSlot]) -> std::io::Result<usize>;
}

impl BatchSocket for UdpSocket {
    fn send_batch(
        &self,
        items: &[OutDatagram<'_>],
        on_error: &mut dyn FnMut(usize, &std::io::Error),
    ) -> usize {
        imp::send_batch(self, items, on_error)
    }

    fn recv_batch(&self, slots: &mut [RecvSlot]) -> std::io::Result<usize> {
        imp::recv_batch(self, slots)
    }
}

/// Which backend [`BatchSocket`] compiled to (benchmarks tag their
/// output with this).
pub fn backend() -> &'static str {
    imp::BACKEND
}

/// True when `err` is the platform's `EMSGSIZE`: the datagram is larger
/// than the transport can carry (65 507 payload bytes over UDP/IPv4), so
/// retrying it can never help. No `std::io::ErrorKind` names it.
pub fn is_emsgsize(err: &std::io::Error) -> bool {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const EMSGSIZE: i32 = 90;
    #[cfg(windows)]
    const EMSGSIZE: i32 = 10040; // WSAEMSGSIZE
    #[cfg(not(any(target_os = "linux", target_os = "android", windows)))]
    const EMSGSIZE: i32 = 40; // the BSD family, macOS included
    err.raw_os_error() == Some(EMSGSIZE)
}

/// Portable sequential implementation: one syscall per datagram. Used
/// directly on non-Linux targets and as the escape path for address
/// families the vectored path does not handle.
mod seq {
    use super::{OutDatagram, RecvSlot};
    use std::net::UdpSocket;

    pub fn send_batch(
        sock: &UdpSocket,
        items: &[OutDatagram<'_>],
        on_error: &mut dyn FnMut(usize, &std::io::Error),
    ) -> usize {
        for (i, (payload, addr)) in items.iter().enumerate() {
            if let Err(e) = sock.send_to(payload, addr) {
                on_error(i, &e);
            }
        }
        items.len()
    }

    // On linux-gnu only the send side falls back here (non-IPv4
    // batches); `recvmmsg` handles every receive, so this stays unused.
    #[cfg_attr(all(target_os = "linux", target_env = "gnu"), allow(dead_code))]
    pub fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> std::io::Result<usize> {
        let Some(first) = slots.first_mut() else {
            return Ok(0);
        };
        let (len, _src) = sock.recv_from(&mut first.buf)?;
        first.len = len;
        Ok(1)
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod imp {
    pub const BACKEND: &str = "sequential";
    pub use super::seq::{recv_batch, send_batch};
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
mod imp {
    //! The one unsafe region of the crate: glibc `sendmmsg`/`recvmmsg`.
    //!
    //! Safety argument, in one place: every pointer handed to the kernel
    //! (`iovec` bases, the `msgvec` array, `sockaddr_in` names) points
    //! into stack arrays or stack-owned `Vec`s that outlive the syscall
    //! and are never reallocated between pointer capture and the call; lengths are the
    //! owning buffers' lengths; `msg_control`/`msg_name` are null where
    //! unused, with zero lengths. The kernel writes only into
    //! `iov_base[0..iov_len]` and the `msg_len` fields.

    use super::{seq, OutDatagram, RecvSlot, MAX_BATCH};
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_uint, c_void};

    pub const BACKEND: &str = "sendmmsg";

    /// `MSG_WAITFORONE`: block (per the socket timeout) for the first
    /// datagram only, then return whatever else is already queued.
    const MSG_WAITFORONE: c_int = 0x10000;
    const AF_INET: u16 = 2;

    #[repr(C)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    impl IoVec {
        const EMPTY: IoVec = IoVec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        };
    }

    /// glibc layout: `msg_iovlen`/`msg_controllen` are `size_t` (the
    /// kernel ABI's are not — this is why the gate is `gnu`, not
    /// `linux`).
    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: c_int,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: c_uint,
    }

    impl MMsgHdr {
        const EMPTY: MMsgHdr = MMsgHdr {
            msg_hdr: MsgHdr {
                msg_name: std::ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: std::ptr::null_mut(),
                msg_iovlen: 0,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        };
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: u32, // network byte order
        sin_zero: [u8; 8],
    }

    impl SockAddrIn {
        const UNSPECIFIED: SockAddrIn = SockAddrIn {
            sin_family: 0,
            sin_port: 0,
            sin_addr: 0,
            sin_zero: [0; 8],
        };
    }

    extern "C" {
        fn sendmmsg(sockfd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
        fn recvmmsg(
            sockfd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void, // struct timespec*; always null here
        ) -> c_int;
    }

    fn v4_name(addr: &SocketAddr) -> Option<SockAddrIn> {
        let SocketAddr::V4(v4) = addr else {
            return None;
        };
        Some(SockAddrIn {
            sin_family: AF_INET,
            sin_port: v4.port().to_be(),
            sin_addr: u32::from_ne_bytes(v4.ip().octets()),
            sin_zero: [0; 8],
        })
    }

    pub fn send_batch(
        sock: &UdpSocket,
        items: &[OutDatagram<'_>],
        on_error: &mut dyn FnMut(usize, &std::io::Error),
    ) -> usize {
        // Any non-IPv4 destination: take the portable path for the whole
        // batch (mixed-family batches are not worth the complexity; the
        // runtime's clusters are single-family).
        if !items.iter().all(|(_, addr)| addr.is_ipv4()) {
            return seq::send_batch(sock, items, on_error);
        }
        let fd = sock.as_raw_fd();
        let mut syscalls = 0;
        // One chunk's kernel structures live on the stack, so a send
        // allocates nothing.
        let mut names = [SockAddrIn::UNSPECIFIED; MAX_BATCH];
        let mut iovs = [IoVec::EMPTY; MAX_BATCH];
        let mut hdrs = [MMsgHdr::EMPTY; MAX_BATCH];
        for (chunk_at, chunk) in items.chunks(MAX_BATCH).enumerate() {
            // iovecs and headers are rebuilt per chunk; all referenced
            // storage (payloads, `names`) outlives the syscall below.
            for (i, (payload, addr)) in chunk.iter().enumerate() {
                names[i] = v4_name(addr).expect("every destination is IPv4");
                iovs[i] = IoVec {
                    iov_base: payload.as_ptr() as *mut c_void,
                    iov_len: payload.len(),
                };
            }
            let hdrs = &mut hdrs[..chunk.len()];
            for (i, hdr) in hdrs.iter_mut().enumerate() {
                *hdr = MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: (&mut names[i]) as *mut SockAddrIn as *mut c_void,
                        msg_namelen: std::mem::size_of::<SockAddrIn>() as u32,
                        msg_iov: (&mut iovs[i]) as *mut IoVec,
                        msg_iovlen: 1,
                        msg_control: std::ptr::null_mut(),
                        msg_controllen: 0,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                };
            }
            let mut sent = 0usize;
            while sent < hdrs.len() {
                syscalls += 1;
                // SAFETY: fd is a live socket owned by `sock`; `hdrs`,
                // `iovs`, `names` and the payload slices all outlive
                // this call; vlen matches the array length handed in.
                let rc = unsafe {
                    sendmmsg(
                        fd,
                        hdrs.as_mut_ptr().add(sent),
                        (hdrs.len() - sent) as c_uint,
                        0,
                    )
                };
                if rc > 0 {
                    sent += rc as usize;
                    continue;
                }
                // The kernel stops at the first datagram it refuses and
                // returns the error only when nothing before it went
                // out in this call — so the refused one is `hdrs[sent]`.
                // Report it, step over it, submit the rest.
                let err = std::io::Error::last_os_error();
                on_error(chunk_at * MAX_BATCH + sent, &err);
                sent += 1;
            }
        }
        syscalls
    }

    pub fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> std::io::Result<usize> {
        if slots.is_empty() {
            return Ok(0);
        }
        let fd = sock.as_raw_fd();
        let n = slots.len().min(MAX_BATCH);
        let mut iovs: Vec<IoVec> = slots[..n]
            .iter_mut()
            .map(|s| IoVec {
                iov_base: s.buf.as_mut_ptr() as *mut c_void,
                iov_len: s.buf.len(),
            })
            .collect();
        let mut hdrs: Vec<MMsgHdr> = (0..n)
            .map(|i| MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: std::ptr::null_mut(), // sender unused
                    msg_namelen: 0,
                    msg_iov: (&mut iovs[i]) as *mut IoVec,
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();
        // SAFETY: as in send_batch; additionally each iov_base points at
        // `slots[i].buf`, which the kernel fills up to iov_len bytes and
        // which outlives the call. Null timeout: blocking behavior comes
        // from the socket's SO_RCVTIMEO, so timeouts surface as EAGAIN
        // exactly like `recv_from`.
        let rc = unsafe {
            recvmmsg(
                fd,
                hdrs.as_mut_ptr(),
                n as c_uint,
                MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let filled = rc as usize;
        for (slot, hdr) in slots[..filled].iter_mut().zip(&hdrs) {
            slot.len = (hdr.msg_len as usize).min(slot.buf.len());
        }
        Ok(filled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let to_b = b.local_addr().unwrap();
        (a, b, to_b)
    }

    #[test]
    fn send_batch_delivers_every_datagram() {
        let (a, b, to_b) = pair();
        b.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 16 + i as usize]).collect();
        let items: Vec<OutDatagram<'_>> = payloads.iter().map(|p| (p.as_slice(), to_b)).collect();
        let syscalls = a.send_batch(&items, &mut |i, e| panic!("datagram {i}: {e}"));
        assert!(syscalls >= 1);
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        assert_eq!(syscalls, 1, "5 datagrams must ride one sendmmsg");
        let mut seen = Vec::new();
        let mut buf = [0u8; 2048];
        for _ in 0..payloads.len() {
            let (len, _) = b.recv_from(&mut buf).unwrap();
            seen.push(buf[..len].to_vec());
        }
        // UDP may reorder even on loopback; compare as sets.
        seen.sort();
        let mut want = payloads.clone();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn one_refused_datagram_costs_only_itself() {
        let (a, b, to_b) = pair();
        b.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        // The middle datagram is larger than UDP can carry.
        let payloads = [vec![1u8; 16], vec![2u8; 65_508], vec![3u8; 16]];
        let items: Vec<OutDatagram<'_>> = payloads.iter().map(|p| (p.as_slice(), to_b)).collect();
        let mut refused = Vec::new();
        a.send_batch(&items, &mut |i, e| refused.push((i, is_emsgsize(e))));
        assert_eq!(refused, [(1, true)], "only the oversize one, as EMSGSIZE");
        let mut buf = [0u8; 2048];
        let mut seen = Vec::new();
        for _ in 0..2 {
            let (len, _) = b.recv_from(&mut buf).unwrap();
            seen.push(buf[..len].to_vec());
        }
        seen.sort();
        assert_eq!(seen, [payloads[0].clone(), payloads[2].clone()]);
    }

    #[test]
    fn recv_batch_drains_queued_datagrams() {
        let (a, b, to_b) = pair();
        b.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        for i in 0u8..4 {
            a.send_to(&[i; 8], to_b).unwrap();
        }
        // Give loopback a moment to queue everything.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut slots: Vec<RecvSlot> = (0..8).map(|_| RecvSlot::new(2048)).collect();
        let mut got = 0;
        while got < 4 {
            got += b.recv_batch(&mut slots[got..]).unwrap();
        }
        assert_eq!(got, 4);
        for slot in &slots[..got] {
            assert_eq!(slot.len, 8);
        }
    }

    #[test]
    fn recv_batch_times_out_like_recv_from() {
        let (_a, b, _to_b) = pair();
        b.set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let mut slots = [RecvSlot::new(64)];
        let err = b.recv_batch(&mut slots).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn backend_is_reported() {
        let be = backend();
        assert!(be == "sendmmsg" || be == "sequential");
    }
}
