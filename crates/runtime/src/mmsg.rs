//! Vectored datagram I/O behind one [`BatchSocket`] trait, and the one
//! place a node parks on its socket.
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
//! On Linux/glibc the module also lets the event loop read its own
//! socket: `wait_readable` parks in one `ppoll(2)` over the socket and
//! an `EventFd` (the doorbell's wake hook writes it) until the next
//! timer deadline, at nanosecond precision, and `try_recv_batch` drains
//! what arrived with a non-blocking `recvmmsg`. Other targets have
//! neither; there a receive thread reads the socket with
//! [`BatchSocket::recv_batch`].
//!
//! The FFI is hand-declared (this workspace takes no new dependencies):
//! `repr(C)` layouts match glibc on `x86_64`/`aarch64` — note glibc's
//! `msghdr` uses `size_t` for `msg_iovlen`, unlike the raw kernel ABI —
//! and the whole unsafe surface is confined to this module behind safe
//! functions. Gated on `target_env = "gnu"` so musl or other libcs get
//! the portable fallback instead of a layout gamble.

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

#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) use imp::{try_recv_batch, wait_readable, EventFd};

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
    pub use super::seq::{recv_batch, send_batch};
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
mod imp {
    //! The one unsafe region of the crate: glibc `sendmmsg`/`recvmmsg`,
    //! and the event loop's park — `ppoll`, `eventfd`, `read`, `write`.
    //!
    //! Safety argument, in one place: every pointer handed to the kernel
    //! (`iovec` bases, the `msgvec` array, `sockaddr_in` names, the
    //! `pollfd` array, the `timespec`, the eventfd's 8-byte counter)
    //! points into stack arrays, stack values or caller-owned buffers
    //! that outlive the syscall and are never reallocated between pointer
    //! capture and the call; lengths are the owning buffers' lengths;
    //! `msg_control`/`msg_name` and `ppoll`'s signal mask are null where
    //! unused, with zero lengths. The kernel writes only into
    //! `iov_base[0..iov_len]`, the `msg_len` and `revents` fields and the
    //! counter handed to `read`. Every descriptor is owned by a live
    //! `UdpSocket` or [`EventFd`].

    use super::{seq, OutDatagram, RecvSlot, MAX_BATCH};
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
    use std::time::Duration;

    /// `MSG_WAITFORONE`: block (per the socket timeout) for the first
    /// datagram only, then return whatever else is already queued.
    const MSG_WAITFORONE: c_int = 0x10000;
    /// `MSG_DONTWAIT`: return whatever is queued, `EAGAIN` when nothing
    /// is, whatever the socket's blocking mode.
    const MSG_DONTWAIT: c_int = 0x40;
    const AF_INET: u16 = 2;
    const POLLIN: c_short = 0x1;
    /// `O_NONBLOCK` and `O_CLOEXEC`, as `eventfd` takes them (the same
    /// values on `x86_64` and `aarch64`).
    const EFD_NONBLOCK: c_int = 0o4000;
    const EFD_CLOEXEC: c_int = 0o2_000_000;

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

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// glibc's `struct timespec`: `time_t` and `long` are both `long`.
    #[repr(C)]
    struct TimeSpec {
        tv_sec: c_long,
        tv_nsec: c_long,
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
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const TimeSpec,
            sigmask: *const c_void, // sigset_t*; always null here
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
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
        recv_with(sock, slots, MSG_WAITFORONE)
    }

    /// Drain up to `slots.len()` queued datagrams with one non-blocking
    /// `recvmmsg`: how many slots were filled, or the socket error —
    /// `WouldBlock` when nothing is queued.
    pub fn try_recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> std::io::Result<usize> {
        recv_with(sock, slots, MSG_DONTWAIT)
    }

    fn recv_with(sock: &UdpSocket, slots: &mut [RecvSlot], flags: c_int) -> std::io::Result<usize> {
        if slots.is_empty() {
            return Ok(0);
        }
        let fd = sock.as_raw_fd();
        let n = slots.len().min(MAX_BATCH);
        // On the stack, as in send_batch: a receive allocates nothing.
        let mut iovs = [IoVec::EMPTY; MAX_BATCH];
        let mut hdrs = [MMsgHdr::EMPTY; MAX_BATCH];
        for (iov, slot) in iovs.iter_mut().zip(&mut slots[..n]) {
            *iov = IoVec {
                iov_base: slot.buf.as_mut_ptr() as *mut c_void,
                iov_len: slot.buf.len(),
            };
        }
        for (hdr, iov) in hdrs.iter_mut().zip(&mut iovs[..n]) {
            // No msg_name: the sender's address is unused.
            hdr.msg_hdr.msg_iov = iov as *mut IoVec;
            hdr.msg_hdr.msg_iovlen = 1;
        }
        // SAFETY: as in send_batch; additionally each iov_base points at
        // `slots[i].buf`, which the kernel fills up to iov_len bytes and
        // which outlives the call. Null timeout: with MSG_WAITFORONE the
        // socket's SO_RCVTIMEO bounds the wait, so timeouts surface as
        // EAGAIN exactly like `recv_from`; with MSG_DONTWAIT nothing waits.
        let rc = unsafe {
            recvmmsg(
                fd,
                hdrs.as_mut_ptr(),
                n as c_uint,
                flags,
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

    /// A Linux `eventfd`: a counter that keeps [`wait_readable`] from
    /// sleeping while it is non-zero. Another thread bumps it with
    /// [`wake`](EventFd::wake) (the event loop's doorbell hook); the
    /// waiter resets it with [`drain`](EventFd::drain).
    #[derive(Debug)]
    pub struct EventFd(OwnedFd);

    impl EventFd {
        /// A fresh non-blocking, close-on-exec eventfd at zero.
        pub fn new() -> std::io::Result<EventFd> {
            // SAFETY: eventfd takes no pointers; a negative result is an
            // error and creates nothing.
            let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            // SAFETY: `fd` is a fresh descriptor nothing else owns; the
            // OwnedFd closes it exactly once.
            Ok(EventFd(unsafe { OwnedFd::from_raw_fd(fd) }))
        }

        /// Bump the counter: a [`wait_readable`] in progress returns, and
        /// so does every later one until the counter is drained.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes the 8 bytes of a live stack u64 to a
            // descriptor `self` owns. It fails only with EAGAIN, when the
            // counter is already near u64::MAX — readable either way.
            let _ = unsafe { write(self.0.as_raw_fd(), (&one as *const u64).cast(), 8) };
        }

        /// Reset the counter to zero. Non-blocking: a counter already at
        /// zero leaves nothing to do.
        pub fn drain(&self) {
            let mut count: u64 = 0;
            // SAFETY: reads at most 8 bytes into a live stack u64 from a
            // descriptor `self` owns.
            let _ = unsafe { read(self.0.as_raw_fd(), (&mut count as *mut u64).cast(), 8) };
        }
    }

    /// What ended a [`wait_readable`]; both false when the timeout did.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Ready {
        /// The socket has a datagram, or an error, to read.
        pub socket: bool,
        /// The eventfd was woken.
        pub woken: bool,
    }

    /// Park in one `ppoll` until `sock` is readable, `wake` is woken or
    /// `timeout` passes, at nanosecond precision. A signal ends the wait
    /// early as `ErrorKind::Interrupted`.
    pub fn wait_readable(
        sock: &UdpSocket,
        wake: &EventFd,
        timeout: Duration,
    ) -> std::io::Result<Ready> {
        let mut fds = [sock.as_raw_fd(), wake.0.as_raw_fd()].map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        let ts = TimeSpec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` and `ts` are stack values that outlive the call;
        // nfds is `fds`' length; the kernel writes only the `revents`
        // fields; a null mask leaves the signal mask as it is.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Ready {
            socket: fds[0].revents != 0,
            woken: fds[1].revents != 0,
        })
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

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn try_recv_batch_never_blocks() {
        let (a, b, to_b) = pair();
        let mut slots: Vec<RecvSlot> = (0..8).map(|_| RecvSlot::new(2048)).collect();
        let err = try_recv_batch(&b, &mut slots).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err:?}");
        for i in 0u8..3 {
            a.send_to(&[i; 8], to_b).unwrap();
        }
        let ready = EventFd::new().unwrap();
        let mut got = 0;
        while got < 3 {
            assert!(
                wait_readable(&b, &ready, std::time::Duration::from_secs(2))
                    .unwrap()
                    .socket
            );
            got += try_recv_batch(&b, &mut slots[got..]).unwrap();
        }
        assert!(slots[..got].iter().all(|s| s.len == 8));
        assert!(try_recv_batch(&b, &mut slots).is_err(), "drained");
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn wait_readable_ends_on_a_wake_a_datagram_or_the_timeout() {
        use std::time::{Duration, Instant};
        let (a, b, to_b) = pair();
        let wake = std::sync::Arc::new(EventFd::new().unwrap());
        // The timeout, at sub-millisecond precision.
        let t0 = Instant::now();
        let ready = wait_readable(&b, &wake, Duration::from_micros(300)).unwrap();
        assert_eq!(ready, imp::Ready::default());
        assert!(t0.elapsed() >= Duration::from_micros(300));
        // A wake from another thread, and it stays readable until drained.
        let waker = {
            let wake = wake.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                wake.wake();
            })
        };
        let ready = wait_readable(&b, &wake, Duration::from_secs(10)).unwrap();
        assert_eq!((ready.socket, ready.woken), (false, true));
        waker.join().unwrap();
        assert!(wait_readable(&b, &wake, Duration::ZERO).unwrap().woken);
        wake.drain();
        assert!(!wait_readable(&b, &wake, Duration::ZERO).unwrap().woken);
        // A datagram.
        a.send_to(&[1; 8], to_b).unwrap();
        let ready = wait_readable(&b, &wake, Duration::from_secs(10)).unwrap();
        assert_eq!((ready.socket, ready.woken), (true, false));
    }
}
