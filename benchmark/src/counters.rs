//! Deterministic counters taken from outside the library: heap
//! allocations (a counting `GlobalAlloc`, armed only during the traced
//! run), read and write system calls, and the peak resident set.
//!
//! System calls come from two places. `/proc/self/io` (`syscr`,
//! `syscw`, `rchar`, `wchar`) counts `read`/`write`/`readv`/`writev`,
//! but the kernel does not account socket `send`/`recv` there, and
//! those are what `std::net::TcpStream` issues. So this binary defines
//! `send` and `recv` itself: the linker resolves the standard library's
//! references to these definitions instead of libc's, they count the
//! call and its bytes and enter the kernel through libc's `syscall`.

use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Socket `send`/`recv` calls and the bytes they moved; they stay 0 on
/// a target where the two calls are not interposed (see `socket_calls`).
static SENDS: AtomicU64 = AtomicU64::new(0);
static RECVS: AtomicU64 = AtomicU64::new(0);
static SEND_BYTES: AtomicU64 = AtomicU64::new(0);
static RECV_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator; counts calls and bytes while armed.
pub struct CountingAlloc;

#[inline]
fn count_alloc(size: usize) {
    // Relaxed: statistics that publish no other data.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts (or stops) counting allocations.
pub fn arm_alloc_counter(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod socket_calls {
    use super::{RECVS, RECV_BYTES, SENDS, SEND_BYTES};
    use std::ffi::{c_int, c_long, c_void};
    use std::sync::atomic::Ordering;

    #[cfg(target_arch = "x86_64")]
    const SYS_SENDTO: c_long = 44;
    #[cfg(target_arch = "x86_64")]
    const SYS_RECVFROM: c_long = 45;
    #[cfg(target_arch = "aarch64")]
    const SYS_SENDTO: c_long = 206;
    #[cfg(target_arch = "aarch64")]
    const SYS_RECVFROM: c_long = 207;

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
    }

    /// Replaces libc's `send` for this executable.
    ///
    /// # Safety
    ///
    /// Same contract as `send(2)`: `buf` must be readable for `len` bytes.
    #[no_mangle]
    pub unsafe extern "C" fn send(
        fd: c_int,
        buf: *const c_void,
        len: usize,
        flags: c_int,
    ) -> isize {
        // SAFETY: `send(fd, buf, len, flags)` is defined as
        // `sendto(fd, buf, len, flags, NULL, 0)`; the arguments are the
        // caller's, and libc's `syscall` sets errno and returns -1 on
        // failure exactly as `send` would.
        let n = unsafe {
            syscall(
                SYS_SENDTO,
                c_long::from(fd),
                buf,
                len,
                c_long::from(flags),
                0usize,
                0usize,
            )
        } as isize;
        SENDS.fetch_add(1, Ordering::Relaxed);
        if n > 0 {
            SEND_BYTES.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }

    /// Replaces libc's `recv` for this executable.
    ///
    /// # Safety
    ///
    /// Same contract as `recv(2)`: `buf` must be writable for `len` bytes.
    #[no_mangle]
    pub unsafe extern "C" fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize {
        // SAFETY: `recv(fd, buf, len, flags)` is defined as
        // `recvfrom(fd, buf, len, flags, NULL, NULL)`; see `send`.
        let n = unsafe {
            syscall(
                SYS_RECVFROM,
                c_long::from(fd),
                buf,
                len,
                c_long::from(flags),
                0usize,
                0usize,
            )
        } as isize;
        RECVS.fetch_add(1, Ordering::Relaxed);
        if n > 0 {
            RECV_BYTES.fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }
}

/// Counters read at one instant; subtract two to get a delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// `read`-family system calls, socket `recv` included.
    pub read_syscalls: u64,
    /// `write`-family system calls, socket `send` included.
    pub write_syscalls: u64,
    /// Bytes those system calls moved into / out of the process.
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl Counters {
    pub fn now() -> Counters {
        let io = proc_self_io();
        Counters {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            read_syscalls: io.syscr + RECVS.load(Ordering::Relaxed),
            write_syscalls: io.syscw + SENDS.load(Ordering::Relaxed),
            read_bytes: io.rchar + RECV_BYTES.load(Ordering::Relaxed),
            write_bytes: io.wchar + SEND_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            read_syscalls: self.read_syscalls - earlier.read_syscalls,
            write_syscalls: self.write_syscalls - earlier.write_syscalls,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.read_syscalls += other.read_syscalls;
        self.write_syscalls += other.write_syscalls;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ProcIo {
    rchar: u64,
    wchar: u64,
    syscr: u64,
    syscw: u64,
}

/// Parses the text of `/proc/<pid>/io`; missing fields read as 0.
fn parse_proc_io(text: &str) -> ProcIo {
    let mut io = ProcIo::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim().parse().unwrap_or(0);
        match key {
            "rchar" => io.rchar = value,
            "wchar" => io.wchar = value,
            "syscr" => io.syscr = value,
            "syscw" => io.syscw = value,
            _ => {}
        }
    }
    io
}

fn proc_self_io() -> ProcIo {
    // Reading the file is itself one `read` call or two; they land in
    // both ends of a delta and the per-operation shares divide them by
    // tens of thousands of operations.
    std::fs::read_to_string("/proc/self/io")
        .map(|t| parse_proc_io(&t))
        .unwrap_or_default()
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set of this process in kB (0 where `/proc` is absent).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_kb(&t))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_io_and_status() {
        let io = parse_proc_io("rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 1\nread_bytes: 0\n");
        assert_eq!((io.rchar, io.wchar, io.syscr, io.syscw), (3980, 12, 9, 1));
        assert_eq!(parse_proc_io("garbage").syscr, 0);
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t    1676 kB\nVmRSS:\t 100 kB\n"),
            Some(1676)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn counter_deltas_subtract_and_add() {
        let a = Counters {
            allocs: 5,
            alloc_bytes: 50,
            read_syscalls: 2,
            write_syscalls: 3,
            read_bytes: 20,
            write_bytes: 30,
        };
        let mut b = a;
        b.add(&a);
        assert_eq!(b.allocs, 10);
        assert_eq!(b.since(&a), a);
    }
}
