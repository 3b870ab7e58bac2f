//! Statistics helpers and the `/proc` gauges the harness reads about its
//! own process. Everything here is measured from outside the crates.

use std::path::Path;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice so an idle op class reads as 0.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when the layer behind `b` was idle.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn proc_file(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}")).unwrap_or_default()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user+system CPU seconds, all threads, at nanosecond resolution
/// (`/proc/self/stat` counts 10 ms ticks, 2 % of a pass). A guest's CPU
/// clock does not advance while the hypervisor runs another guest on the
/// core, so CPU time is the one timing a stolen core does not inflate.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Seconds all cores together spent runnable while the hypervisor ran
/// something else (`steal`, the eighth number of `/proc/stat`'s `cpu` line).
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// A `kB` line of `/proc/self/status` (`VmRSS`, `VmHWM`) in MiB.
pub fn status_mib(key: &str) -> f64 {
    proc_file("status")
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process passed to write-like syscalls (`wchar`), sockets
/// included.
pub fn written_bytes() -> u64 {
    proc_file("io")
        .lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Total bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// FNV-1a over `bytes`, folded into `h` — the digest used for op lists and
/// table images.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Words of the [`ref_loop_ms`] buffer: 16 MiB, past every private cache.
pub const REF_LOOP_WORDS: usize = 2 << 20;

/// The host reference loop, in milliseconds: four independent multiply-xor
/// chains streaming over a fixed 16 MiB buffer. It touches no crate code.
/// It is built to be slowed by what slows the engine on a shared host — a
/// busy sibling thread (the chains fill the issue slots) and a contended
/// last-level cache (the buffer does not fit a private one) — so a shift
/// between two sets of runs says the host changed, not the program.
pub fn ref_loop_ms(buf: &[u64]) -> f64 {
    let t = std::time::Instant::now();
    let mut lanes = [FNV_SEED; 4];
    for quad in std::hint::black_box(buf).chunks_exact(4) {
        for (lane, &word) in lanes.iter_mut().zip(quad) {
            *lane = (*lane ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    std::hint::black_box(lanes);
    t.elapsed().as_secs_f64() * 1e3
}
