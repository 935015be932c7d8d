//! Small helpers: draws from the seeded generator, an outcome hash,
//! medians and percentiles, peak resident memory, and the host-speed
//! correction.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use jaaru_bench::timing::percentile;
use jaaru_workloads::util::SplitMix64;

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform in `0..n`.
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// FNV-1a, folded over outcome bytes to fingerprint a pass.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Nearest-rank percentile in seconds (the serve daemon's own rule).
pub fn pct_s(samples: &[Duration], p: f64) -> f64 {
    percentile(&mut samples.to_vec(), p).as_secs_f64()
}

/// Median of plain numbers (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `part / whole`, or 0 for an empty whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Strips the checkout's own path from source locations. The benchmark
/// builds the repository's crates as path dependencies, whose call sites
/// the compiler records as absolute paths; fingerprints must not depend
/// on where the repository was checked out.
pub fn relative_sites(text: &str) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(|p| format!("{}/", p.display()))
        .unwrap_or_default();
    if root.is_empty() {
        text.to_string()
    } else {
        text.replace(&root, "")
    }
}

/// The reference loop's time on a host at nominal speed: corrected times
/// read as seconds on a host that runs the loop in this time. On the
/// 2-vCPU Xeon (2.1 GHz nominal) it was sized on, it took 0.8–1.2 ms.
pub const REF_NOMINAL: Duration = Duration::from_millis(1);

/// Distinct keys the reference loop puts in its map.
const REF_KEYS: u64 = 4096;

/// Bytes the reference loop appends before it starts its buffer over.
const REF_BUFFER: usize = 4096;

/// Corrects measured times for the host's speed.
///
/// On a shared machine the same work can take twice as long from one
/// minute to the next. Every timed check is bracketed by samples of the
/// host's speed, and its time is scaled by `REF_NOMINAL` over the mean of
/// the two bracketing samples. The result reads as seconds on a host
/// running at nominal speed; raw times are printed beside it.
///
/// A sample times a fixed mix of hashing, hash-map updates and buffer
/// appends — the kinds of work the checker does — built on the standard
/// library only, so no change to the checker can speed it up. Nothing a
/// check leaves behind can slow it either: its map and buffer are
/// allocated once, so the state of the heap does not matter, and an
/// untimed run first brings its data back into the caches. Another
/// thread of this process running beside it could; a sample that ends
/// with one running is counted in `disturbed`.
pub struct HostSpeed {
    map: HashMap<u64, u64>,
    bytes: Vec<u8>,
    last: Duration,
    /// Every sample taken.
    pub refs: Vec<Duration>,
    /// Samples that ended while another thread of this process ran.
    pub disturbed: u64,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut host = HostSpeed {
            map: HashMap::with_capacity(REF_KEYS as usize),
            bytes: Vec::with_capacity(REF_BUFFER + 8),
            last: Duration::ZERO,
            refs: Vec::new(),
            disturbed: 0,
        };
        host.last = host.sample();
        host
    }

    fn reference_loop(&mut self) -> Duration {
        let start = Instant::now();
        self.map.clear();
        self.bytes.clear();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for i in 0..40_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.map.entry(x % REF_KEYS).or_insert(0) += i;
            self.bytes.extend_from_slice(&x.to_le_bytes());
            if self.bytes.len() > REF_BUFFER {
                self.bytes.clear();
            }
        }
        black_box((&self.map, &self.bytes));
        start.elapsed()
    }

    /// One sample: an untimed run of the loop, then a timed one. A
    /// thread that has just handed over its answer is first given the
    /// CPU to finish parking.
    pub fn sample(&mut self) -> Duration {
        for _ in 0..1000 {
            if others_running() == Some(0) {
                break;
            }
            std::thread::yield_now();
        }
        self.reference_loop();
        let time = self.reference_loop();
        if others_running() != Some(0) {
            self.disturbed += 1;
        }
        self.refs.push(time);
        time
    }

    /// The factor for the work done since the previous sample.
    pub fn scale(&mut self) -> f64 {
        let now = self.sample();
        let mean = (self.last + now) / 2;
        self.last = now;
        REF_NOMINAL.as_secs_f64() / mean.as_secs_f64()
    }
}

/// How many other threads of this process are running or runnable
/// (state `R` in `/proc/self/task/<tid>/stat`).
fn others_running() -> Option<usize> {
    let me = std::fs::read_link("/proc/thread-self").ok()?;
    let me = me.file_name()?.to_owned();
    let mut running = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let task = task.ok()?;
        if task.file_name() == me {
            continue;
        }
        // A thread that has exited since the listing has no stat.
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        let state = stat.rsplit_once(") ")?.1.chars().next()?;
        running += (state == 'R') as usize;
    }
    Some(running)
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Binds the calling thread, and every thread it starts from then on,
/// to the CPU it is running on; returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: both calls only read their arguments; the mask is a plain
    // array of `size` bytes.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).map_err(|_| "sched_getcpu failed")?;
        let mut mask = [0u64; 16];
        let word = mask.get_mut(cpu / 64).ok_or("CPU number out of range")?;
        *word = 1 << (cpu % 64);
        if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
            return Err(format!("cannot bind to CPU {cpu}"));
        }
        Ok(cpu)
    }
}
