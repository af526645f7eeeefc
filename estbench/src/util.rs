//! Small helpers: order statistics, peak memory, provenance and JSON text.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The median of `samples` (mean of the middle pair for even counts).
/// Returns 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolation quantile `q` in `[0, 1]` of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest reported percentile with at least ten samples beyond it:
/// p99 from 1000 samples, p90 from 100, otherwise the maximum.
pub fn tail(samples: &[f64]) -> (&'static str, f64) {
    match samples.len() {
        n if n >= 1000 => ("p99", quantile(samples, 0.99)),
        n if n >= 100 => ("p90", quantile(samples, 0.90)),
        _ => ("max", quantile(samples, 1.0)),
    }
}

/// The commit of the checkout, read from `.git` in the working directory
/// when there is one; otherwise `unknown`.
pub fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&Path::new(".git").join(reference)) {
        return sha;
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|sha| sha.trim().to_string())
                    .filter(|sha| !sha.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Renders `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number as JSON with every digit of its shortest
/// round-trip form; non-finite values (which no metric should produce)
/// become `null`.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Runs `f` with the calling thread pinned to one CPU. Threads it spawns
/// inherit the pin and `available_parallelism` reports 1, so the
/// library's fan-out runs its jobs one at a time, in a fixed order.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    // A `cpu_set_t` of 1024 CPUs.
    let mut saved = [0u64; 16];
    let size = std::mem::size_of_val(&saved);
    // SAFETY: `saved` is a writable `cpu_set_t`; pid 0 is this thread.
    let pinned = unsafe { sched_getaffinity(0, size, saved.as_mut_ptr()) } == 0
        && saved.iter().position(|&word| word != 0).is_some_and(|i| {
            let mut one = [0u64; 16];
            one[i] = 1 << saved[i].trailing_zeros();
            // SAFETY: `one` is a valid `cpu_set_t` naming an allowed CPU.
            unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
        });
    let out = f();
    if pinned {
        // SAFETY: restores the mask read above.
        unsafe { sched_setaffinity(0, size, saved.as_ptr()) };
    }
    out
}

/// A pass-through allocator that, while switched on, tracks the peak of
/// heap bytes allocated minus bytes freed since it was last reset. Off,
/// it costs one relaxed load per call.
pub struct PeakHeap;

static COUNTING: AtomicBool = AtomicBool::new(false);
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

impl PeakHeap {
    /// Zeroes the counters and starts counting.
    pub fn start() {
        NET.store(0, Ordering::SeqCst);
        PEAK.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
    }

    /// Stops counting and returns the peak in MiB.
    pub fn stop() -> f64 {
        COUNTING.store(false, Ordering::SeqCst);
        PEAK.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0)
    }

    fn grow(bytes: usize) {
        let net = NET.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        if net > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(net, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            PeakHeap::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            PeakHeap::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if COUNTING.load(Ordering::Relaxed) {
            NET.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            if new_size >= layout.size() {
                PeakHeap::grow(new_size - layout.size());
            } else {
                NET.fetch_sub((layout.size() - new_size) as isize, Ordering::Relaxed);
            }
        }
        p
    }
}
