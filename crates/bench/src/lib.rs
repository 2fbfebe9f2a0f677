//! Shared measurement utilities for `divtopk`: a peak-tracking global
//! allocator (the paper reports *peak memory* for every experiment) and
//! the small measurement/format helpers the `figures` binary uses
//! (DESIGN.md §6), plus the quality gate's query pack and evaluator.

pub mod quality;
pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A counting wrapper around the system allocator.
///
/// Install in a binary with:
/// ```ignore
/// #[global_allocator]
/// static ALLOC: divtopk_bench::PeakAlloc = divtopk_bench::PeakAlloc;
/// ```
/// then bracket measured regions with [`reset_peak`] / [`peak_since`].
pub struct PeakAlloc;

// SAFETY: every method delegates verbatim to `System` with the caller's
// own layout/pointer arguments, upholding `GlobalAlloc`'s contract
// exactly as `System` does; the counter updates never touch the
// allocation itself (and never allocate — plain atomics), so no
// reentrancy or aliasing is introduced.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the outer call — `layout` is the
        // caller's, passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            // RELAXED: best-effort live/peak accounting — single-threaded
            // in every bench that reads it, and a momentarily stale peak
            // only under-reports a concurrent spike; no ordering is
            // needed for a measurement counter.
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are the caller's matched pair, passed
        // through unchanged to the allocator that produced them.
        unsafe { System.dealloc(ptr, layout) };
        // RELAXED: measurement counter — see `alloc`.
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller's matched `ptr`/`layout`/`new_size`, passed
        // through unchanged.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                // RELAXED: measurement counter — see `alloc`.
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                // RELAXED: measurement counter — see `alloc`.
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Resets the peak to the current live size; returns the baseline.
pub fn reset_peak() -> usize {
    // RELAXED: measurement read/write — see `PeakAlloc::alloc`.
    let cur = CURRENT.load(Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

/// Peak bytes *above* the given baseline since the last [`reset_peak`].
pub fn peak_since(baseline: usize) -> usize {
    // RELAXED: measurement read — see `PeakAlloc::alloc`.
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Outcome of one measured run: wall time + allocation peak, or `INF`
/// (budget exhausted — the paper's notation for runs that died at 2 GB).
#[derive(Debug, Clone, Copy)]
pub enum Measurement {
    Done { time: Duration, peak_bytes: usize },
    Inf,
}

impl Measurement {
    /// Formats like the paper's plots: seconds + a human byte size.
    pub fn time_cell(&self) -> String {
        match self {
            Measurement::Done { time, .. } => format!("{:.3}", time.as_secs_f64()),
            Measurement::Inf => "INF".to_string(),
        }
    }

    /// Memory column.
    pub fn mem_cell(&self) -> String {
        match self {
            Measurement::Done { peak_bytes, .. } => human_bytes(*peak_bytes),
            Measurement::Inf => "INF".to_string(),
        }
    }
}

/// Runs `f` once, measuring wall time and allocator peak. A `None` from
/// `f` means the budget tripped → `INF`.
pub fn measure<T>(f: impl FnOnce() -> Option<T>) -> (Measurement, Option<T>) {
    let baseline = reset_peak();
    let start = Instant::now();
    let out = f();
    let time = start.elapsed();
    let peak_bytes = peak_since(baseline);
    match out {
        Some(v) => (Measurement::Done { time, peak_bytes }, Some(v)),
        None => (Measurement::Inf, None),
    }
}

/// `1234567` → `"1.18MB"` (paper-style axis labels).
pub fn human_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = b as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b}B")
    } else {
        format!("{value:.2}{}", UNITS[unit])
    }
}

/// Prints one experiment table: header + rows of (x, cells...).
pub fn print_table(title: &str, x_label: &str, columns: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n### {title}");
    let w = rows.iter().map(|r| r.0.chars().count()).fold(8, usize::max);
    let mut header = format!("| {x_label:>w$} |");
    let mut rule = format!("|{}:|", "-".repeat(w + 1));
    for c in columns {
        header.push_str(&format!(" {c:>14} |"));
        rule.push_str("---------------:|");
    }
    println!("{header}");
    println!("{rule}");
    for (x, cells) in rows {
        let mut line = format!("| {x:>w$} |");
        for c in cells {
            line.push_str(&format!(" {c:>14} |"));
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.00KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00MB");
    }

    #[test]
    fn measurement_cells() {
        let m = Measurement::Done {
            time: Duration::from_millis(1500),
            peak_bytes: 1024,
        };
        assert_eq!(m.time_cell(), "1.500");
        assert_eq!(m.mem_cell(), "1.00KB");
        assert_eq!(Measurement::Inf.time_cell(), "INF");
    }

    #[test]
    fn measure_captures_success_and_inf() {
        let (m, v) = measure(|| Some(42));
        assert!(matches!(m, Measurement::Done { .. }));
        assert_eq!(v, Some(42));
        let (m, v) = measure::<u32>(|| None);
        assert!(matches!(m, Measurement::Inf));
        assert!(v.is_none());
    }
}
