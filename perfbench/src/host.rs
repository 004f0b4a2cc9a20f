//! Host-speed normalisation and heap hygiene between ops.
//!
//! The machines this benchmark runs on are shared: the same
//! deterministic op runs up to 1.5× slower for minutes at a time while
//! a neighbour is busy, which no amount of in-run averaging removes.
//! So every timed interval is bracketed by a fixed calibration kernel
//! (benchmark code only, so no change to the program can speed it up)
//! and reported at the reference speed:
//! `time × CAL_REF_MS / mean(calibration before, calibration after)`.
//! Raw times are kept in the run's provenance line.
//!
//! A program that left threads busy between ops would slow the kernel
//! and so flatter its own numbers; the CPU time other threads burn
//! while the kernel runs is therefore measured, and a run where it is
//! not negligible is marked incorrect.
//!
//! Before each calibration, freed heap pages go back to the OS, so peak
//! RSS measures the program's working set rather than how many malloc
//! arenas happened to host its largest transient allocation.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The calibration kernel's time at the reference speed: its median on
/// the 2-vCPU Xeon (2.1 GHz) virtual machine the bounds were set on.
pub const CAL_REF_MS: f64 = 16.0;

/// Largest tolerated share of other threads' CPU time while the kernel
/// runs.
const MAX_BACKGROUND_SHARE: f64 = 0.5;

/// The calibration kernel: a register-machine interpreter loop plus
/// string-keyed hash and ordered maps, the mix of branchy dispatch and
/// allocation-heavy table work the pipeline's simulators and compilers
/// do. ~16 ms on the reference machine.
fn kernel() {
    let mut x = 0x9e37_79b9u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let prog: Vec<u32> = (0..4096).map(|_| next() as u32).collect();
    let mut regs = [0u32; 16];
    let mut pc = 0usize;
    for _ in 0..1_500_000 {
        let ins = prog[pc];
        let (d, s) = (((ins >> 3) & 15) as usize, ((ins >> 7) & 15) as usize);
        match ins & 7 {
            0 => regs[d] = regs[d].wrapping_add(regs[s]),
            1 => regs[d] ^= regs[s].rotate_left(ins >> 27),
            2 => regs[d] = prog[(regs[s] & 4095) as usize],
            3 if regs[s] & 1 == 0 => {
                pc = (pc + (ins >> 20) as usize) & 4095;
                continue;
            }
            4 => regs[d] = regs[d].wrapping_mul(regs[s] | 1),
            _ => regs[d] = regs[d].wrapping_sub(ins >> 11),
        }
        pc = (pc + 1) & 4095;
    }
    let mut symbols: HashMap<String, Vec<u32>> = HashMap::new();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..40_000u64 {
        symbols.entry(format!("sym{}", next() % 5000)).or_default().push(i as u32);
        *ordered.entry(next() % 20_000).or_insert(0) += i;
    }
    std::hint::black_box((regs, symbols, ordered));
}

/// CPU time used so far by this process and by the calling thread, ns.
/// Exact clocks rather than `/proc` tick counts: with only the two
/// calibrations of a setup process, one tick of accounting jitter
/// would read as a busy background thread.
fn cpu_ns() -> Option<(u64, u64)> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let read = |clock| {
            let mut ts = Timespec { sec: 0, nsec: 0 };
            // SAFETY: `ts` is a valid, writable timespec for the call.
            let ok = unsafe { clock_gettime(clock, &mut ts) } == 0;
            ok.then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
        };
        Some((read(CLOCK_PROCESS_CPUTIME_ID)?, read(CLOCK_THREAD_CPUTIME_ID)?))
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    None
}

/// Return freed heap pages to the OS (glibc only; elsewhere a no-op).
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers and has no
        // preconditions; it only hands free pages back to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Calibration samples of one run.
#[derive(Default)]
pub struct Host {
    /// Kernel wall time per calibration, ms.
    pub cal_ms: Vec<f64>,
    /// CPU ns other threads of this process used during calibrations.
    other_ns: u64,
    /// CPU ns the calibrating thread used.
    own_ns: u64,
}

impl Host {
    /// Settle between ops: trim the heap, then time the kernel. Returns
    /// the kernel's wall time, ms.
    pub fn settle(&mut self) -> f64 {
        release_free_memory();
        let before = cpu_ns();
        let t0 = Instant::now();
        kernel();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some((p0, o0)), Some((p1, o1))) = (before, cpu_ns()) {
            let own = o1.saturating_sub(o0);
            self.own_ns += own;
            self.other_ns += p1.saturating_sub(p0).saturating_sub(own);
        }
        self.cal_ms.push(ms);
        ms
    }

    /// Settle after a timed interval that began right after the
    /// calibration `prev`; returns the factor that brings the interval
    /// to the reference speed, and makes this calibration the next
    /// interval's `prev`.
    pub fn next_factor(&mut self, prev: &mut f64) -> f64 {
        let now = self.settle();
        let factor = 2.0 * CAL_REF_MS / (*prev + now);
        *prev = now;
        factor
    }

    /// Share of CPU other threads used while the kernel ran.
    pub fn background_share(&self) -> f64 {
        self.other_ns as f64 / self.own_ns.max(1) as f64
    }

    /// Why this run's normalisation cannot be trusted, if it cannot.
    pub fn check(&self) -> Result<(), String> {
        let share = self.background_share();
        if share > MAX_BACKGROUND_SHARE {
            return Err(format!(
                "other threads used {:.0}% of a CPU during host calibration",
                100.0 * share
            ));
        }
        Ok(())
    }
}
