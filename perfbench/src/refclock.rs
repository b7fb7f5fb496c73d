//! Host times in reference seconds.
//!
//! On a shared virtual machine the speed of the host drifts by a third or
//! more over tens of seconds and minutes, as neighbours come and go, and
//! every host time drifts with it. The benchmark therefore runs a frozen
//! reference kernel between operations and scales each operation's host
//! time by how fast the kernel ran around it:
//!
//! `reference seconds = host seconds × REFERENCE_SECS / kernel seconds`
//!
//! where the kernel time is the mean of the calls just before and just
//! after the operation. On a host where the kernel takes exactly
//! [`REFERENCE_SECS`], the two are equal. The kernel is part of the
//! benchmark, so no change to the program under test can change it: a
//! program that gets faster or slower shows the same ratio in reference
//! seconds as in host seconds, while drift common to the kernel and the
//! program cancels.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Kernel time that defines one reference second's scale.
pub const REFERENCE_SECS: f64 = 0.035;

/// Steps per kernel call (25 to 50 ms on the 2-core VM this was written on).
const KERNEL_STEPS: u32 = 250_000;

/// Pending events the kernel's queue holds.
const KERNEL_EVENTS: u32 = 8192;

/// Counter slots the kernel scatters updates over (512 KiB).
const KERNEL_SLOTS: usize = 1 << 16;

/// Runs the reference kernel once and returns its host seconds.
///
/// The kernel is a small discrete-event loop, the kind of work the
/// simulator and the service do: pop the earliest event from a binary
/// heap, update a scattered counter, do a little branchy float work, push
/// the event's successor.
pub fn kernel_secs() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(KERNEL_EVENTS as usize);
    for id in 0..KERNEL_EVENTS {
        heap.push(Reverse((next() % 1_000_000, id)));
    }
    let mut slots = vec![0u64; KERNEL_SLOTS];
    let mut acc = 0.0f64;
    for _ in 0..KERNEL_STEPS {
        let Some(Reverse((now, id))) = heap.pop() else {
            break;
        };
        let r = next();
        let k = (r as usize) & (KERNEL_SLOTS - 1);
        slots[k] = slots[k].wrapping_add(now ^ u64::from(id));
        if slots[k] & 3 == 0 {
            acc += (now as f64).sqrt();
        } else {
            acc -= 1.0 / (1.0 + k as f64);
        }
        heap.push(Reverse((now + 1 + r % 5000, id)));
    }
    std::hint::black_box((acc, &slots, &heap));
    start.elapsed().as_secs_f64()
}

/// Converts the host time of consecutive operations to reference seconds,
/// running the kernel once between each two.
pub struct RefClock {
    last: f64,
    readings: Vec<f64>,
}

impl RefClock {
    /// Takes the first kernel reading.
    pub fn start() -> RefClock {
        let last = kernel_secs();
        RefClock {
            last,
            readings: vec![last],
        }
    }

    /// Takes a reading after an operation and returns the factor that
    /// converts that operation's host seconds to reference seconds.
    pub fn factor(&mut self) -> f64 {
        let now = kernel_secs();
        self.readings.push(now);
        let factor = REFERENCE_SECS / ((self.last + now) / 2.0);
        self.last = now;
        factor
    }

    /// Every kernel reading so far, in host seconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}
