//! Machine-speed probe: the fixed reference kernel the end-to-end times are
//! scaled by.
//!
//! Shared virtual machines drift through speed phases that last from
//! seconds to minutes, and even the fastest of several hundred simulator
//! runs in a 30 s region cannot escape a phase that covers the whole
//! region. On a 2-vCPU KVM guest the phases stepped the host clock, and a
//! fixed ALU-bound kernel run between the simulator's rounds stepped with
//! them: over 5600 interleaved rounds in 50-round windows, the fastest
//! round's coefficient of variation was 5.7%, the fastest probe run's 5.2%
//! and their ratio's 1.5%, with a correlation of 0.96 (README.md, *Noise*).
//!
//! The probe is a dependent xorshift chain. It touches no memory, so it
//! evicts nothing the simulator keeps in cache, and no simulator code runs
//! in it, so a change to the simulator moves the scaled metrics exactly as
//! it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Steps of one probe run (about 4 ms on a 2 GHz-class Xeon core).
const STEPS: u64 = 2_000_000;

/// The probe time the scaled metrics are expressed at: a scaled time is the
/// time the work would take on a machine whose fastest probe run takes this
/// long. 4 ms is the probe's fastest run on the machine the bounds were set
/// on, in its fast phase, so scaled figures read close to raw ones there.
pub const REF_S: f64 = 4.0e-3;

/// Times one probe run, in seconds.
pub fn run() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

