//! Prints the knob table committed at `docs/knobs.md`:
//! [`ndpx_bench::knobs::knobs_md`].
//!
//! `cargo run -p ndpx-bench --bin knobs_md > docs/knobs.md`

fn main() {
    print!("{}", ndpx_bench::knobs::knobs_md());
}
