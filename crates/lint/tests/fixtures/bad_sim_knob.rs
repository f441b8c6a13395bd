// Fixture: a simulator crate reading knobs instead of its configuration.
use ndpx_sim::knobs;

fn telemetry_on() -> bool {
    knobs::PROFILE.bool_or(false) || ndpx_sim::knobs::TIMELINE.path().is_some()
}
