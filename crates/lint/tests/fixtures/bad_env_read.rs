// Fixture: environment reads outside ndpx_bench::knobs.
fn reads() {
    let _a = std::env::var("HOME");
    let _b = std::env::var_os("PATH");
    for (_k, _v) in std::env::vars() {}
}
