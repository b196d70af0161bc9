//! `fig11 [flags]` ≡ `repro fig11 [flags]`: `benchmark/` builds and spawns
//! this target by name.

fn main() {
    let argv = noclat_engine::SweepArgs::process_argv();
    noclat_bench::repro(&[vec!["fig11".to_string()], argv].concat());
}
