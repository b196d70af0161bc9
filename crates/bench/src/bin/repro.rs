//! `repro <id> [flags] | list | all <dir>` — every table, figure and
//! extension of the reproduction (`noclat_bench::FIGURES`).

fn main() {
    noclat_bench::repro(&noclat_engine::SweepArgs::process_argv());
}
