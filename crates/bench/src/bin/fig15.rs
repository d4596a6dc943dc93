//! Regenerates paper figure `fig15` (analytic: no Monte-Carlo, no scale
//! knobs).
fn main() {
    dante_bench::figures::energy::fig15().emit();
}
