//! Regenerates the `retrain` golden record: hardened-vs-baseline V_min.
fn main() {
    dante_bench::figures::retrain::retrain().emit();
}
