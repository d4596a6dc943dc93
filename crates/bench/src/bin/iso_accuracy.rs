//! Regenerates the `iso_accuracy` golden record: single vs boosted vs dual supply.
fn main() {
    dante_bench::figures::energy::iso_accuracy().emit();
}
