//! Regenerates the `fleet` golden record: V_min quantiles and yield of a die fleet.
fn main() {
    dante_bench::figures::fleet::fleet().emit();
}
