//! Regenerates the `macro_model` golden record: the structural SRAM macro model.
fn main() {
    dante_bench::figures::macro_model::macro_model().emit();
}
