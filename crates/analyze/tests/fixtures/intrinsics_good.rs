//! Known-good for intrinsics-confinement: frontier word ops go through
//! `rlc_core::kernel`, and documentation may *mention* `std::arch` or
//! `#[target_feature]` freely — prose is not code.

/// Returns the host's vector class; raw `core::arch` intrinsics stay
/// inside the `rlc_core::kernel` module.
pub fn frontier_kernel(kernel: &'static str) -> &'static str {
    kernel
}
