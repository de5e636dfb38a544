//! Division-form bound checks for untrusted length fields.
//!
//! Every binary format in the workspace (`RLG1`, `RLC3`, `ETC1`, `RSH1`)
//! reads declared element counts from untrusted bytes and then sizes
//! loops and allocations with them. The safe pattern — bound the count by
//! the bytes actually present, in division form so multiplication can
//! never overflow — used to be re-implemented inline at every site; this
//! module is the single shared helper, and the `untrusted-length-flow` rule of
//! `rlc-analyze` checks that every decode-path allocation flows through
//! it.

use std::fmt;

/// A declared length that does not fit the bytes actually present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LengthBoundError {
    /// The declared element count.
    pub count: usize,
    /// The minimum encoded size of one element, in bytes.
    pub per_item: usize,
    /// The bytes remaining in the input when the count was checked.
    pub remaining: usize,
}

impl fmt::Display for LengthBoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.per_item == 0 {
            return write!(
                f,
                "length bound called with a zero per-item size (decoder bug)"
            );
        }
        write!(
            f,
            "declared {} elements of at least {} byte{} each, but only {} bytes remain",
            self.count,
            self.per_item,
            if self.per_item == 1 { "" } else { "s" },
            self.remaining
        )
    }
}

impl std::error::Error for LengthBoundError {}

/// Bounds an untrusted element count by the bytes actually present.
///
/// Returns `count` unchanged when `count * per_item` bytes could still be
/// present in `remaining` input bytes — computed in division form
/// (`count <= remaining / per_item`), which is immune to multiplication
/// overflow on hostile counts — and an error otherwise.
///
/// `per_item` is the *minimum* encoded size of one element in bytes and
/// must be at least 1; a zero `per_item` is itself an error (a zero-size
/// element cannot bound anything, and silently passing would defeat the
/// check).
///
/// The returned count is the input count, not a truncation: callers
/// `let count = checked_len(count, per_item, remaining)?;` so the flow
/// from untrusted field to allocation is visible at the allocation site.
pub fn checked_len(
    count: usize,
    per_item: usize,
    remaining: usize,
) -> Result<usize, LengthBoundError> {
    if per_item > 0 && count <= remaining / per_item {
        Ok(count)
    } else {
        Err(LengthBoundError {
            count,
            per_item,
            remaining,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_counts_that_fit() {
        assert_eq!(checked_len(0, 4, 0), Ok(0));
        assert_eq!(checked_len(3, 4, 12), Ok(3));
        assert_eq!(checked_len(3, 4, 13), Ok(3));
    }

    #[test]
    fn rejects_counts_that_do_not_fit() {
        assert!(checked_len(4, 4, 15).is_err());
        assert!(checked_len(1, 4, 3).is_err());
    }

    #[test]
    fn immune_to_multiplication_overflow() {
        // count * per_item would wrap; the division form must still reject.
        assert!(checked_len(usize::MAX, 8, 64).is_err());
        // The largest count that truly fits is accepted, even though a
        // naive count * per_item comparison sits right at the wrap edge.
        assert!(checked_len(usize::MAX / 2, 2, usize::MAX).is_ok());
        assert!(checked_len(usize::MAX / 2 + 1, 2, usize::MAX).is_err());
    }

    #[test]
    fn zero_per_item_is_a_decoder_bug() {
        let err = checked_len(1, 0, 100).unwrap_err();
        assert!(err.to_string().contains("decoder bug"));
    }

    #[test]
    fn error_message_names_the_numbers() {
        let err = checked_len(1000, 10, 9).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("1000"));
        assert!(text.contains("10"));
        assert!(text.contains("9"));
    }
}
