//! The one bounded reader every binary decoder reads through, and the
//! division-form bound check for the counts it declares.
//!
//! Every binary format in the workspace (`RLG1`, `RLC3`, `ETC1`, `RSH1`) is
//! decoded through a [`Reader`]. Each read returns a `Result`, so a short
//! blob is an error at the read that runs out, never a panic, and
//! [`Reader::finish`] rejects trailing bytes. Declared element counts are
//! bounded by the bytes actually present with [`Reader::checked_len`] (over
//! [`checked_len`], in division form so multiplication can never overflow)
//! before they size a loop or an allocation; the `untrusted-length-flow`
//! rule of `rlc-analyze` checks that every decode-path allocation flows
//! through it, in the `from_bytes`/`from_binary_*` loaders and in every
//! function that takes a `Reader`.

use crate::graph::Edge;
use crate::label::Label;
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

/// Why a [`Reader`] refused to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// A read of `needed` bytes at byte `offset` ran past the end of the
    /// input, where only `remaining` bytes were left.
    Truncated {
        /// Byte offset of the read.
        offset: usize,
        /// Bytes the read asked for.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A declared count of `what` does not fit the bytes that remain.
    Count {
        /// The section the count sizes.
        what: &'static str,
        /// The failed bound.
        bound: LengthBoundError,
    },
    /// Bytes remain after the last field.
    Trailing {
        /// How many.
        count: usize,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated input: {needed} bytes needed at offset {offset}, but only \
                 {remaining} remain"
            ),
            ReadError::Count { what, bound } => {
                write!(f, "truncated or corrupt input: {what}: {bound}")
            }
            ReadError::Trailing { count } => {
                write!(f, "{count} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for String {
    fn from(error: ReadError) -> String {
        error.to_string()
    }
}

/// A little-endian cursor over untrusted bytes whose every read is total:
/// it returns the value or a [`ReadError`], and never reads past the end.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], ReadError> {
        let rest = &self.data[self.pos..];
        let (head, _) = rest.split_at_checked(len).ok_or(ReadError::Truncated {
            offset: self.pos,
            needed: len,
            remaining: rest.len(),
        })?;
        self.pos += len;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u64` count as a `usize`, saturating: a count beyond
    /// `usize` fails every [`Reader::checked_len`].
    pub fn u64_count(&mut self) -> Result<usize, ReadError> {
        Ok(usize::try_from(self.u64()?).unwrap_or(usize::MAX))
    }

    /// `count` little-endian `u32`s, decoded in bulk; the allocation is
    /// sized by the bytes taken, never by `count` alone.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, ReadError> {
        let bytes = self.take(count.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// `count` little-endian `u64`s (see [`Reader::u32s`]).
    pub fn u64s(&mut self, count: usize) -> Result<Vec<u64>, ReadError> {
        let bytes = self.take(count.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// One edge record: `u32` source, `u16` label, `u32` target (written
    /// by [`crate::io::write_edge`]). The ids are not range-checked.
    pub fn edge(&mut self) -> Result<Edge, ReadError> {
        Ok(Edge::new(self.u32()?, Label(self.u16()?), self.u32()?))
    }

    /// Bounds a declared count of `what` by the bytes left, at `per_item`
    /// bytes at least per element (see [`checked_len`]).
    pub fn checked_len(
        &self,
        declared: usize,
        per_item: usize,
        what: &'static str,
    ) -> Result<usize, ReadError> {
        checked_len(declared, per_item, self.remaining())
            .map_err(|bound| ReadError::Count { what, bound })
    }

    /// Ends the read: every byte must have been consumed.
    pub fn finish(self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(ReadError::Trailing { count }),
        }
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

    #[test]
    fn reader_round_trips_all_widths() {
        let mut buf = vec![0xAB];
        buf.extend_from_slice(&0x1234u16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        for v in [7u32, u32::MAX] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(b"xy");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.u32s(2), Ok(vec![7, u32::MAX]));
        assert_eq!(r.u64s(1), Ok(vec![u64::MAX]));
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reading_past_the_end_is_an_error() {
        let mut r = Reader::new(&[1, 2, 3]);
        let err = r.u32().unwrap_err();
        assert_eq!(
            err,
            ReadError::Truncated {
                offset: 0,
                needed: 4,
                remaining: 3
            }
        );
        assert!(err.to_string().contains("truncated"));
        // A failed read consumes nothing.
        assert_eq!(r.u16(), Ok(0x0201));
        assert!(r.u32s(usize::MAX).is_err());
        assert!(r.u64s(1).is_err());
        assert_eq!(r.u8(), Ok(3));
        assert!(r.u8().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[0; 5]);
        assert_eq!(r.u32(), Ok(0));
        let err = r.finish().unwrap_err();
        assert_eq!(err, ReadError::Trailing { count: 1 });
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn checked_len_names_the_section() {
        let mut r = Reader::new(&[0; 9]);
        assert_eq!(r.u8(), Ok(0));
        assert_eq!(r.checked_len(2, 4, "table"), Ok(2));
        let err = r.checked_len(3, 4, "table").unwrap_err();
        assert!(err.to_string().contains("table"), "{err}");
        assert_eq!(r.u64_count(), Ok(0));
    }
}
