//! Known-good for untrusted-length-flow: the decoded count flows through the
//! shared division-form bound check before sizing the allocation, and
//! constant-size allocations are exempt.

use rlc_graph::checked_len;

pub fn from_bytes(bytes: &[u8]) -> Result<Vec<u64>, String> {
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(&bytes[..bytes.len().min(16)]);
    let count = bytes[0] as usize;
    let count = checked_len(count, 8, bytes.len() - 1).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(count);
    out.push(0);
    Ok(out)
}
