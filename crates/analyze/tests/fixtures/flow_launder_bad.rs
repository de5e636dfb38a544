//! Known-bad the retired v1 heuristic missed: the tainted length is
//! laundered through a rebinding that shares no identifier with any
//! `checked_len` call, so identifier sharing says "sanitized" while
//! the dataflow sees the sink fed by the raw decoded byte.

use rlc_graph::checked_len;

pub fn from_bytes(bytes: &[u8]) -> Vec<u8> {
    let n = bytes[0] as usize;
    let n = checked_len(n, 1, bytes.len()).unwrap_or(0);
    let declared = bytes[1] as usize;
    let n = declared;
    vec![0u8; n]
}
