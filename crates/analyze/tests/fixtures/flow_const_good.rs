//! Dual of the laundering fixture: v1 false-positived here, because no
//! identifier is shared with a `checked_len` call, while the v2
//! dataflow sees the binding rebound to a constant before it reaches
//! the sink and stays quiet.

pub fn from_bytes(bytes: &[u8]) -> Vec<u8> {
    let count = bytes[0] as usize;
    let count = 16;
    Vec::with_capacity(count)
}
