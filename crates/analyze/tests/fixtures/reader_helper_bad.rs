//! Known-bad for untrusted-length-flow: decode helpers split out of their
//! loader. Each takes the `Reader`, so the counts it reads, and the counts
//! the loader passes alongside it, are untrusted even though neither
//! function is named like a loader.

use rlc_graph::Reader;

fn read_table(r: &mut Reader<'_>) -> Result<Vec<u32>, String> {
    let count = r.u32()? as usize;
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        table.push(r.u32()?);
    }
    Ok(table)
}

fn read_rows(r: &mut Reader<'_>, rows: usize) -> Result<Vec<u64>, String> {
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(r.u64()?);
    }
    Ok(out)
}
