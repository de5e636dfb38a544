//! Known-good twin of `reader_helper_bad.rs`: every count, read from the
//! `Reader` or passed alongside it, is bounded by `Reader::checked_len`
//! before it sizes an allocation.

use rlc_graph::Reader;

fn read_table(r: &mut Reader<'_>) -> Result<Vec<u32>, String> {
    let count = r.u32()? as usize;
    let count = r.checked_len(count, 4, "table")?;
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        table.push(r.u32()?);
    }
    Ok(table)
}

fn read_rows(r: &mut Reader<'_>, rows: usize) -> Result<Vec<u64>, String> {
    let rows = r.checked_len(rows, 8, "rows")?;
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(r.u64()?);
    }
    Ok(out)
}
