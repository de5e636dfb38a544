//! What the host is, recorded beside every result.

use serde::Value;

/// Threads the system's parallel paths and the load generator may use:
/// `min(nproc, 4)`, so results from a larger host stay comparable in shape.
pub const MAX_PINNED: usize = 4;

/// Host facts a result depends on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Thread count of every parallel path and of the load generator.
    pub pinned: usize,
    /// The kernel lane `rlc_core::kernel_name()` dispatched to.
    pub kernel_lane: &'static str,
    /// `rustc -V`, handed over by `run.sh` (the binary spawns nothing).
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Reads the host and pins rayon's thread count through the vendored
    /// rayon's in-process override, which outranks `RAYON_NUM_THREADS`: a
    /// value left in the environment cannot change what is measured.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let pinned = nproc.min(MAX_PINNED);
        rayon::set_thread_override(Some(pinned));
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
        Host {
            nproc,
            pinned,
            kernel_lane: rlc_core::kernel_name(),
            rustc: env("RLC_BENCH_RUSTC"),
            git_rev: env("RLC_BENCH_GIT_REV"),
        }
    }

    /// The host block of a result file.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("nproc".to_owned(), Value::UInt(self.nproc as u64)),
            ("pinned_threads".to_owned(), Value::UInt(self.pinned as u64)),
            (
                "kernel_lane".to_owned(),
                Value::Str(self.kernel_lane.to_owned()),
            ),
            ("rustc".to_owned(), Value::Str(self.rustc.clone())),
            ("git_rev".to_owned(), Value::Str(self.git_rev.clone())),
        ])
    }
}

/// `VmHWM` of this process in bytes: the peak resident set so far.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm(&status).unwrap_or(0)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_in_bytes() {
        let status = "Name:\tx\nVmPeak:\t  200 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1234 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(peak_rss_bytes() > 0, "this process has a resident set");
    }
}
