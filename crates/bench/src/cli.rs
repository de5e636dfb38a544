//! Minimal command-line parsing for `run_all`.
//!
//! The command line is `[experiment] [options]`: an optional leading
//! experiment name (see [`crate::experiments::ALL`]) followed by the options
//! every experiment shares:
//!
//! * `--scale <f>` — fraction of the original dataset size to generate for
//!   the real-graph stand-ins (default `1/64`);
//! * `--seed <n>` — RNG seed (default 42);
//! * `--queries <n>` — queries per query set (default 1000, as in the paper);
//! * `--quick` — shrink everything aggressively for a smoke run.
//!
//! A tiny hand-rolled parser keeps the workspace free of an argument-parsing
//! dependency.

/// Options common to all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Scale factor applied to the Table III stand-in graphs.
    pub scale: f64,
    /// RNG seed used for graph and workload generation.
    pub seed: u64,
    /// Number of true queries and of false queries per query set.
    pub queries: usize,
    /// Quick mode: shrink sizes so every experiment finishes in seconds.
    pub quick: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: 1.0 / 64.0,
            seed: 42,
            queries: 1000,
            quick: false,
        }
    }
}

impl CommonArgs {
    /// Parses an explicit option list (testable entry point).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = CommonArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let value = iter.next().ok_or("--scale requires a value")?;
                    parsed.scale = value
                        .parse()
                        .map_err(|_| format!("invalid --scale value {value:?}"))?;
                    if parsed.scale <= 0.0 {
                        return Err("--scale must be positive".to_owned());
                    }
                }
                "--seed" => {
                    let value = iter.next().ok_or("--seed requires a value")?;
                    parsed.seed = value
                        .parse()
                        .map_err(|_| format!("invalid --seed value {value:?}"))?;
                }
                "--queries" => {
                    let value = iter.next().ok_or("--queries requires a value")?;
                    parsed.queries = value
                        .parse()
                        .map_err(|_| format!("invalid --queries value {value:?}"))?;
                }
                "--quick" => parsed.quick = true,
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        if parsed.quick {
            parsed.scale = parsed.scale.min(1.0 / 256.0);
            parsed.queries = parsed.queries.min(100);
        }
        Ok(parsed)
    }
}

/// Splits a `run_all` command line into its optional leading experiment
/// name and the parsed common options.
pub fn parse_command_line(
    args: impl IntoIterator<Item = String>,
) -> Result<(Option<String>, CommonArgs), String> {
    let mut args = args.into_iter().peekable();
    let experiment = args.next_if(|arg| !arg.starts_with("--"));
    Ok((experiment, CommonArgs::parse(args)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_arguments() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, CommonArgs::default());
    }

    #[test]
    fn parses_all_options() {
        let args = parse(&["--scale", "0.5", "--seed", "7", "--queries", "10"]).unwrap();
        assert!((args.scale - 0.5).abs() < 1e-12);
        assert_eq!(args.seed, 7);
        assert_eq!(args.queries, 10);
        assert!(!args.quick);
    }

    #[test]
    fn quick_mode_shrinks_sizes() {
        let args = parse(&["--quick"]).unwrap();
        assert!(args.quick);
        assert!(args.scale <= 1.0 / 256.0);
        assert!(args.queries <= 100);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "zero"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--unknown"]).is_err());
        assert!(parse(&["--json"]).is_err());
    }

    #[test]
    fn command_line_takes_an_optional_leading_experiment() {
        let line = |args: &[&str]| parse_command_line(args.iter().map(|s| s.to_string()));
        assert_eq!(line(&[]).unwrap(), (None, CommonArgs::default()));
        let (name, args) = line(&["fig3", "--quick", "--seed", "3"]).unwrap();
        assert_eq!(name.as_deref(), Some("fig3"));
        assert!(args.quick);
        assert_eq!(args.seed, 3);
        let (name, args) = line(&["--seed", "3"]).unwrap();
        assert_eq!(name, None);
        assert_eq!(args.seed, 3);
        // Only the first argument may name an experiment.
        assert!(line(&["fig3", "fig4"]).is_err());
    }
}
