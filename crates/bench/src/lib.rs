//! Shared CLI plumbing for the bench binaries (`figures`, `campaign`,
//! `divergence`).
//!
//! Every binary accepts:
//!
//! * `--ases N` — topology size (default: per-experiment),
//! * `--instances N` — scenario instances (default: per-experiment),
//! * `--seed N` — master seed,
//! * `--threads N` — worker threads (0 = all cores).
//!
//! An unknown flag, a missing value or a malformed number exits 2 with the
//! usage text; the binaries print their report to stdout.
//!
//! The [`harness`] module is the in-repo micro-benchmark harness backing
//! `benches/{figures,micro}.rs`.

#![forbid(unsafe_code)]

use std::fmt;
use std::str::FromStr;

pub mod harness;

/// Parsed common options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonArgs {
    pub ases: Option<usize>,
    pub instances: Option<usize>,
    pub seed: Option<u64>,
    pub threads: usize,
    /// CI smoke mode (`campaign --smoke`): tiny grid, determinism check
    /// only.
    pub smoke: bool,
    /// Destination-axis size of a campaign grid (`--dests N`).
    pub dests: Option<usize>,
    /// Seed-axis size of a campaign grid (`--seeds N`).
    pub seeds: Option<usize>,
    /// `.scn` scenario files (`--scn FILE`, repeatable): campaign timelines
    /// loaded as data instead of the built-in families.
    pub scn: Vec<String>,
    /// Comma-separated protocol list (`--protocols bgp,stamp`); binaries
    /// parse each entry via `Protocol::from_str` (labels or aliases).
    pub protocols: Option<String>,
    /// Comma-separated policy-regime list (`--policy gao-rexford,...`);
    /// binaries resolve each entry via `PolicyRegime::by_name`. Mirrors
    /// `--protocols`: the first entry is the regime the grids run under,
    /// the full list is the sweep axis.
    pub policy: Option<String>,
    /// Verification mode (`--check`): run and assert, but do not rewrite
    /// report files (the CI hash gate runs the full grid this way).
    pub check: bool,
    /// Adversarial sweep (`campaign --adversarial`): run the hijack /
    /// leak / policy-misconfig families instead of (or in addition to)
    /// the physical-failure families.
    pub adversarial: bool,
}

/// Why an argument list did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` / `-h`: print the usage and exit 0.
    Help,
    /// A flag no binary knows.
    Unknown(String),
    /// A flag that takes a value came last.
    Missing(String),
    /// A numeric flag whose value is not a number.
    Malformed { flag: String, value: String },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Help => write!(f, "help requested"),
            ArgError::Unknown(flag) => write!(f, "unknown flag {flag}"),
            ArgError::Missing(flag) => write!(f, "missing value for {flag}"),
            ArgError::Malformed { flag, value } => {
                write!(f, "{flag} expects a number, got {value:?}")
            }
        }
    }
}

impl CommonArgs {
    /// Parse a flag list (the program name and any subcommand already
    /// stripped).
    pub fn parse(args: &[String]) -> Result<CommonArgs, ArgError> {
        fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, ArgError> {
            value.parse().map_err(|_| ArgError::Malformed {
                flag: flag.to_string(),
                value: value.to_string(),
            })
        }
        let mut out = CommonArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| ArgError::Missing(flag.clone()));
            match flag.as_str() {
                "--ases" => out.ases = Some(number(flag, value()?)?),
                "--instances" => out.instances = Some(number(flag, value()?)?),
                "--seed" => out.seed = Some(number(flag, value()?)?),
                "--threads" => out.threads = number(flag, value()?)?,
                "--smoke" => out.smoke = true,
                "--dests" => out.dests = Some(number(flag, value()?)?),
                "--seeds" => out.seeds = Some(number(flag, value()?)?),
                "--scn" => out.scn.push(value()?.clone()),
                "--protocols" => out.protocols = Some(value()?.clone()),
                "--policy" => out.policy = Some(value()?.clone()),
                "--check" => out.check = true,
                "--adversarial" => out.adversarial = true,
                "--help" | "-h" => return Err(ArgError::Help),
                other => return Err(ArgError::Unknown(other.to_string())),
            }
        }
        Ok(out)
    }
}

/// Print `usage` for a parse outcome that ends the process: to stdout
/// with exit 0 for `--help`, to stderr after the error with exit 2
/// otherwise.
pub fn exit_with_usage(err: &ArgError, usage: &str) -> ! {
    if *err == ArgError::Help {
        println!("{usage}");
        std::process::exit(0);
    }
    eprintln!("{err}\n{usage}");
    std::process::exit(2);
}

/// Parse `std::env::args`, exiting with usage on errors.
pub fn parse_args(usage: &str) -> CommonArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    CommonArgs::parse(&args).unwrap_or_else(|e| exit_with_usage(&e, usage))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, ArgError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        CommonArgs::parse(&args)
    }

    #[test]
    fn parses_every_flag() {
        let a = parse(&[
            "--ases",
            "300",
            "--instances",
            "4",
            "--seed",
            "11",
            "--threads",
            "2",
            "--smoke",
            "--dests",
            "3",
            "--seeds",
            "5",
            "--scn",
            "a.scn",
            "--scn",
            "b.scn",
            "--protocols",
            "bgp,stamp",
            "--policy",
            "gao-rexford",
            "--check",
            "--adversarial",
        ])
        .unwrap();
        assert_eq!(
            a,
            CommonArgs {
                ases: Some(300),
                instances: Some(4),
                seed: Some(11),
                threads: 2,
                smoke: true,
                dests: Some(3),
                seeds: Some(5),
                scn: vec!["a.scn".into(), "b.scn".into()],
                protocols: Some("bgp,stamp".into()),
                policy: Some("gao-rexford".into()),
                check: true,
                adversarial: true,
            }
        );
        assert_eq!(parse(&[]).unwrap(), CommonArgs::default());
    }

    #[test]
    fn malformed_numbers_are_errors_not_panics() {
        for flag in [
            "--ases",
            "--instances",
            "--seed",
            "--threads",
            "--dests",
            "--seeds",
        ] {
            assert_eq!(
                parse(&[flag, "x"]),
                Err(ArgError::Malformed {
                    flag: flag.into(),
                    value: "x".into()
                })
            );
        }
        assert!(matches!(
            parse(&["--ases", "-1"]),
            Err(ArgError::Malformed { .. })
        ));
    }

    #[test]
    fn missing_unknown_and_help() {
        assert_eq!(
            parse(&["--seed", "1", "--ases"]),
            Err(ArgError::Missing("--ases".into()))
        );
        assert_eq!(
            parse(&["--smart"]),
            Err(ArgError::Unknown("--smart".into()))
        );
        assert_eq!(parse(&["fig2"]), Err(ArgError::Unknown("fig2".into())));
        assert_eq!(parse(&["--ases", "9", "-h"]), Err(ArgError::Help));
        assert_eq!(parse(&["--help"]), Err(ArgError::Help));
    }
}
