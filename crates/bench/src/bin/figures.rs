//! Regenerate the paper's figures and tables, one subcommand each:
//!
//! ```text
//! figures <name> [--ases N] [--instances N] [--seed N] [--threads N]
//! ```
//!
//! Every subcommand is a row of [`FIGURES`]: the experiment it runs and
//! its default topology size, instance count and seed. The figure goes to
//! stdout. A missing or unknown name, an unknown flag or a malformed value
//! exits 2 with the usage text.

#![forbid(unsafe_code)]

use stamp_bench::{exit_with_usage, ArgError, CommonArgs};
use stamp_experiments::render::{
    render_convergence_report, render_failure_report, render_overhead_report,
    render_partial_report, render_phi_report,
};
use stamp_experiments::{
    run_failure_experiment, run_partial_deployment, run_phi_experiment, FailureConfig,
    FailureReport, FailureScenario, PartialConfig, PhiExperimentConfig, Protocol,
};
use stamp_topology::GenConfig;

/// What a subcommand runs.
enum Experiment {
    /// Figure 1: the Φ CDF, always with the §6.1 smart-selection variant
    /// (`--instances` and `--threads` are unused).
    Phi,
    /// §6.3 partial deployment; `--instances` bounds the evaluated
    /// destinations (`--threads` is unused).
    Partial,
    /// A failure experiment: one canned scenario over the protocols,
    /// rendered from the report.
    Failure(
        FailureScenario,
        &'static [Protocol],
        fn(&FailureReport) -> String,
    ),
}

/// One subcommand and its defaults.
struct Figure {
    name: &'static str,
    about: &'static str,
    seed: u64,
    ases: usize,
    instances: usize,
    experiment: Experiment,
}

const FIGURES: &[Figure] = &[
    Figure {
        name: "fig1",
        about: "Figure 1: CDF of Phi, with smart selection",
        seed: 0xF161,
        ases: 8000,
        instances: 0,
        experiment: Experiment::Phi,
    },
    Figure {
        name: "fig2",
        about: "Figure 2: single link failure",
        seed: 0xF162,
        ases: 2000,
        instances: 30,
        experiment: Experiment::Failure(
            FailureScenario::SingleLink,
            &Protocol::ALL,
            render_failure_report,
        ),
    },
    Figure {
        name: "fig3a",
        about: "Figure 3(a): two failed links, different ASes",
        seed: 0xF3A,
        ases: 2000,
        instances: 30,
        experiment: Experiment::Failure(
            FailureScenario::TwoLinksDifferentAs,
            &Protocol::ALL,
            render_failure_report,
        ),
    },
    Figure {
        name: "fig3b",
        about: "Figure 3(b): two failed links, same AS",
        seed: 0xF3B,
        ases: 2000,
        instances: 30,
        experiment: Experiment::Failure(
            FailureScenario::TwoLinksSameAs,
            &Protocol::ALL,
            render_failure_report,
        ),
    },
    Figure {
        name: "node_failure",
        about: "Sec. 6.2.2: single node failure",
        seed: 0x6F,
        ases: 2000,
        instances: 30,
        experiment: Experiment::Failure(
            FailureScenario::NodeFailure,
            &Protocol::ALL,
            render_failure_report,
        ),
    },
    Figure {
        name: "convergence",
        about: "Sec. 6.3: convergence delay",
        seed: 0xC0,
        ases: 2000,
        instances: 20,
        experiment: Experiment::Failure(
            FailureScenario::SingleLink,
            &Protocol::ALL,
            render_convergence_report,
        ),
    },
    Figure {
        name: "overhead",
        about: "Sec. 6.3: protocol message overhead",
        seed: 0x07EA,
        ases: 2000,
        instances: 20,
        experiment: Experiment::Failure(
            FailureScenario::SingleLink,
            &[Protocol::Bgp, Protocol::Stamp],
            render_overhead_report,
        ),
    },
    Figure {
        name: "partial_deployment",
        about: "Sec. 6.3: partial deployment (--instances = destinations)",
        seed: 0x6E3,
        ases: 4000,
        instances: 400,
        experiment: Experiment::Partial,
    },
];

fn usage() -> String {
    let mut out = String::from(
        "figures <name> [--ases N] [--instances N] [--seed N] [--threads N]\n\
         Regenerates one of the paper's figures or tables on stdout.\n",
    );
    for f in FIGURES {
        out.push_str(&format!("\n  {:<19} {}", f.name, f.about));
    }
    out
}

/// The flags a subcommand takes.
const FLAGS: [&str; 4] = ["--ases", "--instances", "--seed", "--threads"];

/// Resolve the subcommand and parse its flags.
fn parse(args: &[String]) -> Result<(&'static Figure, CommonArgs), ArgError> {
    let (name, flags) = match args.split_first() {
        Some((name, flags)) if !name.starts_with('-') => (name, flags),
        _ => {
            CommonArgs::parse(args)?;
            return Err(ArgError::Missing("<name>".into()));
        }
    };
    if let Some(flag) = flags
        .iter()
        .find(|a| a.starts_with("--") && *a != "--help" && !FLAGS.contains(&a.as_str()))
    {
        return Err(ArgError::Unknown(flag.clone()));
    }
    let args = CommonArgs::parse(flags)?;
    let figure = FIGURES
        .iter()
        .find(|f| f.name == name.as_str())
        .ok_or_else(|| ArgError::Unknown(name.clone()))?;
    Ok((figure, args))
}

/// Run one figure and render it.
fn run(figure: &Figure, args: &CommonArgs) -> String {
    let seed = args.seed.unwrap_or(figure.seed);
    let n_ases = args.ases.unwrap_or(figure.ases);
    let instances = args.instances.unwrap_or(figure.instances);
    match &figure.experiment {
        Experiment::Phi => render_phi_report(&run_phi_experiment(&PhiExperimentConfig {
            gen: GenConfig {
                n_ases,
                ..GenConfig::analysis_scale(seed)
            },
            with_smart: true,
            ..Default::default()
        })),
        Experiment::Partial => render_partial_report(&run_partial_deployment(&PartialConfig {
            seed,
            gen: GenConfig {
                n_ases,
                ..GenConfig::sim_scale(seed)
            },
            max_destinations: instances,
            ..Default::default()
        })),
        Experiment::Failure(scenario, protocols, render) => {
            let cfg = FailureConfig {
                seed,
                gen: GenConfig {
                    n_ases,
                    ..GenConfig::sim_scale(seed)
                },
                instances,
                threads: args.threads,
                ..FailureConfig::default()
            };
            render(&run_failure_experiment(&cfg, *scenario, protocols))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figure, args) = parse(&args).unwrap_or_else(|e| exit_with_usage(&e, &usage()));
    println!("{}", run(figure, &args));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<(&'static str, CommonArgs), ArgError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(f, a)| (f.name, a))
    }

    #[test]
    fn every_subcommand_resolves_with_its_flags() {
        for f in FIGURES {
            let (name, args) =
                parse_strs(&[f.name, "--ases", "300", "--instances", "4", "--seed", "9"]).unwrap();
            assert_eq!(name, f.name);
            assert_eq!(
                (args.ases, args.instances, args.seed),
                (Some(300), Some(4), Some(9))
            );
        }
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate subcommand");
    }

    #[test]
    fn bad_input_is_a_usage_error() {
        assert_eq!(parse_strs(&[]), Err(ArgError::Missing("<name>".into())));
        assert_eq!(parse_strs(&["fig9"]), Err(ArgError::Unknown("fig9".into())));
        assert_eq!(
            parse_strs(&["fig1", "--smart"]),
            Err(ArgError::Unknown("--smart".into()))
        );
        assert_eq!(
            parse_strs(&["fig2", "--smoke"]),
            Err(ArgError::Unknown("--smoke".into()))
        );
        assert_eq!(
            parse_strs(&["fig2", "--policy", "gao-rexford"]),
            Err(ArgError::Unknown("--policy".into()))
        );
        assert_eq!(
            parse_strs(&["fig2", "--ases", "x"]),
            Err(ArgError::Malformed {
                flag: "--ases".into(),
                value: "x".into()
            })
        );
        assert_eq!(parse_strs(&["fig2", "--help"]), Err(ArgError::Help));
        assert_eq!(parse_strs(&["--help"]), Err(ArgError::Help));
        assert_eq!(
            parse_strs(&["--ases", "300"]),
            Err(ArgError::Missing("<name>".into()))
        );
    }
}
