//! Command-line arguments shared by both binaries.

use std::path::PathBuf;

use crate::workloads::{self, Workload};

/// Windows a measured run is cut into: short, so that some of them fall
/// between a neighbour's bursts (see `windows`).
pub const WINDOWS: usize = 20;

/// Parsed arguments.
#[derive(Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Smoke mode: one short window, one set-up, the fewest probe calls —
    /// the oracle still runs and every metric name is still printed.
    pub quick: bool,
    /// Where detail and trace files go.
    pub out: PathBuf,
    /// Commit under test, as the caller determined it.
    pub commit: String,
}

const USAGE: &str = "--workload <short_read|churn_mix|scan_heavy|plan_sensitive> \
[--seed N] [--seconds S] [--quick] [--out DIR] [--commit HASH]";

impl Args {
    /// Parse `std::env::args`, exiting with status 2 on misuse.
    pub fn from_env() -> Args {
        match Args::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                let bin = std::env::args().next().unwrap_or_default();
                eprintln!("error: {e}\nusage: {bin} {USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument list.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 7u64;
        let mut seconds = None;
        let mut quick = false;
        let mut out = PathBuf::from("benchmark/out");
        let mut commit = String::from("unknown");
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        workloads::by_name(&name).ok_or(format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--quick" => quick = true,
                "--out" => out = PathBuf::from(value()?),
                "--commit" => commit = value()?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.unwrap_or(if quick { 1.0 } else { 20.0 }),
            quick,
            out,
            commit,
        })
    }

    /// Number of measured windows (one in smoke mode).
    pub fn windows(&self) -> usize {
        if self.quick {
            1
        } else {
            WINDOWS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&["--workload", "short_read"]).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds),
            ("short_read", 7, 20.0)
        );
        assert_eq!(a.windows(), WINDOWS);
        let q = parse(&["--workload", "churn_mix", "--quick", "--seed", "99"]).unwrap();
        assert_eq!((q.seed, q.seconds, q.windows()), (99, 1.0, 1));
        let s = parse(&[
            "--workload",
            "scan_heavy",
            "--seconds",
            "12",
            "--commit",
            "abc",
        ])
        .unwrap();
        assert_eq!((s.seconds, s.commit.as_str()), (12.0, "abc"));
    }

    #[test]
    fn misuse_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "short_read", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "short_read", "--seed"]).is_err());
        assert!(parse(&["--workload", "short_read", "--bogus"]).is_err());
    }
}
