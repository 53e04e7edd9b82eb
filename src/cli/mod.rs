//! The command-line front end: one option parser ([`Opts`]), one run
//! grammar ([`spec::RunSpec`]), one artifact and summary layer
//! ([`artifact`]), and a module per family of subcommands. A subcommand
//! reads its options, calls [`Opts::finish`] before its first side effect,
//! and reports failure by returning it: `main` alone prints errors.

use std::process::ExitCode;

mod artifact;
mod opts;
mod spec;

pub mod calibrate;
pub mod chaos;
pub mod inspect;
pub mod run;

pub use opts::Opts;

/// Why a subcommand stopped: what `main` prints on stderr and the exit code
/// it returns — 2 for start-up validation of options and environment, 1 for
/// whatever fails after. A plain string is the latter, so `?` carries every
/// library error out.
#[derive(Debug)]
pub struct Failure {
    pub code: u8,
    pub message: String,
}

impl Failure {
    pub fn startup(message: impl Into<String>) -> Failure {
        let message = message.into();
        Failure { code: 2, message }
    }
}

impl<S: Into<String>> From<S> for Failure {
    fn from(message: S) -> Failure {
        let message = message.into();
        Failure { code: 1, message }
    }
}

/// How a subcommand that collected `failures` along the way ends: success
/// if there are none, else all of them, a line each.
pub fn verdict(failures: &[String]) -> Result<ExitCode, Failure> {
    match failures {
        [] => Ok(ExitCode::SUCCESS),
        _ => Err(failures.join("\n").into()),
    }
}

/// A subcommand: options, positional arguments, and how it ended. `Ok`
/// carries the exit code of a run that completed, which a verdict with
/// nothing more to say can make non-zero.
pub type Command = fn(&mut Opts, &[String]) -> Result<ExitCode, Failure>;
