//! # coop-cli
//!
//! Command-line interface to the `numa-coop` toolkit. Argument parsing and
//! command execution live in this library so they are unit-testable; the
//! `coop-cli` binary is a thin `main`.
//!
//! ```text
//! coop-cli detect                         # show the host topology (sysfs)
//! coop-cli machines                       # list preset machines
//! coop-cli show --machine paper-model     # print one machine as JSON
//! coop-cli solve --machine paper-model \
//!     --app mem1:local:0.5 --app comp:local:10 \
//!     --counts 2,2                        # score an allocation
//! coop-cli search --machine paper-skylake \
//!     --app mem:local:0.03125 --app bad:node0:0.0625 \
//!     --method anneal --keep-alive        # find an allocation
//! coop-cli sweep --machine paper-model --app mem:local:0.5
//! ```
//!
//! Applications are specified as `name:placement:ai` where placement is
//! `local` (NUMA-perfect), `nodeK` (all data on node K), or `spread`
//! (even traffic over all nodes). Machines are preset names or paths to a
//! machine JSON file (see `coop-cli show`).

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod args;
pub mod commands;
mod session;

pub use args::{
    parse_args, AppArg, Cli, Command, OutputFormat, PerturbArg, PlacementArg, SearchMethod,
};

/// CLI error: a message for stderr plus a suggested exit code.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    /// A usage error (exit code 2).
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// A runtime failure (exit code 1).
    pub(crate) fn failure(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

/// Runs the CLI with the given arguments (excluding `argv[0]`); returns the
/// text that should go to stdout.
pub fn run(argv: &[String]) -> Result<String> {
    let cli = parse_args(argv)?;
    commands::execute(&cli)
}
