//! The one command-line layer shared by every branchlab binary.
//!
//! A binary lists its flags in a [`Flag`] table, walks them with an
//! [`Args`] cursor in its own flag → field `match`, and hands that
//! parse function to [`parse_env`], which owns exit codes 0 (`--help`)
//! and 2 (usage error). Exit 1 stays with the binary: the run failed.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// One accepted flag: its name and the placeholder of its value
/// (empty for a switch).
pub type Flag = (&'static str, &'static str);

/// Why a command line was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: not a failure, the caller prints the usage.
    Help,
    /// An argument that is not in the binary's flag table.
    Unknown(String),
    /// A flag that takes a value came last: the flag, what it takes.
    MissingValue(&'static str, &'static str),
    /// A value did not parse or is out of range: flag, value, expected.
    BadValue(&'static str, String, &'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::Unknown(arg) => write!(f, "unknown argument `{arg}`"),
            CliError::MissingValue(flag, want) => {
                write!(f, "{flag}: missing value, expected {want}")
            }
            CliError::BadValue(flag, got, want) => {
                write!(f, "{flag}: expected {want}, got `{got}`")
            }
        }
    }
}

/// A type a flag value parses into, with the words that describe a
/// valid value in error messages.
pub trait FlagValue: FromStr {
    /// What a valid value looks like, e.g. `"an integer"`.
    const EXPECTED: &'static str;
}

macro_rules! flag_values {
    ($($ty:ty => $expected:literal),*) => {
        $(impl FlagValue for $ty {
            const EXPECTED: &'static str = $expected;
        })*
    };
}
flag_values!(u32 => "an integer", u64 => "an integer", usize => "an integer",
    String => "a value", PathBuf => "a path");

/// A cursor over a command line, checked against a flag table.
pub struct Args {
    args: std::vec::IntoIter<String>,
    flags: &'static [Flag],
    flag: &'static str,
}

impl Args {
    /// A cursor over `args` (everything after the binary name) that
    /// accepts the flags in `flags`.
    #[must_use]
    pub fn new(args: impl IntoIterator<Item = String>, flags: &'static [Flag]) -> Self {
        let args = args.into_iter().collect::<Vec<_>>().into_iter();
        Args {
            args,
            flags,
            flag: "",
        }
    }

    /// The next flag, or `None` at the end; `--help`/`-h` and anything
    /// not in the flag table are errors.
    pub fn next_flag(&mut self) -> Result<Option<&'static str>, CliError> {
        let Some(arg) = self.args.next() else {
            return Ok(None);
        };
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Help);
        }
        let known = self.flags.iter().find(|(name, _)| *name == arg);
        self.flag = known.ok_or(CliError::Unknown(arg))?.0;
        Ok(Some(self.flag))
    }

    /// The current flag's value, kept if `accept` maps it to `Some`.
    fn raw<T>(
        &mut self,
        want: &'static str,
        accept: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let value = self
            .args
            .next()
            .ok_or(CliError::MissingValue(self.flag, want))?;
        accept(&value).ok_or(CliError::BadValue(self.flag, value, want))
    }

    /// The current flag's value, parsed through [`FromStr`].
    pub fn value<T: FlagValue>(&mut self) -> Result<T, CliError> {
        self.raw(T::EXPECTED, |v| v.parse().ok())
    }

    /// The current flag's value as a probability in `[0, 1]`.
    pub fn rate(&mut self) -> Result<f64, CliError> {
        self.raw("a rate in [0, 1]", |v| {
            v.parse().ok().filter(|r| (0.0..=1.0).contains(r))
        })
    }

    /// The current flag's value as a non-empty comma list, items
    /// trimmed and empty items dropped.
    pub fn list(&mut self) -> Result<Vec<String>, CliError> {
        self.raw("a comma list of names", |v| {
            let items: Vec<String> = v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect();
            (!items.is_empty()).then_some(items)
        })
    }
}

/// The usage text for `tool`: one line per flag, then the exit codes.
fn usage(tool: &str, flags: &[Flag]) -> String {
    let mut out = format!("usage: {tool} [FLAG]...\n");
    for (name, value) in flags.iter().chain(&[("-h, --help", "")]) {
        out += format!("  {name} {value}").trim_end();
        out += "\n";
    }
    out + "exit status: 0 success, 1 failed or partial run, 2 usage error\n"
}

/// Parse the process's command line with `parse` over a cursor that
/// accepts `flags`, or exit: 0 after printing the usage on stdout for
/// `--help`, 2 after printing the error and the usage on stderr.
pub fn parse_env<T>(
    tool: &str,
    flags: &'static [Flag],
    parse: impl FnOnce(&mut Args) -> Result<T, CliError>,
) -> T {
    match parse(&mut Args::new(std::env::args().skip(1), flags)) {
        Ok(parsed) => parsed,
        Err(CliError::Help) => {
            print!("{}", usage(tool, flags));
            std::process::exit(0)
        }
        Err(e) => {
            eprint!("{tool}: {e}\n{}", usage(tool, flags));
            std::process::exit(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        ("--seed", "N"),
        ("--out", "FILE"),
        ("--rate", "R"),
        ("--benches", "A,B,..."),
        ("--quiet", ""),
    ];

    fn args(line: &[&str]) -> Args {
        Args::new(line.iter().map(|s| (*s).to_string()), FLAGS)
    }

    #[test]
    fn typed_getters_parse_values() {
        let mut a = args(&[
            "--seed", "42", "--out", "x.json", "--quiet", "--rate", "0.5",
        ]);
        assert_eq!(a.next_flag(), Ok(Some("--seed")));
        assert_eq!(a.value::<u64>(), Ok(42));
        assert_eq!(a.next_flag(), Ok(Some("--out")));
        assert_eq!(a.value::<PathBuf>(), Ok(PathBuf::from("x.json")));
        assert_eq!(a.next_flag(), Ok(Some("--quiet")));
        assert_eq!(a.next_flag(), Ok(Some("--rate")));
        assert_eq!(a.rate(), Ok(0.5));
        assert_eq!(a.next_flag(), Ok(None));
    }

    #[test]
    fn lists_are_trimmed_and_must_not_be_empty() {
        let mut a = args(&["--benches", "wc, grep,,cmp", "--benches", " , "]);
        a.next_flag().unwrap();
        assert_eq!(a.list(), Ok(vec!["wc".into(), "grep".into(), "cmp".into()]));
        a.next_flag().unwrap();
        let err = a.list().unwrap_err();
        assert!(
            matches!(err, CliError::BadValue("--benches", _, _)),
            "{err}"
        );
    }

    #[test]
    fn help_and_unknown_flags_stop_the_walk() {
        assert_eq!(args(&["--quiet", "-h"]).next_flag(), Ok(Some("--quiet")));
        let mut a = args(&["--quiet", "--help"]);
        a.next_flag().unwrap();
        assert_eq!(a.next_flag(), Err(CliError::Help));
        let err = args(&["--bogus"]).next_flag().unwrap_err();
        assert_eq!(err, CliError::Unknown("--bogus".into()));
        assert_eq!(err.to_string(), "unknown argument `--bogus`");
        // Positional arguments are not flags either.
        assert!(matches!(
            args(&["wc"]).next_flag(),
            Err(CliError::Unknown(_))
        ));
    }

    #[test]
    fn bad_values_name_the_flag_the_value_and_the_expectation() {
        let mut a = args(&["--seed", "x"]);
        a.next_flag().unwrap();
        let err = a.value::<u64>().unwrap_err();
        assert_eq!(err.to_string(), "--seed: expected an integer, got `x`");
        for bad in ["1.5", "-0.1", "NaN", "half"] {
            let mut a = args(&["--rate", bad]);
            a.next_flag().unwrap();
            let err = a.rate().unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--rate: expected a rate in [0, 1], got `{bad}`")
            );
        }
        let mut a = args(&["--seed"]);
        a.next_flag().unwrap();
        let err = a.value::<u64>().unwrap_err();
        assert_eq!(err, CliError::MissingValue("--seed", "an integer"));
        assert_eq!(
            err.to_string(),
            "--seed: missing value, expected an integer"
        );
    }

    #[test]
    fn usage_lists_every_flag_help_and_exit_codes() {
        let text = usage("tool", FLAGS);
        assert!(text.starts_with("usage: tool [FLAG]...\n"), "{text}");
        for (name, value) in FLAGS {
            let line = format!("  {name} {value}");
            assert!(
                text.lines().any(|l| l == line.trim_end()),
                "{line} in {text}"
            );
        }
        assert!(text.contains("\n  -h, --help\n"));
        assert!(text.ends_with("2 usage error\n"));
    }
}
